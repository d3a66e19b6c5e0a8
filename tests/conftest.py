import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from corebench.hilbert import build_problem

ROOT = Path(__file__).resolve().parent.parent

# Inputs that a cast to float64 would get wrong, with the error each must
# raise instead: the cast parses str and bytes, keeps only the real part of
# a complex array and raises TypeError on a list of complex numbers.
NOT_REAL = pytest.mark.parametrize("values, message", [
    ([["1", "2"]], "non-numeric entries"), (np.array([b"1"]), "non-numeric entries"),
    (np.array([1 + 2j]), "complex entries"), ([1 + 2j], "complex entries"),
], ids=["str", "bytes", "complex-array", "complex-list"])


def load(relative: str):
    """Import a repository script (not part of the package) by its path."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated while running, in
    bytes (numpy's array buffers are traced too)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def rows(problem):
    """The problem's rows L_n = sigma_n ell_n, from its norms and unit rows."""
    return problem.norms[:, None] * problem.unit_vectors


def random_problem(rng, max_n=60, max_dim=12, scale_spread=2.0):
    """Random problem with mixed signs and magnitudes across rows."""
    n = int(rng.integers(1, max_n + 1))
    d = int(rng.integers(1, max_dim + 1))
    rows = rng.normal(size=(n, d)) * np.exp(scale_spread * rng.normal(size=(n, 1)))
    return build_problem(rows)


def brute_force_error(problem, m):
    """Smallest ||L(w) - L|| over supports of size <= m with w >= 0.

    Independent oracle: exhaustive support enumeration with nonnegative
    least squares on each support. Only viable for small problems.
    """
    from scipy.optimize import nnls

    best = float(np.linalg.norm(problem.target))   # w = 0
    for size in range(1, m + 1):
        for support in itertools.combinations(range(problem.n), size):
            A = rows(problem)[list(support)].T
            _, resid = nnls(A, problem.target)
            best = min(best, resid)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
