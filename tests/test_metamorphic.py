"""Transformations of the input that must not change what the
constructions return."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corebench.baselines import fw_coreset, is_coreset, rnd_coreset
from corebench.giga import run as giga_run
from corebench.hilbert import build_problem, relative_error

ROWS = np.random.default_rng(0).normal(size=(200, 5))
M = 20


def outputs(rows):
    """Weights and relative error of GIGA, FW, IS and RND, as bytes and floats."""
    p = build_problem(rows)
    weights = [giga_run(p, M)[0], fw_coreset(p, M)[0],
               is_coreset(p, M, 0), rnd_coreset(p, M, 0)]
    return [(w.indices.tobytes(), w.values.tobytes(), relative_error(p, w)) for w in weights]


@given(k=st.integers(-300, 300))
@example(k=-40)
@settings(max_examples=60, deadline=None)
def test_power_of_two_scaling_changes_no_bit(k):
    # scaling by 2^k is exact in float64, and so are the norms, unit vectors
    # and ratios computed from the scaled rows; no tolerance may depend on it
    assert outputs(np.ldexp(ROWS, k)) == outputs(ROWS)
