"""Transformations of the input that must not change what the
constructions return."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corebench.baselines import fw_coreset, sampling_sweep
from corebench.giga import run as giga_run
from corebench.hilbert import build_problem, relative_error

ROWS = np.random.default_rng(0).normal(size=(200, 5))
M = 20
PROBLEM = build_problem(ROWS)
GIGA = giga_run(PROBLEM, M)
FW = fw_coreset(PROBLEM, M)


def outputs(rows):
    """Weights and relative error of GIGA, FW, IS and RND, as bytes and floats,
    then FW's stop reason and step count at a budget past its float floor."""
    p = build_problem(rows)
    fw_floor, fw_run = fw_coreset(p, 5 * M)
    weights = [giga_run(p, M)[0], fw_coreset(p, M)[0],
               sampling_sweep(p, [M], 0, "IS")[M], sampling_sweep(p, [M], 0, "RND")[M],
               fw_floor]
    return ([(w.indices.tobytes(), w.values.tobytes(), relative_error(p, w)) for w in weights]
            + [(fw_run.stop_reason, len(fw_run.times))])


@given(k=st.integers(-300, 300))
@example(k=-40)
@example(k=-300)
@example(k=300)
@settings(max_examples=60, deadline=None)
def test_power_of_two_scaling_changes_no_bit(k):
    # scaling by 2^k is exact in float64, and so are the norms, unit vectors
    # and ratios computed from the scaled rows; no tolerance may depend on it,
    # the float-floor stop's included
    expected = outputs(ROWS)
    assert expected[-1][0] == "float floor"
    assert outputs(np.ldexp(ROWS, k)) == expected


@given(perm=st.permutations(range(len(ROWS))))
@settings(max_examples=60, deadline=None)
def test_row_permutation_carries_the_picks(perm):
    # near the floor GIGA's picks are set by rounding, so only its steps far
    # above it are compared; FW ends near 1.6e-8 here, far above the floor
    perm = np.array(perm)
    p = build_problem(ROWS[perm])
    far = [t for t, s in enumerate(GIGA[1].traces) if s.residual > 1e6 * PROBLEM.floor]
    assert far
    picks = giga_run(p, M)[1].selected
    assert [perm[picks[t]] for t in far] == [GIGA[1].selected[t] for t in far]
    assert [perm[n] for n in fw_coreset(p, M)[1].selected] == FW[1].selected


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rotation_keeps_the_error_within_floors(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(5, 5)))
    p = build_problem(ROWS @ q)
    for (w, _), construct in ((GIGA, giga_run), (FW, fw_coreset)):
        moved = relative_error(p, construct(p, M)[0]) - relative_error(PROBLEM, w)
        assert abs(moved) <= 8 * PROBLEM.floor
