import math

import numpy as np
import pytest

from corebench import giga
from corebench.captree import build as build_cap_tree
from corebench.captree import search as captree_search
from corebench.giga import (
    GigaState,
    cap_objective,
    initial_state,
    run,
    select,
    step_size,
    update,
)
from corebench.hilbert import (
    RENORM_INTERVAL,
    Projections,
    Step,
    Stop,
    build_problem,
    relative_error,
)

from conftest import brute_force_error, random_problem

TWO_ORTH = [(1.0, 0.0), (0.0, 1.0)]


def two_orth_state_after_first_pick():
    """State after the t=0 step on the 2-orthogonal problem: w = {0: 1}."""
    p = build_problem(TWO_ORTH)
    ell = p.unit_target
    return p, GigaState(
        t=1,
        weights=np.array([1.0, 0.0]),
        ell_w=np.array([1.0, 0.0]),
        alignment=float(ell[0]),
        J=1.0 - float(ell[0]) ** 2,
        scan=Projections(p),
    )


class TestSelect:
    def test_tie_breaks_to_lowest_index(self):
        p = build_problem(TWO_ORTH)
        n_t, score = select(p, initial_state(p))
        assert n_t == 0
        assert score == pytest.approx(1.0 / np.sqrt(2))

    def test_second_step_picks_orthogonal_complement(self):
        p, state = two_orth_state_after_first_pick()
        n_t, score = select(p, state)
        # d_t = (0, 1); candidate 0 hits the zero convention, candidate 1 scores 1
        assert n_t == 1
        assert score == pytest.approx(1.0, abs=1e-12)
        assert state.alignment == pytest.approx(1 / np.sqrt(2))

    def test_axis_problem_second_pick_is_next_unused(self):
        p = build_problem(np.eye(4) / 4)
        state = initial_state(p)
        update(p, state, *_next_step(p, state))
        assert select(p, state)[0] == 1

    def test_converged_when_residual_exhausted(self):
        p = build_problem([(2.0, 0.0)])
        state = GigaState(t=1, weights=np.array([1.0]),
                          ell_w=np.array([1.0, 0.0]), alignment=1.0, J=0.0,
                          scan=Projections(p))
        with pytest.raises(Stop, match="converged"):
            select(p, state)

    def test_captree_matches_linear_scan(self, rng):
        # the standalone cap-tree search finds the pick of select's cached scan
        for _ in range(50):
            p = random_problem(rng, max_n=80, max_dim=6)
            if p.trivial or p.n < 2:
                continue
            tree = build_cap_tree(p.unit_vectors)
            state = initial_state(p)
            for _ in range(3):
                try:
                    plain_n, plain_score = select(p, state)
                except Stop:
                    break
                resid = p.unit_target - state.alignment * state.ell_w
                d_t = resid / np.linalg.norm(resid)
                tree_n, tree_score = captree_search(tree, d_t, state.ell_w)
                assert tree_score == pytest.approx(plain_score, abs=1e-9)
                # same index whenever the maximizer is unique
                scores = np.sort(cap_objective(p.unit_vectors, d_t, state.ell_w))
                if p.n > 1 and scores[-1] - scores[-2] > 1e-9:
                    assert tree_n == plain_n
                update(p, state, plain_n, step_size(p, state, plain_n))


def _next_step(p, state):
    """The next step's row and step size."""
    n_t, _ = select(p, state)
    return n_t, step_size(p, state, n_t)


class TestStepSize:
    def test_first_step_is_full(self):
        p = build_problem(TWO_ORTH)
        state = initial_state(p)
        n_t, _ = select(p, state)
        assert step_size(p, state, n_t) == pytest.approx(1.0)

    def test_two_orth_second_step_is_half(self):
        p, state = two_orth_state_after_first_pick()
        n_t, _ = select(p, state)
        assert step_size(p, state, n_t) == pytest.approx(0.5)

    def test_coincident_point_degenerates(self):
        # row 0 is the iterate itself
        p, state = two_orth_state_after_first_pick()
        with pytest.raises(Stop, match="degenerate step"):
            step_size(p, state, 0)

    def test_large_clamp_emits_warning(self):
        # an alignment of -0.1 toward row 1 (z0 = 1/sqrt(2), z2 = 0) gives a raw step of 1.165
        p, state = two_orth_state_after_first_pick()
        state.alignment = -0.1
        with pytest.warns(RuntimeWarning, match="clamped"):
            g = step_size(p, state, 1)
        assert g == 1.0

    def test_gamma_always_feasible(self, rng):
        for _ in range(200):
            p = random_problem(rng, max_n=40, max_dim=8)
            if p.trivial or p.n == 0:
                continue
            state = initial_state(p)
            for _ in range(min(20, p.n + 3)):
                try:
                    n_t, g = _next_step(p, state)
                except Stop:
                    break
                assert 0.0 <= g <= 1.0
                update(p, state, n_t, g)


class TestUpdate:
    def test_two_orth_exact_recovery_at_step_two(self):
        p, state = two_orth_state_after_first_pick()
        update(p, state, *_next_step(p, state))
        np.testing.assert_allclose(state.ell_w, p.unit_target, atol=1e-15)
        np.testing.assert_allclose(state.weights, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert state.alignment == pytest.approx(1.0, abs=1e-12)

    def test_full_step_lands_on_selected_vector(self):
        p = build_problem(TWO_ORTH)
        state = initial_state(p)
        update(p, state, *_next_step(p, state))
        np.testing.assert_allclose(state.ell_w, p.unit_vectors[0], atol=1e-15)
        np.testing.assert_array_equal(state.weights, [1.0, 0.0])

    def test_zero_step_is_fixed_point(self):
        p, state = two_orth_state_after_first_pick()
        ell_w, weights, alignment = state.ell_w, state.weights.copy(), state.alignment
        update(p, state, 1, 0.0)
        np.testing.assert_array_equal(state.ell_w, ell_w)
        np.testing.assert_array_equal(state.weights, weights)
        assert state.alignment == pytest.approx(alignment)
        assert state.t == 2

    def test_step_size_outside_unit_interval_rejected(self):
        p = build_problem(TWO_ORTH)
        for gamma in (-0.25, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                update(p, initial_state(p), 0, gamma)

    def test_collapsed_iterate_guard(self):
        p = build_problem([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)])
        state = GigaState(t=1, weights=np.array([1.0, 0.0, 0.0]),
                          ell_w=np.array([1.0, 0.0]),
                          alignment=0.0, J=1.0, scan=Projections(p))
        with pytest.raises(RuntimeError, match="collapsed iterate"):
            update(p, state, 1, 0.5)

    def test_advances_the_state_in_place(self):
        p = build_problem(np.random.default_rng(8).normal(size=(30, 4)))
        state = initial_state(p)
        scan = state.scan
        for t in range(1, 6):
            assert update(p, state, *_next_step(p, state)) is None
            assert state.t == t and state.scan is scan

    def test_unit_iterate_despite_caching(self, rng):
        p = random_problem(rng, max_n=50, max_dim=10)
        state = initial_state(p)
        for _ in range(min(30, p.n + 2)):
            try:
                n_t, g = _next_step(p, state)
            except Stop:
                break
            update(p, state, n_t, g)
            assert np.linalg.norm(state.ell_w) == pytest.approx(1.0, abs=1e-8)

    def test_unit_iterate_with_no_periodic_rescale(self):
        # update's one division by the new norm keeps ell(w) unit, and equal
        # to sum_n w_n ell_n up to that sum's rounding (of order eps * sum_n
        # w_n; 0.5x of it measured here), across several resync intervals
        p = build_problem(np.random.default_rng(5).normal(size=(2000, 400)))
        state = initial_state(p)
        eps = np.finfo(np.float64).eps
        for _ in range(4 * RENORM_INTERVAL):
            update(p, state, *_next_step(p, state))
            assert abs(np.linalg.norm(state.ell_w) - 1.0) <= 4 * eps
            gap = np.linalg.norm(state.weights @ p.unit_vectors - state.ell_w)
            assert gap <= 4 * eps * state.weights.sum()


class TestFinalize:
    def test_two_orth_recovers_unit_weights(self):
        p = build_problem(TWO_ORTH)
        w, diag = run(p, 2)
        dense = np.bincount(w.indices, w.values, minlength=2)
        np.testing.assert_allclose(dense, [1.0, 1.0], atol=1e-12)
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-12)

    def test_trivial_problem_empty_output(self):
        p = build_problem([(1.0, 0.0), (-1.0, 0.0)])
        w, diag = run(p, 3)
        assert w.nnz == 0
        assert diag.stop_reason == "trivial"

    def test_single_vector_exact(self):
        p = build_problem([(3.0, 4.0)])
        w, diag = run(p, 5)
        np.testing.assert_array_equal(w.indices, [0])
        np.testing.assert_allclose(w.values, [1.0], atol=1e-12)
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-12)
        assert diag.stop_reason == "converged"
        assert len(diag.traces) == 1

    def test_indices_remap_to_original(self):
        p = build_problem([(0.0, 0.0), (2.0, 0.0), (0.0, 0.0), (0.0, 3.0)])
        w, _ = run(p, 4)
        assert set(p.to_original(w).indices.tolist()) <= {1, 3}
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-10)

    def test_residual_orthogonal_to_coreset(self, rng):
        from corebench.hilbert import weighted_sum
        for _ in range(100):
            p = random_problem(rng, max_n=30, max_dim=8)
            if p.trivial or p.n == 0:
                continue
            w, _ = run(p, int(rng.integers(1, 12)))
            Lw = weighted_sum(p, w)
            assert abs((Lw - p.target) @ Lw) <= 1e-8 * p.target_norm ** 2


class TestRun:
    def test_budget_must_be_positive(self):
        p = build_problem(TWO_ORTH)
        with pytest.raises(ValueError):
            run(p, 0)

    def test_one_state_per_run(self, monkeypatch):
        made = []

        class CountedState(GigaState):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(giga, "GigaState", CountedState)
        p = build_problem(np.random.default_rng(9).normal(size=(200, 60)))
        _, diag = run(p, 50)
        assert len(diag.traces) == 50
        assert len(made) == 1

    def test_axis_problem_error_formula(self):
        # brute-force oracle agrees with the symmetry value sqrt(1 - M/N)
        p = build_problem(np.eye(4) / 4)
        w, _ = run(p, 2)
        oracle = brute_force_error(p, 2) / p.target_norm
        assert oracle == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert relative_error(p, w) == pytest.approx(oracle, abs=1e-9)
        assert w.nnz == 2

    def test_never_beats_brute_force_and_never_exceeds_target_norm(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            p = build_problem(rng.normal(size=(n, d)))
            if p.trivial:
                continue
            w, _ = run(p, m)
            rel = relative_error(p, w)
            oracle = brute_force_error(p, m) / p.target_norm
            assert rel >= oracle - 1e-9
            assert rel <= 1.0 + 1e-9

    def test_first_alignment_bound(self, rng):
        # initialization alignment is at least ||L|| / sigma
        for _ in range(100):
            p = random_problem(rng, max_n=40, max_dim=8)
            if p.trivial or p.n == 0:
                continue
            state = initial_state(p)
            update(p, state, *_next_step(p, state))
            assert state.alignment >= p.target_norm / p.sigma_total - 1e-12

    def test_alignment_monotone_and_cost_recursion(self, rng):
        # the run's steps are those of stepping by hand, whose state holds
        # the alignment and the cost J = residual^2
        for _ in range(60):
            p = random_problem(rng, max_n=50, max_dim=10)
            if p.trivial or p.n == 0:
                continue
            _, diag = run(p, 25)
            state = initial_state(p)
            align_prev, J_prev = -np.inf, 1.0
            for record in diag.traces:
                n_t, score = select(p, state)
                gamma = step_size(p, state, n_t)
                update(p, state, n_t, gamma)
                assert record == Step(n_t, gamma, score, math.sqrt(state.J))
                assert state.alignment >= align_prev - 1e-12
                # cost recursion J_{t+1} = J_t (1 - score^2)
                assert state.J == pytest.approx(J_prev * (1 - score ** 2), abs=1e-8)
                align_prev, J_prev = state.alignment, state.J

    def test_size_bounded_by_budget(self, rng):
        for _ in range(30):
            p = random_problem(rng, max_n=40, max_dim=6)
            if p.trivial or p.n == 0:
                continue
            m = int(rng.integers(1, 15))
            w, _ = run(p, m)
            assert w.nnz <= m

    def test_converges_at_the_float_floor(self):
        # synth-vectors at a small shape: the error decays geometrically
        # until rounding, and the run stops there, not at a fixed tolerance
        p = build_problem(np.random.default_rng(11).normal(size=(2000, 20)))
        w, diag = run(p, 500)
        assert diag.stop_reason == "converged"
        assert relative_error(p, w) <= 2 * p.floor

    def test_snapshots_match_fresh_runs(self, rng):
        p = random_problem(rng, max_n=50, max_dim=8)
        _, diag = run(p, 12, checkpoints=[1, 3, 12])
        for m in (1, 3, 12):
            fresh, _ = run(p, m)
            np.testing.assert_array_equal(diag.snapshots[m].indices, fresh.indices)
            np.testing.assert_allclose(diag.snapshots[m].values, fresh.values,
                                       rtol=1e-12)
