import numpy as np
import pytest

from corebench.baselines import fw_coreset, sampling_sweep
from corebench.giga import run as giga_run
from corebench.hilbert import WeightVector, build_problem, relative_error, weighted_sum

from conftest import random_problem, rows


def axis_problem(n):
    return build_problem(np.eye(n) / n)


def sample(method, p, m, seed):
    """The budget-m coreset of a one-budget sampling sweep."""
    return sampling_sweep(p, [m], seed, method)[m]


class TestFrankWolfe:
    def test_axis_problem_two_steps(self):
        p = axis_problem(4)
        w, diag = fw_coreset(p, 2)
        assert w.nnz == 2
        np.testing.assert_allclose(np.sort(w.values), [2.0, 2.0])
        np.testing.assert_allclose(weighted_sum(p, w), [0.5, 0.5, 0.0, 0.0])
        # relative error sqrt(N/M - 1) = 1 at N=4, M=2
        assert relative_error(p, w) == pytest.approx(1.0, abs=1e-12)
        assert diag.traces[1].gamma == pytest.approx(0.5)

    def test_single_vector_exact(self):
        p = build_problem([(3.0, 4.0)])
        w, _ = fw_coreset(p, 1)
        # vertex scaling sigma / sigma_0 = 1 recovers L exactly
        np.testing.assert_array_equal(w.indices, [0])
        np.testing.assert_allclose(w.values, [1.0])
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-15)

    def test_simplex_feasibility_throughout(self, rng):
        for _ in range(100):
            p = random_problem(rng, max_n=30, max_dim=8)
            if p.trivial or p.n == 0:
                continue
            m = int(rng.integers(1, 12))
            _, diag = fw_coreset(p, m, checkpoints=list(range(1, m + 1)))
            for snap in diag.snapshots.values():
                total = float(p.norms[snap.indices] @ snap.values)
                assert total == pytest.approx(p.sigma_total, rel=1e-8)

    def test_objective_nonincreasing(self, rng):
        for _ in range(50):
            p = random_problem(rng, max_n=40, max_dim=8)
            if p.trivial or p.n == 0:
                continue
            _, diag = fw_coreset(p, 20, checkpoints=range(1, 21))
            errs = np.array([np.linalg.norm(weighted_sum(p, diag.snapshots[m]) - p.target)
                             for m in range(1, 21)])
            assert np.all(np.diff(errs) <= 1e-10 * p.target_norm + 1e-12)

    def test_size_bounded_by_budget(self, rng):
        for _ in range(30):
            p = random_problem(rng, max_n=40, max_dim=6)
            if p.trivial or p.n == 0:
                continue
            m = int(rng.integers(1, 10))
            w, _ = fw_coreset(p, m)
            assert w.nnz <= m

    def test_degenerate_line_search_stops_early(self):
        # near-collinear rows c_n b + s z_n: the picked vertex lies within
        # ZERO_TOL_COEFF * sigma of the iterate while the error is still
        # some 1e5 floors (one row would not do: FW sits on L after one step
        # and stops at the float floor)
        rng = np.random.default_rng(0)
        b, z = rng.normal(size=5), rng.normal(size=(30, 5))
        c = np.abs(rng.normal(size=30)) + 0.5
        p = build_problem(c[:, None] * b + 1e-10 * z)
        w, diag = fw_coreset(p, 2000)
        assert diag.stop_reason == "degenerate line search"
        assert len(diag.selected) == 1 and w.nnz == 1
        assert relative_error(p, w) > 1e4 * p.floor

    @pytest.mark.parametrize("construct", [giga_run, fw_coreset], ids=["giga", "fw"])
    def test_checkpoints_are_keyword_only(self, construct):
        with pytest.raises(TypeError):
            construct(axis_problem(4), 2, [1, 2])

    def test_stops_at_the_float_floor(self):
        # synth-vectors at a small shape: FW reaches rounding long before M
        p = build_problem(np.random.default_rng(11).normal(size=(2000, 20)))
        M = 500
        w, diag = fw_coreset(p, M, checkpoints=range(1, M + 1))
        assert diag.stop_reason == "float floor"
        assert len(diag.selected) < M
        assert relative_error(p, w) <= 4 * p.floor
        assert w.nnz <= len(diag.selected)
        # and at the first budget within 4 floors, not some steps after it
        first = next(m for m in range(1, M + 1)
                     if relative_error(p, diag.snapshots[m]) <= 4 * p.floor)
        assert len(diag.selected) == first


class TestAxisProblemFormulas:
    """Axis-aligned dataset: closed-form errors for all constructions."""

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("m", [5, 20])
    def test_fw_error_formula(self, n, m):
        p = axis_problem(n)
        w, _ = fw_coreset(p, m)
        assert relative_error(p, w) == pytest.approx(np.sqrt(n / m - 1), abs=1e-6)

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("m", [5, 20])
    def test_is_error_formula_conditional_on_distinct(self, n, m):
        # conditional on all draws distinct, IS weights equal FW's uniform
        # solution, hence the same closed-form error
        p = axis_problem(n)
        hits = 0
        for seed in range(40):
            w = sample("IS", p, m, seed)
            if w.nnz == m:
                hits += 1
                assert relative_error(p, w) == pytest.approx(
                    np.sqrt(n / m - 1), abs=1e-6)
        assert hits > 0

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("m", [5, 20])
    def test_giga_dominates(self, n, m):
        p = axis_problem(n)
        w, _ = giga_run(p, m)
        giga_rel = relative_error(p, w)
        assert giga_rel == pytest.approx(np.sqrt(1 - m / n), abs=1e-6)
        assert giga_rel < 1.0
        wf, _ = fw_coreset(p, m)
        assert relative_error(p, wf) >= 1.0  # m < n/2 throughout


class TestImportanceSampling:
    def test_single_vector(self):
        p = build_problem([(3.0, 4.0)])
        for m in (1, 5):
            w = sample("IS", p, m, seed=0)
            np.testing.assert_array_equal(w.indices, [0])
            np.testing.assert_allclose(w.values, [1.0])

    def test_axis_weights_are_multiplicity_scaled(self):
        p = axis_problem(8)
        w = sample("IS", p, 6, seed=3)
        # sigma_n / sigma uniform: every weight is (N / M) x multiplicity
        mult = w.values * 6 / 8
        np.testing.assert_allclose(mult, np.round(mult))
        assert w.values.sum() * 6 / 8 == pytest.approx(6)

    def test_unbiasedness_monte_carlo(self):
        rng = np.random.default_rng(42)
        p = build_problem(rng.normal(size=(5, 3)) * [1.0, 2.0, 0.5])
        draws = 100_000
        probs = p.norms / p.sigma_total
        picks = np.random.default_rng(7).choice(5, size=draws, p=probs)
        # M=1 coresets: L(w) = (sigma / sigma_n) L_n for the drawn index
        sums = (p.sigma_total / p.norms[picks])[:, None] * rows(p)[picks]
        mean = sums.mean(axis=0)
        assert np.linalg.norm(mean - p.target) <= 0.01 * p.target_norm

    def test_simplex_feasibility_at_every_budget(self, rng):
        # sum_n sigma_n w_n = sum_n m_n sigma / M = sigma for every draw
        for seed in range(50):
            p = random_problem(rng, max_n=30, max_dim=8)
            if p.n == 0:
                continue
            for w in sampling_sweep(p, range(1, 41), seed, "IS").values():
                total = float(p.norms[w.indices] @ w.values)
                assert total == pytest.approx(p.sigma_total, rel=1e-12)

    def test_seed_reproducibility(self, rng):
        p = random_problem(rng, max_n=30, max_dim=5)
        w1 = sample("IS", p, 7, seed=123)
        w2 = sample("IS", p, 7, seed=123)
        np.testing.assert_array_equal(w1.indices, w2.indices)
        np.testing.assert_array_equal(w1.values, w2.values)


class TestUniformSubsampling:
    def test_single_vector(self):
        p = build_problem([(3.0, 4.0)])
        w = sample("RND", p, 4, seed=0)
        np.testing.assert_array_equal(w.indices, [0])
        np.testing.assert_allclose(w.values, [1.0])

    def test_weight_sum_is_n(self, rng):
        for seed in range(20):
            p = random_problem(rng, max_n=25, max_dim=5)
            if p.n == 0:
                continue
            m = int(rng.integers(1, 10))
            w = sample("RND", p, m, seed)
            assert w.total() == pytest.approx(p.n, rel=1e-12)

    def test_unbiasedness_monte_carlo(self):
        # M = N draws with replacement (duplicates allowed): E[L(w)] = L
        rng = np.random.default_rng(24)
        p = build_problem(rng.normal(size=(5, 3)))
        reps = 100_000
        picks = np.random.default_rng(8).integers(0, 5, size=(reps, 5))
        sums = rows(p)[picks].sum(axis=1)      # weight N/M = 1 per draw
        mean = sums.mean(axis=0)
        assert np.linalg.norm(mean - p.target) <= 0.01 * p.target_norm


class TestSweep:
    @pytest.mark.parametrize("method", ["IS", "RND"])
    def test_sweep_prefix_consistency(self, rng, method):
        p = random_problem(rng, max_n=30, max_dim=5)
        if p.n == 0:
            return
        grid = [2, 5, 9]
        sweep = sampling_sweep(p, grid, seed=11, method=method)
        for m in grid:
            w = sample(method, p, m, seed=11)
            np.testing.assert_array_equal(sweep[m].indices, w.indices)
            np.testing.assert_allclose(sweep[m].values, w.values)

    @pytest.mark.parametrize("method", ["IS", "RND"])
    def test_weights_are_those_of_the_dense_counts(self, rng, method):
        # the sweep weighs only the drawn rows; the dense form weighs every row
        for _ in range(20):
            p = random_problem(rng, max_n=40, max_dim=5)
            grid, seed = [1, 2, 7, 30, 100], int(rng.integers(2 ** 32))
            draws_rng = np.random.default_rng(seed)
            if method == "IS":
                draws = draws_rng.choice(p.n, size=grid[-1], p=p.norms / p.sigma_total)
                per_draw = p.sigma_total / p.norms
            else:
                draws = draws_rng.integers(0, p.n, size=grid[-1])
                per_draw = np.full(p.n, float(p.n))
            for m, w in sampling_sweep(p, grid, seed, method).items():
                dense = WeightVector.from_dense(np.bincount(draws[:m], minlength=p.n)
                                                * per_draw / m)
                assert w.indices.tobytes() == dense.indices.tobytes()
                assert w.values.tobytes() == dense.values.tobytes()

    @pytest.mark.parametrize("method", ["IS", "RND"])
    def test_grid_budgets_are_integral_and_at_least_one(self, method):
        # a truncated budget would be filed under a key the caller never asked for
        p = build_problem([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        for grid in ([2.7, 5], [np.float64(1.5)], [0, 3], []):
            with pytest.raises(ValueError, match="grid budgets must be >= 1 and integral"):
                sampling_sweep(p, grid, 0, method)
        assert list(sampling_sweep(p, np.array([5, 2]), 0, method)) == [2, 5]

    def test_unknown_method_rejected(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        for method in ("FW", "is", "giga"):
            with pytest.raises(ValueError, match="supports IS and RND only"):
                sampling_sweep(p, [1], 0, method)


def every_method(p):
    """(indices, values, rel_error) of GIGA, FW, IS and RND at budgets 1, 2, 5."""
    def entry(w):
        return tuple(w.indices.tolist()), tuple(w.values.tolist()), relative_error(p, w)

    out = {}
    for name, construct in (("giga", giga_run), ("fw", fw_coreset)):
        w, run = construct(p, 5, checkpoints=[1, 2])
        out.update({(name, m): entry(s) for m, s in run.snapshots.items()})
        out[name, 5] = entry(w)
    for method in ("IS", "RND"):
        for m, w in sampling_sweep(p, [1, 2, 5], 0, method).items():
            out[method.lower(), m] = entry(w)
    return out


class TestDegenerateInputs:
    """Inputs with nothing to approximate, pinned for every method."""

    EMPTY = ((), (), 0.0)

    def test_all_zero_input(self):
        # every row is dropped, so n = 0 and each method returns no weights
        p = build_problem(np.zeros((3, 2)))
        assert (p.n, p.trivial) == (0, True)
        assert every_method(p) == {(alg, m): self.EMPTY for alg in ("giga", "fw", "is", "rnd")
                                   for m in (1, 2, 5)}

    def test_cancelling_input(self):
        # L = 0: GIGA and FW take no step; a sample is exact only when it cancels
        p = build_problem([(1.0, 2.0), (-1.0, -2.0)])
        assert (p.n, p.trivial) == (2, True)
        inf = float("inf")
        assert every_method(p) == {
            **{(alg, m): self.EMPTY for alg in ("giga", "fw") for m in (1, 2, 5)},
            ("is", 1): ((1,), (2.0,), inf),
            ("is", 2): ((0, 1), (1.0, 1.0), 0.0),
            ("is", 5): ((0, 1), (1.2, 0.8), inf),
            ("rnd", 1): ((1,), (2.0,), inf),
            ("rnd", 2): ((1,), (2.0,), inf),
            ("rnd", 5): ((0, 1), (0.8, 1.2), inf),
        }
