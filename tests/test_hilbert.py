import threading
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as nps

from corebench import hilbert
from corebench.baselines import fw_coreset, sampling_sweep
from corebench.giga import run as giga_run
from corebench.hilbert import (
    Step,
    Stop,
    WEIGHTED_SUM_BLOCK,
    WeightVector,
    build_problem,
    iterate,
    relative_error,
    weighted_sum,
)

from conftest import NOT_REAL, random_problem, traced_peak


class TestBuildProblem:
    def test_two_orthogonal(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_allclose(p.norms, [1.0, 1.0])
        assert p.sigma_total == 2.0
        np.testing.assert_allclose(p.target, [1.0, 1.0])
        assert p.target_norm == pytest.approx(np.sqrt(2.0))

    def test_zero_norm_row_dropped_with_remap(self):
        p = build_problem([(0.0, 0.0), (2.0, 0.0)])
        assert p.n == 1
        np.testing.assert_array_equal(p.kept_indices, [1])
        np.testing.assert_allclose(p.target, [2.0, 0.0])
        # problem row 0 is input row 1
        w = p.to_original(WeightVector(np.array([0]), np.array([3.0])))
        np.testing.assert_array_equal(w.indices, [1])
        np.testing.assert_array_equal(w.values, [3.0])

    def test_axis_problem_constants(self):
        # four axis vectors (1/4) e_n: sigma_n = 1/N, sigma = 1, ||L|| = 1/2
        p = build_problem(np.eye(4) / 4)
        np.testing.assert_allclose(p.norms, 0.25)
        assert p.sigma_total == pytest.approx(1.0)
        assert p.target_norm == pytest.approx(0.5)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty problem"):
            build_problem([])

    def test_vectors_of_length_zero_rejected(self):
        # no entries, however many rows: not a problem with n = 0 and dimension 0
        for vectors in (np.zeros((3, 0)), [[]], np.empty((0, 4))):
            with pytest.raises(ValueError, match="empty problem"):
                build_problem(vectors)

    def test_not_one_or_two_dimensional_rejected(self):
        for vectors in (5.0, np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match=r"1-D or 2-D array, not shape \("):
                build_problem(vectors)

    def test_complex_rejected(self):
        # a cast to float64 would keep only the real part
        for vectors in (np.array([[1 + 2j, 0.5]]), [[np.complex128(1.0), 0.5]],
                        np.array([1 + 2j]), [1 + 2j]):
            with pytest.raises(ValueError, match="complex entries"):
                build_problem(vectors)

    def test_strings_rejected(self):
        # a cast to float64 would parse them as numbers
        for vectors in ([["1", "2"]], np.array([[b"1", b"2"]]), [[1, "2"]]):
            with pytest.raises(ValueError, match="non-numeric entries"):
                build_problem(vectors)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="invalid vector"):
            build_problem([(1.0, np.nan)])
        with pytest.raises(ValueError, match="invalid vector"):
            build_problem([(np.inf, 0.0)])

    @pytest.mark.parametrize("bad_row, message", [
        ((1.0, np.nan), "invalid vector: non-finite entry"),
        ((np.inf, 0.0), "invalid vector: non-finite entry"),
        ((0.0, -np.inf), "invalid vector: non-finite entry"),
        ((1e200, 1e200), "vector norms overflow float64"),
    ], ids=["nan", "inf", "-inf", "row-norm-overflows"])
    @pytest.mark.parametrize("row", [0, 300], ids=["first-block", "second-block"])
    def test_bad_row_message(self, bad_row, message, row, rng):
        # the row norms decide; the entries are read only to tell the two causes apart
        vectors = rng.normal(size=(400, 2))
        vectors[row] = bad_row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                build_problem(vectors)

    def test_non_finite_entry_outranks_overflow(self):
        with pytest.raises(ValueError, match="^invalid vector: non-finite entry$"):
            build_problem([(1e200, 1e200), (np.nan, 0.0)])
        # finite row norms whose sum overflows
        with pytest.raises(ValueError, match="^vector norms overflow float64$"):
            build_problem([(1e308, 0.0), (1e308, 0.0)])

    def test_all_zero_rows_is_trivial(self):
        p = build_problem([(0.0, 0.0), (0.0, 0.0)])
        assert p.trivial
        assert p.n == 0

    def test_cancelling_rows_is_trivial(self):
        # rows count as zero relative to the largest row, at any scale
        for scale in (2.0 ** -60, 1.0, 2.0 ** 60):
            p = build_problem(np.array([(1.0, 0.0), (-1.0, 0.0)]) * scale)
            assert p.trivial
            assert p.n == 2
            assert relative_error(p, WeightVector.empty()) == 0.0
            assert relative_error(p, WeightVector(np.array([0]), np.array([1.0]))) == np.inf

    def test_norm_overflow_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                build_problem(np.full((3, 2), 1e160))

    @pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "zero-row-dropped"])
    def test_input_is_copied_not_aliased(self, drop, rng):
        rows = rng.normal(size=(6, 3))
        if drop:
            rows[2] = 0.0
        before = rows.copy()
        p = build_problem(rows)
        assert p.n == 6 - drop
        assert rows.flags.writeable
        assert rows.tobytes() == before.tobytes()
        assert not np.shares_memory(rows, p.unit_vectors)
        assert not np.shares_memory(rows, p.norms)

    def test_peak_memory_is_two_copies_of_the_input(self, rng):
        # the caller's rows and the one copy that becomes the unit vectors;
        # the traced peak counts the copy alone, with no N x d temporary
        rows = rng.normal(size=(10_000, 50))
        _, peak = traced_peak(lambda: build_problem(rows))
        assert peak <= 1.5 * rows.nbytes

    @pytest.mark.parametrize("shape", [(2000, 30), (30, 2000), (257, 257)])
    @pytest.mark.parametrize("drop", [False, True], ids=["all-kept", "zero-row-dropped"])
    def test_arrays_total_one_copy_of_the_input(self, shape, drop, rng):
        rows = rng.normal(size=shape)
        if drop:
            rows[::7] = 0.0
        p = build_problem(rows)
        n, d = p.n, p.dimension
        arrays = [a for a in vars(p).values() if isinstance(a, np.ndarray)]
        assert max(a.size for a in arrays) == n * d
        assert sum(a.nbytes for a in arrays) <= 8 * (n * d + 3 * n + 2 * d)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
    def test_blocked_norms_keep_their_bits(self, n, rng):
        rows = rng.normal(size=(n, 37)) * np.exp(3.0 * rng.normal(size=(n, 1)))
        p = build_problem(rows)
        assert p.n == n
        assert p.norms.tobytes() == np.linalg.norm(rows, axis=1).tobytes()

    def test_unit_rows_are_unit(self, rng):
        for _ in range(50):
            p = random_problem(rng)
            if p.n:
                np.testing.assert_allclose(
                    np.linalg.norm(p.unit_vectors, axis=1), 1.0, atol=1e-12)
            if not p.trivial:
                assert np.linalg.norm(p.unit_target) == pytest.approx(1.0, abs=1e-12)

    def test_floor_is_float_error_scale_of_relative_error(self, rng):
        p = build_problem(rng.normal(size=(50, 4)))
        assert p.floor == np.finfo(np.float64).eps * p.sigma_total / p.target_norm
        assert build_problem([(1.0, 0.0), (-1.0, 0.0)]).floor == 0.0
        assert build_problem([(0.0, 0.0)]).floor == 0.0

    def test_norm_sum_dominates_target_norm(self, rng):
        # triangle inequality over 1000 fuzzed instances
        for _ in range(1000):
            p = random_problem(rng, max_n=20, max_dim=6)
            assert p.sigma_total >= p.target_norm * (1 - 1e-12)

    def test_many_equal_rows_build(self):
        # summing 1e5 equal rows can round ||L|| above sigma by over 1e-12 relative
        p = build_problem(np.tile(np.random.default_rng(0).normal(size=3), (10**5, 1)))
        assert p.n == 10**5 and not p.trivial


class TestWeightedSum:
    def test_empty_weights(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        np.testing.assert_array_equal(weighted_sum(p, WeightVector.empty()), [0.0, 0.0])

    def test_two_points(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        w = WeightVector(np.array([0, 1]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(weighted_sum(p, w), [1.0, 1.0])

    def test_single_scaled(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        w = WeightVector(np.array([0]), np.array([2.0]))
        np.testing.assert_allclose(weighted_sum(p, w), [2.0, 0.0])

    def test_out_of_range_index(self):
        p = build_problem([(1.0, 0.0)])
        for index in (1, 5):
            w = WeightVector(np.array([0, index]), np.array([1.0, 1.0]))
            with pytest.raises(IndexError):
                weighted_sum(p, w)
            with pytest.raises(IndexError):
                relative_error(p, w)

    @staticmethod
    def one_product(p, w):
        return (w.values * p.norms[w.indices]) @ p.unit_vectors[w.indices]

    @staticmethod
    def support(rng, p, nnz):
        idx = np.sort(rng.choice(p.n, nnz, replace=False))
        return WeightVector(idx, rng.uniform(0.5, 2.0, nnz) * p.sigma_total / p.norms[idx] / nnz)

    @pytest.mark.parametrize("shape", [(2000, 501), (1500, 50), (40, 2)])
    def test_one_block_is_the_one_product(self, shape, rng):
        p = build_problem(rng.normal(size=shape))
        rows = WEIGHTED_SUM_BLOCK // p.dimension
        # the sum starts from zeros, and 0.0 + x is x for every x but -0.0
        for nnz in (1, 17, min(rows, p.n)):
            w = self.support(rng, p, nnz)
            assert weighted_sum(p, w).tobytes() == self.one_product(p, w).tobytes()

    @pytest.mark.parametrize("shape,nnz", [((2000, 501), 131), ((2000, 501), 1000),
                                           ((2000, 501), 2000), ((5, 70_000), 3)])
    def test_blocks_agree_with_the_one_product(self, shape, nnz, rng):
        # within the contract's rows_agree rule: 2 floors, or 4 ulp of the error
        p = build_problem(rng.normal(size=shape) + 0.1)
        w = self.support(rng, p, nnz)
        assert nnz * p.dimension > WEIGHTED_SUM_BLOCK
        blocked = relative_error(p, w)
        product = float(np.linalg.norm(self.one_product(p, w) - p.target)) / p.target_norm
        assert abs(blocked - product) <= max(2 * p.floor, 4 * np.spacing(product))

    @pytest.mark.parametrize("shape,nnz", [((40, 2), 1), ((40, 2), 40), ((1500, 50), 1311),
                                           ((2000, 501), 131), ((2000, 501), 1000),
                                           ((5, 70_000), 3)])
    def test_bits_of_the_blocked_reference(self, shape, nnz, rng):
        # supports inside one block and across several, against a plain block loop
        p = build_problem(rng.normal(size=shape) + 0.1)
        w = self.support(rng, p, nnz)
        rows = max(WEIGHTED_SUM_BLOCK // p.dimension, 1)
        reference = np.zeros(p.dimension)
        for start in range(0, nnz, rows):
            part = WeightVector(w.indices[start:start + rows], w.values[start:start + rows])
            reference += self.one_product(p, part)
        assert weighted_sum(p, w).tobytes() == reference.tobytes()
        error = float(np.linalg.norm(reference - p.target)) / p.target_norm
        assert relative_error(p, w) == error

    @pytest.mark.parametrize("second", [-0.0, -1e-300], ids=["-0.0", "underflows"])
    def test_negative_zero_reads_zero(self, second):
        p = build_problem([(1.0, second), (2.0, second)])
        w = WeightVector(np.array([0, 1]), np.array([1e-300, 0.5e-300]))
        total = weighted_sum(p, w)
        assert total[1] == 0.0 and not np.signbit(total[1])

    def test_peak_memory_is_one_block(self, rng):
        # gathering all 1000 rows at once would take 3.9 MB
        p = build_problem(rng.normal(size=(2000, 501)))
        w = self.support(rng, p, 1000)
        _, peak = traced_peak(lambda: weighted_sum(p, w))
        assert peak <= 2 ** 20

    @given(
        a=st.floats(0.0, 100.0),
        b=st.floats(0.0, 100.0),
        wa=nps.arrays(np.float64, 4, elements=st.floats(0.0, 1e3)),
        wb=nps.arrays(np.float64, 4, elements=st.floats(0.0, 1e3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_linearity(self, a, b, wa, wb):
        p = build_problem(np.arange(8.0).reshape(4, 2) + 1.0)
        combo = WeightVector.from_dense(a * wa + b * wb)
        lhs = weighted_sum(p, combo)
        rhs = a * weighted_sum(p, WeightVector.from_dense(wa)) \
            + b * weighted_sum(p, WeightVector.from_dense(wb))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestIterate:
    """Bookkeeping of the construction loop that GIGA and FW share."""

    def test_stop_ends_run_and_later_checkpoints_get_final(self):
        done = []

        def step(t):
            if t == 3:
                raise Stop("halted")
            done.append(t)
            return -t

        final, run = iterate(step, lambda: len(done), 6, checkpoints=[1, 2, 5])
        assert (final, run.stop_reason, len(run.times)) == (2, "halted", 2)
        assert run.traces == [-1, -2]
        assert run.snapshots == {1: 1, 2: 2, 5: 2}
        assert run.times == sorted(run.times)

    def test_full_budget_has_no_stop_reason(self):
        final, run = iterate(lambda t: Step(t, 1.0, 0.5), lambda: "w", 4)
        assert (final, run.snapshots, len(run.times), run.stop_reason) == ("w", {}, 4, None)
        assert run.selected == [1, 2, 3, 4]

    def test_budget_must_be_positive(self):
        for M in (0, 2.5, np.float64(2.5)):
            with pytest.raises(ValueError, match="M must be >= 1"):
                iterate(lambda t: None, lambda: "w", M)

    @pytest.mark.parametrize("construct", [giga_run, fw_coreset], ids=["giga", "fw"])
    def test_budget_is_integral(self, construct):
        # an integral float runs as its int, like a checkpoint; a fractional one raises
        p = build_problem(np.random.default_rng(7).normal(size=(20, 10)))
        w, run = construct(p, 3.0)
        assert (len(run.times), run.stop_reason) == (3, None)
        w_int, run_int = construct(p, 3)
        assert run.selected == run_int.selected
        np.testing.assert_array_equal(w.values, w_int.values)
        with pytest.raises(ValueError, match="M must be >= 1 and integral"):
            construct(p, 2.5)

    @pytest.mark.parametrize("construct", [giga_run, fw_coreset], ids=["giga", "fw"])
    def test_checkpoints_below_one_rejected(self, construct):
        # they would otherwise be labelled with the weights of the full run
        p = build_problem([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
        for checkpoints in ([0, -3], [0], [2, 0], [2.5, 3], [np.float64(1.5)]):
            with pytest.raises(ValueError, match="checkpoints must be >= 1"):
                construct(p, 5, checkpoints=checkpoints)

    def test_times_leave_out_helper_threads(self):
        # a BLAS call's helper threads spin while the calling thread waits;
        # their CPU time is not the construction's
        def spin():
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass

        def step(t):
            helper = threading.Thread(target=spin)
            helper.start()
            helper.join()

        _, run = iterate(step, lambda: "w", 1)
        assert run.times[0] < 0.05

    def test_times_leave_out_snapshots(self):
        # a checkpoint's weights are output, not construction: the clock
        # stops while they are taken, so no budget's time counts the
        # snapshots of earlier ones
        def burn():
            end = time.thread_time() + 0.02
            while time.thread_time() < end:
                pass
            return "w"

        _, run = iterate(lambda t: Step(t, 1.0, 0.5), burn, 2, checkpoints=[1])
        assert run.snapshots == {1: "w"}
        assert run.times[1] - run.times[0] < 0.005

    def test_clock_is_read_twice_a_step_with_every_step_a_checkpoint(self, monkeypatch):
        # a stand-in clock that each step advances by 1 and each snapshot by
        # 100: the times count the steps alone, and no read follows the last
        clock = {"now": 0.0, "reads": 0}

        def thread_time():
            clock["reads"] += 1
            return clock["now"]

        def advance(by, result):
            clock["now"] += by
            return result

        monkeypatch.setattr(hilbert, "time", types.SimpleNamespace(thread_time=thread_time))
        for M in range(1, 6):
            clock["reads"] = 0
            _, run = iterate(lambda t: advance(1.0, Step(t, 1.0, 0.5)),
                             lambda: advance(100.0, "w"), M, checkpoints=range(1, M + 1))
            assert clock["reads"] == 2 * M
            assert run.times == [float(t) for t in range(1, M + 1)]

    @pytest.mark.parametrize("construct", [giga_run, fw_coreset], ids=["giga", "fw"])
    def test_trivial_problem_takes_no_step(self, construct):
        p = build_problem([(1.0, 0.0), (-1.0, 0.0)])
        w, diag = construct(p, 3, checkpoints=[1, 3])
        assert (w.nnz, diag.stop_reason, diag.times) == (0, "trivial", [])
        assert {m: s.nnz for m, s in diag.snapshots.items()} == {1: 0, 3: 0}

    @pytest.mark.parametrize("construct, reason", [(giga_run, "converged"),
                                                   (fw_coreset, "float floor")],
                             ids=["giga", "fw"])
    def test_snapshots_backfilled_past_early_stop(self, construct, reason):
        # one vector: GIGA converges and FW, on L up to rounding, stops at the
        # float floor after step 1
        p = build_problem([(3.0, 4.0)])
        _, diag = construct(p, 5, checkpoints=[1, 3, 5])
        assert diag.stop_reason == reason
        assert len(diag.times) == 1
        for m in (1, 3, 5):
            np.testing.assert_array_equal(diag.snapshots[m].indices, [0])
            np.testing.assert_allclose(diag.snapshots[m].values, [1.0])


class TestWeightVector:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightVector(np.array([1, 1]), np.array([1.0, 2.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            WeightVector(np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError, match="finite"):
            WeightVector.from_dense(np.array([1.0, np.inf]))
        with pytest.raises(ValueError, match="finite"):
            WeightVector.from_dense(np.array([np.nan, 1.0]))

    def test_rejects_unequal_or_not_one_dimensional(self):
        for indices, values in (([0, 1], [1.0]), ([[0, 1]], [[1.0, 2.0]])):
            with pytest.raises(ValueError, match="equal-length 1-D arrays"):
                WeightVector(np.array(indices), np.array(values))

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative index"):
            WeightVector(np.array([0, -1]), np.array([1.0, 2.0]))

    @NOT_REAL
    def test_rejects_string_and_complex_values(self, values, message):
        with pytest.raises(ValueError, match=f"^invalid weight: {message}$"):
            WeightVector(np.array([0]), values)

    @NOT_REAL
    def test_from_dense_rejects_string_and_complex_values(self, values, message):
        with pytest.raises(ValueError, match=f"^invalid weight: {message}$"):
            WeightVector.from_dense(values)

    @pytest.mark.parametrize("indices", [[1.7, 0.2], [1.0, 0.0], [True, False]],
                             ids=["fractional", "integral float", "bool"])
    def test_rejects_non_integer_indices(self, indices):
        with pytest.raises(ValueError, match="indices must be integers"):
            WeightVector(np.array(indices), np.array([1.0, 2.0]))

    def test_accepts_integer_and_empty_indices(self):
        for dtype in (np.int32, np.uint8, np.int64):
            w = WeightVector(np.array([2, 0], dtype=dtype), [1.0, 2.0])
            assert w.indices.dtype == np.int64
            np.testing.assert_array_equal(w.indices, [2, 0])
            np.testing.assert_array_equal(w.values, [1.0, 2.0])
        assert WeightVector([], []).nnz == 0

    def test_from_dense_drops_zeros(self):
        w = WeightVector.from_dense(np.array([0.0, 2.0, 0.0, 1.0]))
        np.testing.assert_array_equal(w.indices, [1, 3])
        assert w.nnz == 2
        np.testing.assert_array_equal(w.values, [2.0, 1.0])


class TestErrorHelpers:
    def test_relative_error_exact_cover(self):
        p = build_problem([(1.0, 0.0), (0.0, 1.0)])
        w = WeightVector(np.array([0, 1]), np.array([1.0, 1.0]))
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-15)

    def test_original_indexing_skips_dropped_rows(self):
        p = build_problem([(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)])
        w = WeightVector(np.array([0, 1]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(weighted_sum(p, w), [2.0, 3.0])
        assert relative_error(p, w) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(p.to_original(w).indices, [1, 2])


def _with_snapshots(final, diag):
    return [final, *diag.snapshots.values()]


_CONSTRUCTIONS = {
    "giga": lambda p: _with_snapshots(*giga_run(p, 40, checkpoints=[1, 5, 40])),
    "fw": lambda p: _with_snapshots(*fw_coreset(p, 40, checkpoints=[1, 5, 40])),
    "is": lambda p: [sampling_sweep(p, [30], 0, "IS")[30]],
    "rnd": lambda p: [sampling_sweep(p, [30], 0, "RND")[30]],
    "sampling_sweep": lambda p: [w for method in ("IS", "RND")
                                 for w in sampling_sweep(p, [1, 5, 30], 0, method).values()],
}


class TestIndexSpace:
    """Every construction returns weights over the problem's rows, and
    ``to_original`` is the one map to input rows."""

    @pytest.mark.parametrize("construct", _CONSTRUCTIONS.values(), ids=_CONSTRUCTIONS.keys())
    def test_weights_index_problem_rows(self, construct):
        V = np.random.default_rng(4).normal(size=(12, 10))
        V[[2, 5, 6, 9]] = 0.0          # dropped rows between kept ones
        p = build_problem(V)
        assert p.n == 8
        for w in construct(p):
            assert w.nnz and np.all(w.indices < p.n)
            orig = p.to_original(w)
            dense = np.bincount(orig.indices, orig.values, minlength=V.shape[0])
            expected = np.linalg.norm(dense @ V - p.target) / p.target_norm
            assert relative_error(p, w) == pytest.approx(expected, rel=1e-12, abs=1e-14)
