"""Greedy scans from carried projections and cached Gram columns.

GIGA and FW pick each point from projections U @ x of their iterate that a
``hilbert.Projections`` carrier moves with cached columns U @ ell_n instead
of recomputing them. These tests check the picks against reference loops
that recompute every product from scratch, that the column cache stays
within its cap, and that applying a move computes a missing column whenever
the cache has room, also in a step that recomputed the projections. GIGA
scores in the carrier's buffers: its scores and picks are checked bit for
bit against the allocating expression they replace, on both sides of the
bound below which a row is masked and with winners above 1, and a step
without a product against an allocation budget. The carrier applies each
move at the next scan: it is checked against a carrier that applies moves at
once, a one-step run is checked to take no product, and a run of M steps,
whose last move is never applied, is checked as the start of a longer one.
"""

import copy
import dataclasses
import types

import numpy as np
import pytest

from corebench import baselines, giga
from corebench.hilbert import (
    RENORM_INTERVAL,
    ZERO_TOL_COEFF,
    Projections,
    Stop,
    build_problem,
    relative_error,
    zero_tol,
)

from conftest import random_problem, rows, traced_peak

MARGIN = 1e-9
STEPS = 3 * RENORM_INTERVAL
# GIGA's scores divide by the residual norm r, so they carry rounding of a few
# eps / r (at most 3.3 eps / r measured on these problems); near the float
# floor that exceeds MARGIN, and the picks there are set by rounding. The
# wider margin applies only below zero_tol(d), where GIGA used to stop, so
# every pick above it is compared at MARGIN.
SCORE_ROUNDING = 8 * np.finfo(np.float64).eps


def tall_problem(rng):
    """A random problem with more rows than dimensions, so that a long run
    picks more distinct rows than the column cache can hold."""
    d = int(rng.integers(4, 25))
    n = int(rng.integers(4 * d, 12 * d))
    rows = rng.normal(size=(n, d)) * np.exp(0.5 * rng.normal(size=(n, 1)))
    return build_problem(rows)


def top_two_margin(values):
    top = np.partition(values, -2)[-2:]
    return float(top[1] - top[0])


def reference_giga_picks(problem, M):
    """GIGA picks scored by cap_objective from fresh products at every step.

    The state's projections are never read, so update() moves the iterate
    exactly as in a cached run; the list ends where the run stops (the residual
    norm r at ``problem.floor``), or before the first step whose top-two
    margin is at most MARGIN, or, once r is at most zero_tol(d), at most
    the scores' rounding SCORE_ROUNDING / r.
    """
    state = giga.GigaState(t=0, weights=np.zeros(problem.n),
                           ell_w=np.zeros(problem.dimension), alignment=0.0, J=1.0,
                           scan=Projections(problem))
    picks = []
    for _ in range(M):
        resid = problem.unit_target - state.alignment * state.ell_w
        resid_norm = float(np.linalg.norm(resid))
        if resid_norm <= problem.floor:
            break
        scores = giga.cap_objective(problem.unit_vectors, resid / resid_norm, state.ell_w)
        n_t = int(np.argmax(scores))
        if resid_norm > giga.zero_tol(problem.dimension):
            margin = MARGIN
        else:
            margin = max(MARGIN, SCORE_ROUNDING / resid_norm)
        if top_two_margin(scores) <= margin or scores[n_t] <= 0.0:
            break
        try:
            gamma = giga.step_size(problem, state, n_t)
        except Stop:
            break
        giga.update(problem, state, n_t, gamma)
        picks.append(n_t)
    return picks


def reference_fw_picks(problem, M):
    """FW picks argmax((V @ (L - Lw)) * scale) with a fresh product per step,
    ending before the first step whose top-two margin, relative to
    sigma * ||L||, is MARGIN or less."""
    V, L, sigma = rows(problem), problem.target, problem.sigma_total
    scale = sigma / problem.norms
    n0 = int(np.argmax(problem.unit_vectors @ problem.unit_target))
    Lw = scale[n0] * V[n0]
    picks = [n0]
    for _ in range(1, M):
        resid = L - Lw
        values = (V @ resid) * scale
        n_t = int(np.argmax(values))
        if top_two_margin(values) <= MARGIN * sigma * problem.target_norm:
            break
        vertex = scale[n_t] * V[n_t]
        direction = vertex - Lw
        denom = float(direction @ direction)
        if denom <= (1e-12 * sigma) ** 2:
            break
        gamma = min(max(float(direction @ resid) / denom, 0.0), 1.0)
        Lw = (1.0 - gamma) * Lw + gamma * vertex
        picks.append(n_t)
    return picks


class CountingMatrix:
    """A problem's unit vectors U that count the N x d products taken with them."""

    def __init__(self, unit_vectors):
        self.rows = unit_vectors
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.rows @ x

    def __getitem__(self, n):
        return self.rows[n]


def counted(problem):
    """A copy of the problem whose unit vectors count their N x d products."""
    problem = copy.copy(problem)
    problem.unit_vectors = CountingMatrix(problem.unit_vectors)
    return problem


class RecordingProjections(Projections):
    """Projections that record the largest number of cached columns, as
    seen by each scan. ``instances`` lists every carrier made."""

    instances: list = []

    def __init__(self, problem):
        super().__init__(problem)
        self.peak = 0
        self.instances.append(self)

    def of(self, x):
        values = super().of(x)
        self.peak = max(self.peak, len(self))
        return values


@pytest.fixture
def carriers(monkeypatch):
    RecordingProjections.instances = []
    monkeypatch.setattr(giga, "Projections", RecordingProjections)
    monkeypatch.setattr(baselines, "Projections", RecordingProjections)
    return RecordingProjections.instances


def test_giga_picks_match_fresh_product_scan(rng, carriers):
    compared = full = 0
    for _ in range(24):
        p = tall_problem(rng)
        _, diag = giga.run(p, STEPS)
        assert carriers[-1].peak <= p.dimension
        full += carriers[-1].peak == p.dimension
        ref = reference_giga_picks(p, STEPS)
        assert diag.selected[:len(ref)] == ref
        compared += len(ref)
    assert compared >= 24 * 20
    assert full >= 12        # most runs fill the cache and go on without it


def test_fw_picks_match_fresh_product_scan(rng, carriers):
    compared = full = 0
    for _ in range(24):
        p = tall_problem(rng)
        _, diag = baselines.fw_coreset(p, STEPS)
        assert carriers[-1].peak <= p.dimension
        full += carriers[-1].peak == p.dimension
        ref = reference_fw_picks(p, STEPS)
        assert diag.selected[:len(ref)] == ref
        compared += len(ref)
    assert compared >= 24 * 20
    assert full >= 12


def test_cache_holds_at_most_dimension_columns():
    p = counted(build_problem(np.random.default_rng(0).normal(size=(40, 3))))
    U = p.unit_vectors
    scan = Projections(p)
    for n in range(p.n):
        scan.move(n, 0.0, 1.0)                     # x <- ell_n, applied by of
        np.testing.assert_array_equal(scan.of(U[n]), U.rows @ U[n])
        # one product: the column while there is room, past the cap the recompute
        assert len(scan) == min(n + 1, p.dimension)
        assert U.products == 1
        U.products = 0
    scan.move(1, 0.0, 1.0)                         # cached rows stay available
    scan.of(U[1])
    assert U.products == 0 and len(scan) == p.dimension


def test_carrier_resyncs_itself_every_renorm_interval_moves():
    # every column is cached by the first p.n moves, so any other product in
    # `of` is a resync, and nothing but the move count asks for one
    p = counted(build_problem(np.random.default_rng(2).normal(size=(6, 8))))
    U = p.unit_vectors
    scan = Projections(p)
    x = np.zeros(p.dimension)
    scan.of(x)                                     # values start dropped
    for move in range(1, 3 * RENORM_INTERVAL + 1):
        n = move % p.n
        scan.move(n, 0.9, 0.1)
        x = 0.9 * x + 0.1 * U[n]
        U.products = 0
        np.testing.assert_allclose(scan.of(x), U.rows @ x, rtol=0, atol=1e-14)
        assert U.products == (move <= p.n) + (move % RENORM_INTERVAL == 0), move
    assert len(scan) == p.n


def test_step_with_a_projection_also_computes_its_column():
    p = counted(build_problem(np.random.default_rng(1).normal(size=(20, 5))))
    U = p.unit_vectors
    scan = Projections(p)
    x = U[3]
    np.testing.assert_array_equal(scan.of(x), U.rows @ x)
    scan.move(0, 0.5, 0.5)                         # the cache has room
    x = 0.5 * x + 0.5 * U[0]
    np.testing.assert_allclose(scan.of(x), U.rows @ x, rtol=0, atol=1e-14)
    assert len(scan) == 1 and U.products == 2      # the column, not a recompute


class EagerProjections:
    """A reference carrier that applies each move at once, by
    ``values *= a; values += col * b``, with the drop rules of
    ``Projections``: a missing column, every RENORM_INTERVAL-th move, and
    moves with no ``of`` between. Its values start at those of x = 0, so a
    move with a = 0 always has values to scale to 0."""

    def __init__(self, problem):
        self.unit = problem.unit_vectors
        self.capacity = problem.dimension
        self.columns = {}
        self.values = np.zeros(problem.n)
        self.moves = 0
        self.read = True

    def of(self, x):
        self.read = True
        if self.values is None:
            self.values = self.unit @ x
        return self.values

    def move(self, n, a, b):
        if n not in self.columns and len(self.columns) < self.capacity:
            self.columns[n] = self.unit @ self.unit[n]
        self.moves += 1
        if n not in self.columns or self.moves % RENORM_INTERVAL == 0 or not self.read:
            self.values = None
        else:           # values dropped before are recomputed by the of that read them
            self.values *= a
            self.values += self.columns[n] * b
        self.read = False


def test_deferred_moves_match_an_eager_carrier(rng):
    cases = {"a = 0 mid-run": 0, "recomputed": 0, "carried": 0, "unread move": 0}
    for _ in range(12):
        p = tall_problem(rng)
        deferred_p, eager_p = counted(p), counted(p)
        deferred, eager = Projections(deferred_p), EagerProjections(eager_p)
        x = np.zeros(p.dimension)
        read = True
        for move in range(1, 2 * RENORM_INTERVAL + 40):
            # a few rows often, and more distinct rows than the cache holds
            n = int(rng.integers(3) if rng.random() < 0.5 else rng.integers(p.n))
            a = 0.0 if move == 1 or rng.random() < 0.05 else float(rng.uniform(0.5, 1.0))
            b = float(rng.uniform(-1.0, 1.0))
            cases["a = 0 mid-run"] += a == 0 and move > 1
            cases["unread move"] += not read
            deferred.move(n, a, b)
            eager.move(n, a, b)
            x = a * x + b * p.unit_vectors[n]
            read = rng.random() < 0.85
            if read:
                cases["recomputed" if eager.values is None else "carried"] += 1
                np.testing.assert_array_equal(deferred.of(x), eager.of(x))   # -0.0 == 0.0
                assert deferred_p.unit_vectors.products == eager_p.unit_vectors.products
        assert len(deferred) == len(eager.columns) == p.dimension
    assert min(cases.values()) >= 10, cases


@pytest.mark.parametrize("construct", [giga.run, baselines.fw_coreset], ids=["giga", "fw"])
def test_one_step_run_takes_no_product(rng, carriers, construct):
    # no scan follows the one step, so its move is never applied
    for _ in range(10):
        p = counted(tall_problem(rng))
        _, diag = construct(p, 1)
        assert len(diag.traces) == 1
        assert p.unit_vectors.products == 0 and len(carriers[-1]) == 0


def test_hand_built_state_away_from_zero_recomputes_projections():
    p = build_problem(np.random.default_rng(4).normal(size=(30, 4)))
    state = giga.initial_state(p)
    for _ in range(5):
        n_t, _ = giga.select(p, state)
        giga.update(p, state, n_t, giga.step_size(p, state, n_t))
    hand = dataclasses.replace(state, scan=Projections(p))
    assert giga.select(p, hand)[0] == giga.select(p, state)[0]
    np.testing.assert_allclose(hand.scan.of(hand.ell_w), p.unit_vectors @ state.ell_w,
                               rtol=0, atol=1e-14)


def test_cost_keeps_digits_below_float_resolution_of_alignment():
    p = build_problem(np.random.default_rng(3).normal(size=(2000, 50)))
    M = 220
    _, diag = giga.run(p, M, checkpoints=range(1, M + 1))
    residuals = [s.residual for s in diag.traces]
    checked = 0
    for m in range(1, len(residuals) + 1):
        err = relative_error(p, diag.snapshots[m])
        if err > 1e-11:
            assert residuals[m - 1] == pytest.approx(err, rel=1e-3)
            checked += 1
    assert checked >= 150
    # errors below 1e-8 are where 1 - alignment^2 had no digits left
    assert min(residuals[:checked]) < 1e-8


def reference_objective(num, zv, dim):
    """GIGA's selection objective as an allocating expression: the
    in-place ``giga.cap_objective`` must give its bits."""
    den2 = np.maximum(1.0 - zv ** 2, 0.0)
    ok = den2 > zero_tol(dim) ** 2
    scores = np.where(ok, num / np.sqrt(np.where(ok, den2, 1.0)), 0.0)
    return np.clip(scores, -1.0, 1.0)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_zero_tol_is_the_numpy_square_root():
    for dim in range(1, 5000):
        assert zero_tol(dim) == ZERO_TOL_COEFF * np.sqrt(dim)


def test_objective_is_bit_equal_to_the_allocating_expression(rng):
    dim = 50
    tol = zero_tol(dim)
    one_below, one_above = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    edge = np.sqrt(1.0 - tol ** 2)             # where 1 - zv^2 meets tol^2
    zv = np.array([1.0, -1.0, 1.0 - 1e-17, -(1.0 - 1e-17), one_below, -one_below,
                   one_above, -one_above, 0.0, -0.0,
                   *np.nextafter(edge, np.array([0.0, 2.0])),
                   *(edge + np.arange(-4, 5) * np.spacing(edge))])
    num = rng.normal(size=zv.size)
    # cancelled scores above 1 that tie once clamped, below -1, and at +-1 exactly
    tied_zv = rng.uniform(-0.9, 0.9, size=6)
    tied_den = np.sqrt(1.0 - tied_zv ** 2)
    tied_num = tied_den * np.array([1.0 + 1e-15, 1.0 + 4e-16, 1.0, -1.0 - 1e-15, -1.0, 3.0])
    zv = np.concatenate([zv, tied_zv, rng.uniform(-1.0, 1.0, size=2000)])
    num = np.concatenate([num, tied_num, rng.normal(size=2000)])
    num[::7] *= -1.0
    expected = reference_objective(num, zv, dim)
    assert (expected == 1.0).sum() >= 3 and (expected == -1.0).sum() >= 2
    assert (expected == 0.0).sum() >= 10
    # rows (num, zv, 0, ...) against the first two axes: the products are num and zv
    rows = np.zeros((zv.size, dim))
    rows[:, 0], rows[:, 1] = num, zv
    axes = np.eye(dim)
    assert np.array_equal(rows @ axes[0], num) and np.array_equal(rows @ axes[1], zv)
    np.testing.assert_array_equal(bits(giga.cap_objective(rows, axes[0], axes[1])),
                                  bits(expected))
    np.testing.assert_array_equal(bits(giga.cap_objective(np.eye(3), zv[:3], zv[3:6])),
                                  bits(reference_objective(zv[:3], zv[3:6], 3)))


def reference_select(problem, state, proj):
    """GIGA's pick and score from the projections ``proj`` by the allocating
    expression, or None where ``select`` stops."""
    resid_norm = np.sqrt(state.J)
    num = (problem.unit_scores - state.alignment * proj) / resid_norm
    scores = reference_objective(num, proj, problem.dimension)
    n_t = int(np.argmax(scores))
    if resid_norm <= problem.floor or scores[n_t] <= 0.0:
        return None
    return n_t, scores[n_t]


def select_or_stop(problem, state):
    try:
        return giga.select(problem, state)
    except Stop:
        return None


def test_giga_select_is_bit_equal_to_the_allocating_scan(rng):
    steps = ties = 0
    for _ in range(24):
        p = tall_problem(rng)
        state = giga.initial_state(p)
        while True:
            expected = reference_select(p, state, state.scan.of(state.ell_w).copy())
            assert select_or_stop(p, state) == expected       # floats: bit-equal
            # a residual norm 1e3 times too small lifts many scores above 1,
            # where the clamp ties them at 1 and the lowest index wins
            shrunk = dataclasses.replace(state, J=state.J * 1e-6,
                                         scan=Projections(p))
            shrunk_expected = reference_select(p, shrunk, p.unit_vectors @ state.ell_w)
            assert select_or_stop(p, shrunk) == shrunk_expected
            ties += shrunk_expected is not None and shrunk_expected[1] == 1.0
            if expected is None:
                break
            n_t = expected[0]
            giga.update(p, state, n_t, giga.step_size(p, state, n_t))
            steps += 1
    assert steps >= 24 * 20 and ties >= steps // 2


class Carried:
    """A carrier that hands ``select`` the projections ``values``."""

    def __init__(self, values):
        self.values = values
        self.buffers = (np.empty_like(values), np.empty_like(values))

    def of(self, x):
        return self.values


def scan_path(problem, state, proj):
    """Whether ``select`` scores ``proj`` with no mask, and whether its
    unclamped winner exceeds 1."""
    den = 1.0 - proj * proj
    with np.errstate(invalid="ignore", divide="ignore"):
        num = (problem.unit_scores - state.alignment * proj) / np.sqrt(state.J)
        raw = np.where(den > zero_tol(problem.dimension) ** 2, num / np.sqrt(den), 0.0)
    return bool(den.min() > zero_tol(problem.dimension) ** 2), bool(raw.max() > 1.0)


def boundary_states(rng):
    """(problem, state) pairs on each side of the bound at which ``select``
    masks a row, with winners above 1 and not."""
    p = tall_problem(rng)
    U = p.unit_vectors
    # rows equal to ell(w): the second step of a run, where ell(w) is the
    # first pick, and that row's projection carried as exactly +-1
    state = giga.initial_state(p)
    n_t, _ = giga.select(p, state)
    giga.update(p, state, n_t, giga.step_size(p, state, n_t))
    yield p, state
    for k, sign in [(n_t, 1.0), (3, -1.0)]:
        proj = U @ U[k]
        proj[k] = sign
        alignment = float(U[k] @ p.unit_target)
        resid = p.unit_target - alignment * U[k]
        for J in (float(resid @ resid), 1e-6 * float(resid @ resid)):
            yield p, giga.GigaState(t=1, weights=np.zeros(p.n), ell_w=U[k].copy(),
                                    alignment=alignment, J=J, scan=Carried(proj))
    # a winner above 1: a residual norm 1e3 times too small, mid-run
    for _ in range(5):
        n_t, _ = giga.select(p, state)
        giga.update(p, state, n_t, giga.step_size(p, state, n_t))
    yield p, dataclasses.replace(state, J=state.J * 1e-6, scan=Projections(p))
    # 1 - zv^2 at zero_tol(d)^2 and one ulp of zv on either side. select reads
    # only unit_scores, floor and dimension of its problem; for any real d,
    # tol^2 ~ 1e-24 d lies below the 2^-53 steps of 1 - zv^2 near |zv| = 1,
    # so a stand-in with this dimension puts tol^2 ~ 0.01 where they land on it
    dim = 101 * 10 ** 20
    tol2 = zero_tol(dim) ** 2
    edge = np.sqrt(1.0 - tol2)
    edge = next(z for z in edge + np.arange(-8, 9) * np.spacing(edge) if 1.0 - z * z == tol2)
    for zv in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)):
        assert (1.0 - zv * zv > tol2) == (zv < edge)      # only the first is unmasked
        for row_wins in (True, False):      # row 7, at the bound, would win or lose unmasked
            proj = rng.uniform(-0.5, 0.5, size=40)
            proj[7] = -zv if row_wins else zv
            stand_in = types.SimpleNamespace(unit_scores=rng.uniform(-0.2, 0.2, size=40),
                                             floor=0.0, dimension=dim)
            stand_in.unit_scores[7] = 0.99 if row_wins else -0.2
            for J in (1.0, 0.5):
                yield stand_in, giga.GigaState(t=3, weights=None, ell_w=None,
                                               alignment=0.4, J=J, scan=Carried(proj))


def test_select_is_bit_equal_on_both_sides_of_the_mask_bound(rng):
    seen = set()
    for problem, state in boundary_states(rng):
        proj = state.scan.of(state.ell_w).copy()
        expected = reference_select(problem, state, proj)
        assert select_or_stop(problem, state) == expected       # floats: bit-equal
        if expected is not None:
            seen.add(scan_path(problem, state, proj))
    # unmasked or masked, with an unclamped winner above 1 or not
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_move_is_bit_equal_to_scale_and_add():
    p = build_problem(np.random.default_rng(6).normal(size=(500, 8)))
    U = p.unit_vectors
    scan = Projections(p)
    x, values = np.zeros(p.dimension), np.zeros(p.n)
    for n, (a, b) in zip([3, 5, 3, 7, 5], [(0.0, 1.0), (0.6, 0.3), (0.9, 0.1),
                                           (0.7, 0.45), (1.1, -0.2)]):
        scan.move(n, a, b)                  # columns 3, 5 and 7 fit the cache
        x = a * x + b * U[n]
        values = values * a + (U @ U[n]) * b
        np.testing.assert_array_equal(bits(scan.of(x)), bits(values))


def product_free_step_peaks(p):
    """Traced allocation peaks of a GIGA run's steps that take no N x d
    product on the counted problem ``p``, each with whether its scan had
    no row within 1e-6 of parallel to ell(w), so that it needs no mask."""
    state = giga.initial_state(p)

    def step():
        n_t, _ = giga.select(p, state)
        giga.update(p, state, n_t, giga.step_size(p, state, n_t))

    peaks = []
    while True:
        p.unit_vectors.products = 0
        zv = p.unit_vectors.rows @ state.ell_w         # not counted
        unmasked = float((1.0 - zv * zv).min()) > 1e-6
        try:
            _, peak = traced_peak(step)
        except Stop:
            break
        if p.unit_vectors.products == 0:    # scored the carried values, took no column
            peaks.append((peak, unmasked))
    return peaks


def test_step_without_a_product_allocates_less_than_one_projection():
    p = counted(build_problem(np.random.default_rng(0).normal(size=(10_000, 50))))
    peaks = [peak for peak, _ in product_free_step_peaks(p)]
    assert len(peaks) >= 2
    assert max(peaks) < p.n * np.dtype(np.float64).itemsize


def test_unmasked_step_without_a_product_allocates_no_mask():
    # a mask over the N scores is N bytes; the masked scan takes two
    p = counted(build_problem(np.random.default_rng(0).normal(size=(10_000, 50))))
    peaks = [peak for peak, unmasked in product_free_step_peaks(p) if unmasked]
    assert len(peaks) >= 2
    assert max(peaks) < p.n


def step_bits(step):
    return (step.n_t, bits(step.gamma).tobytes(), bits(step.score).tobytes(),
            None if step.residual is None else bits(step.residual).tobytes())


def weight_bits(w):
    return w.indices.tobytes(), bits(w.values).tobytes()


@pytest.mark.parametrize("construct", [giga.run, baselines.fw_coreset], ids=["giga", "fw"])
def test_run_is_the_prefix_of_a_longer_run(rng, construct):
    # only a further scan applies a run's last move: a run of M steps is,
    # bit for bit, the start of a longer one
    stops = longest = 0
    for i in range(40):
        p = random_problem(rng, max_n=4 if i % 2 else 40, max_dim=3 if i % 2 else 8)
        for M in range(1, 6):
            short_final, short = construct(p, M, checkpoints=range(1, M + 1))
            for k in range(1, 4):
                _, long = construct(p, M + k, checkpoints=range(1, M + k + 1))
                assert ([step_bits(s) for s in short.traces]
                        == [step_bits(s) for s in long.traces[:M]])
                for m in range(1, M + 1):
                    assert weight_bits(short.snapshots[m]) == weight_bits(long.snapshots[m])
                if len(long.traces) < M:                # the longer run stopped within M
                    assert short.stop_reason == long.stop_reason is not None
                    stops += 1
            assert weight_bits(short_final) == weight_bits(short.snapshots[M])
            longest = max(longest, len(short.traces))
    assert stops >= 20 and longest == 5
