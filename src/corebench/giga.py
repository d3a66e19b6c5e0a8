"""Greedy iterative geodesic ascent for sparse vector-sum approximation.

Works on the normalized problem: maximize <ell(w), ell> over unit-norm
nonnegative combinations ell(w) = sum_n w_n ell_n. Each iteration picks the
point whose geodesic from the current iterate is most aligned with the
geodesic toward ell, takes a closed-form line-search step, and renormalizes.
The output weights are rescaled so that alpha* L(w) optimally approximates
L = sum_n L_n:

    alpha* = (||L|| / ||L(w)||) * max{0, <ell(w), ell>}.

A run keeps one ``GigaState``. Each step is ``select`` (the pick and its
score), ``step_size`` (the line-search step) and ``update``, which advances
the state in place by O(1) vector operations; the steps pass plain values
and return a ``hilbert.Step``. w_t is kept as a dense array over the
problem's kept indexing and sparsified only on output. A step that cannot
improve the iterate raises ``hilbert.Stop``.

The selection scan needs <ell_n, d_t> and <ell_n, ell(w_t)> for every n.
Since d_t = (ell - <ell(w_t), ell> ell(w_t)) / ||.||, both follow from the
constant scores U @ ell (``problem.unit_scores``) and the projections
U @ ell(w_t), which the state's ``hilbert.Projections`` carrier holds from
step to step (and resyncs on its own cadence). It applies each ``update``'s
move at the next ``select``, so a run's last move is never computed.

Each row scores <ell_n, d_t> / sqrt(1 - <ell_n, ell(w_t)>^2), and rows with
1 - <ell_n, ell(w_t)>^2 at most zero_tol(d)^2 score 0 (``cap_objective``
states the score; ``select`` computes it in place). A step where every row
clears that bound (all but a few, such as a run's second step, where
ell(w_t) is one row) scores with no mask. Scores above 1 come only from
cancellation in that denominator, so ``select`` takes its argmax before
the clamp and clamps, and picks again, only when the winner exceeds 1: the
pick and score of the clamped scores, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    CoresetProblem,
    Projections,
    Run,
    Step,
    Stop,
    WeightVector,
    iterate,
    zero_tol,
)

# fixed, not the floor: the zetas are unit inner products, rounded at eps at any scale
STEP_DENOM_TOL = 1e-12     # line-search denominator guard
# fixed, not the floor: it only decides whether a clamped step warns
CLAMP_WARN_TOL = 1e-9      # gamma outside [0,1] beyond this is suspicious


def _quotients(num: np.ndarray, zv: np.ndarray, dim: int,
               out: np.ndarray | None) -> np.ndarray:
    """``cap_objective``'s scores without the clamp, from the products
    num = <ell_n, u> and zv = <ell_n, v>. A mask is made only when some row
    has 1 - zv^2 at most zero_tol(dim)^2."""
    den = np.multiply(zv, zv, out=out)
    np.subtract(1.0, den, out=den)
    # fixed, not the floor: 1 - zv^2 of unit vectors rounds at eps at any scale
    tol2 = zero_tol(dim) ** 2
    if den.size and den[den.argmin()] > tol2:     # argmin: a faster pass than min
        np.sqrt(den, out=den)
        return np.divide(num, den, out=den)
    ok = den > tol2
    with np.errstate(invalid="ignore", divide="ignore"):    # rows not ok are reset
        np.sqrt(den, out=den)
        scores = np.divide(num, den, out=den)
    scores[~ok] = 0.0
    return scores


def cap_objective(vectors: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Selection objective num / sqrt(1 - zv^2) of each row ell_n of
    ``vectors``, clamped to [-1, 1], where num = <ell_n, u> and
    zv = <ell_n, v> for the unit residual direction u and the unit
    iterate v, as a new array.

    Rows with 1 - zv^2 at most zero_tol(d)^2 (parallel to v, a vanishing
    tangent component) score 0 by the zero-vector convention; when no row
    is that close, the scores are computed with no mask. The clamp removes
    spurious > 1 values produced by cancellation in the 1 - <ell_n, v>^2
    denominator.
    """
    vectors = np.atleast_2d(vectors)
    scores = _quotients(vectors @ u, vectors @ v, vectors.shape[1], None)
    return np.clip(scores, -1.0, 1.0, out=scores)


@dataclass(eq=False)
class GigaState:
    """Iterate of a run after t steps: weights (normalized coordinates),
    cached unit iterate ell(w_t), its alignment <ell(w_t), ell>, the squared
    residual J_t = ||ell - alignment * ell(w_t)||^2 and the carrier of the
    projections U @ ell(w_t). ``update`` advances it in place."""

    t: int
    weights: np.ndarray
    ell_w: np.ndarray
    alignment: float
    J: float
    scan: Projections


def initial_state(problem: CoresetProblem) -> GigaState:
    """The run's state at w = 0, where the residual is ell itself."""
    return GigaState(t=0, weights=np.zeros(problem.n),
                     ell_w=np.zeros(problem.dimension), alignment=0.0,
                     J=float(problem.unit_target.dot(problem.unit_target)),
                     scan=Projections(problem))


def select(problem: CoresetProblem, state: GigaState) -> tuple[int, float]:
    """Pick the point whose geodesic direction best matches the residual;
    returns its row n_t and its score.

    Computes d_t = (ell - <ell, ell(w)> ell(w)) / ||.|| and maximizes
    <d_t, d_tn> over n, where d_tn is the analogous tangent toward ell_n
    (zero-vector convention for vanishing tangents). At t = 0 this reduces
    to argmax_n <ell_n, ell>. Raises Stop("converged") when the residual
    norm sqrt(J_t) falls to ``problem.floor`` or no candidate scores
    positive.

    The scan scores U @ d_t = (unit_scores - alignment * U @ ell(w)) / ||.||
    from the projections of ``state.scan``, in the carrier's two buffers,
    by the formula of ``cap_objective`` without its clamp: the
    scores are clamped, and the pick taken again, only when the winner
    exceeds 1. When every 1 - <ell_n, ell(w)>^2 is above zero_tol(d)^2,
    the scan takes no mask either and scores in nine N-length passes: three
    for the numerator, two for the denominator, an argmin for that bound,
    the square root, the quotient and the argmax. At t = 0, where w = 0
    (``initial_state``), the projections are 0, the numerator is
    unit_scores / sqrt(J_0) and the denominator 1, so the scan scores in
    two passes, that quotient and the argmax.
    """
    resid_norm = math.sqrt(state.J)
    if resid_norm <= problem.floor:
        raise Stop("converged")

    num, scores = state.scan.buffers
    if state.t == 0:        # w = 0: the scores below reduce to this quotient, bit for bit
        np.divide(problem.unit_scores, resid_norm, out=scores)
    else:
        proj = state.scan.of(state.ell_w)
        np.multiply(state.alignment, proj, out=num)
        np.subtract(problem.unit_scores, num, out=num)
        num /= resid_norm
        _quotients(num, proj, problem.dimension, scores)
    n_t = int(scores.argmax())          # ties break to the lowest index
    if scores[n_t] > 1.0:               # clamped, ties at 1 go to the lowest index
        np.minimum(scores, 1.0, out=scores)
        n_t = int(scores.argmax())
    score = float(scores[n_t])
    if score <= 0.0:
        raise Stop("converged")
    return n_t, score


def step_size(problem: CoresetProblem, state: GigaState, n_t: int) -> float:
    """Closed-form geodesic line search step toward row n_t, clamped to [0, 1].

    gamma = (z0 - z1 z2) / ((z0 - z1 z2) + (z1 - z0 z2)) with z0 = <ell_{n_t}, ell>,
    z1 = state.alignment and z2 = <ell_{n_t}, ell(w_t)>; the state is not
    changed. Feasibility of the unclamped optimum holds in exact arithmetic,
    so clamping beyond CLAMP_WARN_TOL triggers a numerical warning. A
    vanishing denominator (coincident points) raises Stop("degenerate step").
    """
    z0 = float(problem.unit_vectors[n_t].dot(problem.unit_target))
    z1 = state.alignment
    z2 = float(problem.unit_vectors[n_t].dot(state.ell_w))
    a = z0 - z1 * z2
    b = z1 - z0 * z2
    denom = a + b
    if denom <= STEP_DENOM_TOL:
        raise Stop("degenerate step")
    raw = a / denom
    gamma = min(max(raw, 0.0), 1.0)
    if abs(raw - gamma) > CLAMP_WARN_TOL:
        warnings.warn(
            f"line-search step {raw:.3e} clamped to [0, 1] at t={state.t}",
            RuntimeWarning,
        )
    return gamma


def update(problem: CoresetProblem, state: GigaState, n_t: int, gamma: float) -> None:
    """Advance the state in place by step size gamma toward row n_t: move
    along the geodesic and renormalize both the cached iterate and the
    weights by the same norm, which keeps ell(w) on the unit sphere to
    rounding at every step with no further correction.

    The carried projections follow the same move, ``a * ell(w_t) + b *
    ell_{n_t}``, which the carrier applies at the next scan. Weights and
    the iterate never depend on them.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"step size {gamma} outside [0, 1]")
    direction = (1.0 - gamma) * state.ell_w
    direction += gamma * problem.unit_vectors[n_t]
    nrm = math.sqrt(direction.dot(direction))
    if nrm <= zero_tol(problem.dimension):
        raise RuntimeError("collapsed iterate")

    a, b = (1.0 - gamma) / nrm, gamma / nrm
    state.weights *= a
    state.weights[n_t] += b
    direction /= nrm
    state.ell_w = direction
    state.t += 1

    state.alignment = float(state.ell_w.dot(problem.unit_target))
    resid = state.alignment * state.ell_w
    np.subtract(problem.unit_target, resid, out=resid)
    state.J = float(resid.dot(resid))
    state.scan.move(n_t, a, b)


def finalize(problem: CoresetProblem, state: GigaState) -> WeightVector:
    """Rescale weights to the original vectors and the optimal global scale.

    w_n <- w_n * (||L|| / ||L_n||) * max{0, <ell(w), ell>}; indices are the
    problem's rows. The alignment is 0 before the first step and on a
    trivial problem, so the weights are empty there.
    """
    factor = problem.target_norm * max(0.0, state.alignment)
    dense = state.weights * (factor / problem.norms)
    return WeightVector._positive(dense)


def run(problem: CoresetProblem, M: int, *,
        checkpoints=None) -> tuple[WeightVector, Run]:
    """Run up to M greedy iterations and return the finalized weights and
    the ``hilbert.Run`` record.

    The run's one state is advanced in place, and each step records its
    pick, step size, score and residual norm sqrt(J) as a ``hilbert.Step``.
    An early stop ("trivial" / "converged" / "degenerate step") is recorded
    as the run's stop reason rather than raised. When ``checkpoints`` is
    given, a finalized snapshot of the weights is captured after each listed
    iteration count (snapshots after an early stop repeat the final state).
    """
    state = initial_state(problem)

    def step(t):
        if problem.trivial:
            raise Stop("trivial")
        n_t, score = select(problem, state)
        gamma = step_size(problem, state, n_t)
        update(problem, state, n_t, gamma)
        return Step(n_t, gamma, score, math.sqrt(state.J))

    return iterate(step, lambda: finalize(problem, state), M, checkpoints)
