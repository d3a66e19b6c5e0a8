"""Greedy iterative geodesic ascent for sparse vector-sum approximation.

Works on the normalized problem: maximize <ell(w), ell> over unit-norm
nonnegative combinations ell(w) = sum_n w_n ell_n. Each iteration picks the
point whose geodesic from the current iterate is most aligned with the
geodesic toward ell, takes a closed-form line-search step, and renormalizes.
The output weights are rescaled so that alpha* L(w) optimally approximates
L = sum_n L_n:

    alpha* = (||L|| / ||L(w)||) * max{0, <ell(w), ell>}.

The iterate ell(w_t) is cached and updated in O(1) vector operations per
step (storage option with cached sums); w_t is kept as a dense array over
the problem's kept indexing and sparsified only on output.

The selection scan needs <ell_n, d_t> and <ell_n, ell(w_t)> for every n.
Since d_t = (ell - <ell(w_t), ell> ell(w_t)) / ||.||, both follow from the
constant scores U @ ell (``problem.unit_scores``) and the projections
U @ ell(w_t), which the state's ``hilbert.Projections`` carrier holds from
step to step and resyncs every RENORM_INTERVAL steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    RENORM_INTERVAL,
    CoresetProblem,
    Projections,
    Stop,
    WeightVector,
    iterate,
    zero_tol,
)

# fixed, not the floor: the zetas are unit inner products, rounded at eps at any scale
STEP_DENOM_TOL = 1e-12     # line-search denominator guard
# fixed, not the floor: it only decides whether a clamped step warns
CLAMP_WARN_TOL = 1e-9      # gamma outside [0,1] beyond this is suspicious


class Converged(Stop):
    """Residual direction exhausted; the iterate cannot improve further."""

    reason = "converged"


class DegenerateStep(Stop):
    """Line-search denominator vanished (selected point coincides with iterate)."""

    reason = "degenerate step"


def objective_from_products(num: np.ndarray, zv: np.ndarray, dim: int) -> np.ndarray:
    """Selection objective num / sqrt(1 - zv^2), clamped to [-1, 1], from
    the products num = <ell_n, u> and zv = <ell_n, v>, where u is the unit
    residual direction and v the unit iterate.

    Rows parallel to v (vanishing tangent component) score 0 by the
    zero-vector convention. The clamp removes spurious > 1 values produced
    by cancellation in the 1 - <ell_n, v>^2 denominator.
    """
    den2 = np.maximum(1.0 - zv ** 2, 0.0)
    # fixed, not the floor: 1 - zv^2 of unit vectors rounds at eps at any scale
    ok = den2 > zero_tol(dim) ** 2
    scores = np.where(ok, num / np.sqrt(np.where(ok, den2, 1.0)), 0.0)
    return np.clip(scores, -1.0, 1.0)


def cap_objective(vectors: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Selection objective for each row of ``vectors`` (see
    ``objective_from_products``)."""
    vectors = np.atleast_2d(vectors)
    return objective_from_products(vectors @ u, vectors @ v, vectors.shape[1])


@dataclass(eq=False)
class GigaState:
    """Iterate after t steps: weights (normalized coordinates), cached unit
    iterate ell(w_t), its alignment <ell(w_t), ell>, the squared residual
    J_t = ||ell - alignment * ell(w_t)||^2 and the carrier of the
    projections U @ ell(w_t) (None: ``select`` gives the state one).

    States of one run share their carrier: ``update`` moves the projections
    of its input state to the new iterate, so only the latest state of a run
    may be passed to ``select``."""

    t: int
    weights: np.ndarray
    ell_w: np.ndarray
    alignment: float
    J: float
    scan: Projections | None = None


@dataclass
class IterationTrace:
    """Per-step intermediates: selected index, geodesic alignment score,
    the three line-search inner products, and the step size."""

    n_t: int
    score: float
    zeta0: float   # <ell, ell_{n_t}>
    zeta1: float   # <ell, ell(w_t)>
    zeta2: float   # <ell_{n_t}, ell(w_t)>
    gamma: float = float("nan")


@dataclass
class GigaDiagnostics:
    traces: list[IterationTrace] = field(default_factory=list)
    alignments: list[float] = field(default_factory=list)
    costs: list[float] = field(default_factory=list)       # J_t per step
    times: list[float] = field(default_factory=list)  # cumulative thread CPU seconds
    stop_reason: str | None = None
    snapshots: dict[int, WeightVector] = field(default_factory=dict)


def initial_state(problem: CoresetProblem) -> GigaState:
    return GigaState(
        t=0,
        weights=np.zeros(problem.n),
        ell_w=np.zeros(problem.dimension),
        alignment=0.0,
        J=1.0,
        scan=Projections(problem),
    )


def select(problem: CoresetProblem, state: GigaState) -> IterationTrace:
    """Pick the point whose geodesic direction best matches the residual.

    Computes d_t = (ell - <ell, ell(w)> ell(w)) / ||.|| and maximizes
    <d_t, d_tn> over n, where d_tn is the analogous tangent toward ell_n
    (zero-vector convention for vanishing tangents). At t = 0 this reduces
    to argmax_n <ell_n, ell>. Raises Converged when the residual norm falls
    to ``problem.floor`` or no candidate scores positive.

    The scan scores U @ d_t = (unit_scores - alignment * U @ ell(w)) / ||.||
    from the projections of ``state.scan``.
    """
    resid = problem.unit_target - state.alignment * state.ell_w
    resid_norm = float(np.linalg.norm(resid))
    if resid_norm <= problem.floor:
        raise Converged

    if state.scan is None:
        state.scan = Projections(problem, zero=False)
    proj = state.scan.of(state.ell_w)
    num = (problem.unit_scores - state.alignment * proj) / resid_norm
    scores = objective_from_products(num, proj, problem.dimension)
    n_t = int(np.argmax(scores))        # ties break to the lowest index
    score = float(scores[n_t])
    if score <= 0.0:
        raise Converged

    return IterationTrace(
        n_t=n_t,
        score=score,
        zeta0=float(problem.unit_vectors[n_t] @ problem.unit_target),
        zeta1=state.alignment,
        zeta2=float(problem.unit_vectors[n_t] @ state.ell_w),
    )


def step_size(problem: CoresetProblem, state: GigaState,
              trace: IterationTrace) -> float:
    """Closed-form geodesic line search step, clamped to [0, 1].

    gamma = (z0 - z1 z2) / ((z0 - z1 z2) + (z1 - z0 z2)); feasibility of the
    unclamped optimum holds in exact arithmetic, so clamping beyond
    CLAMP_WARN_TOL triggers a numerical warning. A vanishing denominator
    (coincident points) raises DegenerateStep.
    """
    a = trace.zeta0 - trace.zeta1 * trace.zeta2
    b = trace.zeta1 - trace.zeta0 * trace.zeta2
    denom = a + b
    if denom <= STEP_DENOM_TOL:
        raise DegenerateStep
    raw = a / denom
    gamma = min(max(raw, 0.0), 1.0)
    if abs(raw - gamma) > CLAMP_WARN_TOL:
        warnings.warn(
            f"line-search step {raw:.3e} clamped to [0, 1] at t={state.t}",
            RuntimeWarning,
        )
    trace.gamma = gamma
    return gamma


def update(problem: CoresetProblem, state: GigaState,
           trace: IterationTrace) -> GigaState:
    """Move along the geodesic and renormalize both the cached iterate and
    the weights by the same norm.

    The carried projections follow the same move and are dropped every
    RENORM_INTERVAL steps. Weights and the iterate never depend on them.
    """
    g = trace.gamma
    if not (0.0 <= g <= 1.0):
        raise ValueError(f"step size {g} outside [0, 1]")
    direction = (1.0 - g) * state.ell_w + g * problem.unit_vectors[trace.n_t]
    nrm = float(np.linalg.norm(direction))
    if nrm <= zero_tol(problem.dimension):
        raise RuntimeError("collapsed iterate")

    weights = state.weights * ((1.0 - g) / nrm)
    weights[trace.n_t] += g / nrm
    ell_w = direction / nrm

    t_new = state.t + 1
    resync = t_new % RENORM_INTERVAL == 0
    if resync:
        drift = float(np.linalg.norm(ell_w))
        ell_w = ell_w / drift
        weights = weights / drift

    if state.scan is not None:
        state.scan.move(trace.n_t, (1.0 - g) / nrm, g / nrm, drop=resync)

    alignment = float(ell_w @ problem.unit_target)
    resid = problem.unit_target - alignment * ell_w
    return GigaState(
        t=t_new,
        weights=weights,
        ell_w=ell_w,
        alignment=alignment,
        J=float(resid @ resid),
        scan=state.scan,
    )


def finalize(problem: CoresetProblem, state: GigaState) -> WeightVector:
    """Rescale weights to the original vectors and the optimal global scale.

    w_n <- w_n * (||L|| / ||L_n||) * max{0, <ell(w), ell>}; indices are the
    problem's rows.
    """
    if problem.trivial or state.t == 0:
        return WeightVector.empty()
    factor = problem.target_norm * max(0.0, state.alignment)
    dense = state.weights * (factor / problem.norms)
    return WeightVector.from_dense(dense)


def run(problem: CoresetProblem, M: int, *,
        checkpoints=None) -> tuple[WeightVector, GigaDiagnostics]:
    """Run up to M greedy iterations and return finalized weights.

    Early stop ("trivial" / "converged" / "degenerate step") is recorded in
    the diagnostics rather than raised. When ``checkpoints`` is given, a
    finalized snapshot of the weights is captured after each listed
    iteration count (snapshots after an early stop repeat the final state).
    """
    diag = GigaDiagnostics()
    state = initial_state(problem)

    def step(t):
        nonlocal state
        if problem.trivial:
            raise Stop("trivial")
        trace = select(problem, state)
        step_size(problem, state, trace)
        state = update(problem, state, trace)
        diag.traces.append(trace)
        diag.alignments.append(state.alignment)
        diag.costs.append(state.J)

    final, diag.snapshots, diag.times, diag.stop_reason = iterate(
        step, lambda: finalize(problem, state), M, checkpoints)
    return final, diag
