"""Baseline constructions on the norm-simplex problem.

All three methods keep the weights feasible for the constraint
sum_n sigma_n w_n = sigma (no post-hoc rescaling):

* Frank-Wolfe on the polytope with vertices v_n = (sigma / sigma_n) L_n,
  with exact closed-form line search;
* importance sampling of M indices i.i.d. with probability sigma_n / sigma,
  weighting by multiplicity: w_n = m_n * sigma / (M * sigma_n);
* uniform random subsampling, w_n = m_n * N / M.

Randomized methods take either an integer seed or a numpy Generator; the
benchmark harness derives one PCG64 stream per (trial, purpose) so runs are
bit-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    RENORM_INTERVAL,
    ZERO_TOL_COEFF,
    CoresetProblem,
    GramColumns,
    WeightVector,
)

METHODS = ("FW", "IS", "RND")


@dataclass(frozen=True)
class BaselineConfig:
    method: str
    M: int
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.M < 1:
            raise ValueError("budget M must be >= 1")


def build_coreset(problem: CoresetProblem, config: BaselineConfig) -> WeightVector:
    if config.method == "FW":
        return fw_coreset(problem, config.M)[0]
    if config.method == "IS":
        return is_coreset(problem, config.M, config.seed)
    return rnd_coreset(problem, config.M, config.seed)


@dataclass
class FwDiagnostics:
    selected: list[int] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)      # ||L(w_t) - L|| per step
    times: list[float] = field(default_factory=list)       # cumulative cpu seconds
    stop_reason: str | None = None
    snapshots: dict[int, WeightVector] = field(default_factory=dict)


def fw_coreset(problem: CoresetProblem, M: int,
               checkpoints=None) -> tuple[WeightVector, FwDiagnostics]:
    """Frank-Wolfe with exact line search on the simplex-scaled polytope.

    Initializes at the vertex most aligned with L, then for each of the
    remaining M - 1 iterations picks n_t = argmax_n <v_n, L - L(w_t)> (ties
    to the lowest index) and steps with
    gamma = <v_{n_t} - L(w_t), L - L(w_t)> / ||v_{n_t} - L(w_t)||^2 clamped
    to [0, 1]. The iterate L(w_t) is cached and updated incrementally.

    Since scale_n <V_n, L - L(w)> = sigma <ell_n, L - L(w)>, the scan is
    argmax_n (||L|| unit_scores_n - proj_n) over the carried projections
    proj = U @ L(w_t), which a step moves as
    proj <- (1 - gamma) proj + gamma sigma U @ ell_{n_t} with a Gram column
    from a ``GramColumns`` cache of at most d columns. When the column is
    not available (the cache is full, or the step already did its one
    product) and every RENORM_INTERVAL steps, the next scan recomputes proj
    with one N x d product instead, so no step does more than one. The line search uses
    direct row products, so the weights do not depend on the cache.
    """
    if M < 1:
        raise ValueError("iteration budget M must be >= 1")
    diag = FwDiagnostics()
    cps = sorted(set(checkpoints or []))
    if problem.trivial:
        diag.stop_reason = "trivial"
        for m in cps:
            diag.snapshots[m] = WeightVector.empty()
        return WeightVector.empty(), diag

    V = problem.vectors
    sigma = problem.sigma_total
    scale = sigma / problem.norms                    # vertex n is scale[n] * V[n]
    L = problem.target
    target_scores = problem.target_norm * problem.unit_scores    # <ell_n, L>
    columns = GramColumns(problem)

    t_start = time.process_time()
    w = np.zeros(problem.n)
    n0 = int(np.argmax(problem.unit_scores))
    w[n0] = scale[n0]
    Lw = scale[n0] * V[n0]
    proj = sigma * columns.column(n0)                # U @ L(w_t), None: recompute
    diag.selected.append(n0)
    diag.gammas.append(1.0)
    diag.errors.append(float(np.linalg.norm(Lw - L)))
    diag.times.append(time.process_time() - t_start)

    def snapshot(m):
        diag.snapshots[m] = problem.to_original(WeightVector.from_dense(w))

    if 1 in cps:
        snapshot(1)

    for t in range(1, M):
        resid = L - Lw
        if proj is None:
            proj = columns.project(Lw)
        n_t = int(np.argmax(target_scores - proj))
        vertex = scale[n_t] * V[n_t]
        direction = vertex - Lw
        denom = float(direction @ direction)
        if denom <= (ZERO_TOL_COEFF * sigma) ** 2:
            diag.stop_reason = "degenerate line search"
            break
        gamma = min(max(float(direction @ resid) / denom, 0.0), 1.0)
        w *= 1.0 - gamma
        w[n_t] += gamma * scale[n_t]
        Lw = (1.0 - gamma) * Lw + gamma * vertex
        col = columns.column(n_t)
        if col is None or t % RENORM_INTERVAL == 0:
            proj = None
        else:
            proj = proj * (1.0 - gamma) + col * (gamma * sigma)
        diag.selected.append(n_t)
        diag.gammas.append(gamma)
        diag.errors.append(float(np.linalg.norm(Lw - L)))
        diag.times.append(time.process_time() - t_start)
        if t + 1 in cps:
            snapshot(t + 1)

    final = problem.to_original(WeightVector.from_dense(w))
    for m in cps:
        if m not in diag.snapshots:
            diag.snapshots[m] = final
    return final, diag


def _multiplicity_weights(problem: CoresetProblem, draws: np.ndarray,
                          per_draw_weight: np.ndarray) -> WeightVector:
    counts = np.bincount(draws, minlength=problem.n)
    dense = counts * per_draw_weight / draws.size
    return problem.to_original(WeightVector.from_dense(dense))


def is_coreset(problem: CoresetProblem, M: int, seed) -> WeightVector:
    """Importance-sampled coreset: M draws with probability sigma_n / sigma,
    w_n = m_n * sigma / (M * sigma_n). Unbiased: E[L(w)] = L."""
    if M < 1:
        raise ValueError("sample budget M must be >= 1")
    if problem.n == 0:
        return WeightVector.empty()
    rng = np.random.default_rng(seed)
    probs = problem.norms / problem.sigma_total
    draws = rng.choice(problem.n, size=M, p=probs)
    return _multiplicity_weights(problem, draws, problem.sigma_total / problem.norms)


def rnd_coreset(problem: CoresetProblem, M: int, seed) -> WeightVector:
    """Uniform random subsampling: w_n = m_n * N / M. Unbiased: E[L(w)] = L."""
    if M < 1:
        raise ValueError("sample budget M must be >= 1")
    if problem.n == 0:
        return WeightVector.empty()
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, problem.n, size=M)
    return _multiplicity_weights(problem, draws, np.full(problem.n, float(problem.n)))


def sampling_sweep(problem: CoresetProblem, grid, seed,
                   method: str) -> dict[int, WeightVector]:
    """Coresets at every budget in ``grid`` from one nested sample sequence.

    The first m draws of a single length-max(grid) sequence define the
    budget-m coreset, so sweeps are consistent with single calls at the
    same seed and budgets are nested the way an iterative construction is.
    """
    if method not in ("IS", "RND"):
        raise ValueError("sampling_sweep supports IS and RND only")
    grid = sorted(set(int(m) for m in grid))
    if not grid or grid[0] < 1:
        raise ValueError("grid budgets must be >= 1")
    if problem.n == 0:
        return {m: WeightVector.empty() for m in grid}
    rng = np.random.default_rng(seed)
    if method == "IS":
        probs = problem.norms / problem.sigma_total
        draws = rng.choice(problem.n, size=grid[-1], p=probs)
        per_draw = problem.sigma_total / problem.norms
    else:
        draws = rng.integers(0, problem.n, size=grid[-1])
        per_draw = np.full(problem.n, float(problem.n))
    return {m: _multiplicity_weights(problem, draws[:m], per_draw) for m in grid}
