"""Baseline constructions on the norm-simplex problem.

FW and importance sampling keep sum_n sigma_n w_n = sigma at every budget
(no post-hoc rescaling); uniform subsampling keeps it only in expectation:

* Frank-Wolfe on the polytope with vertices v_n = (sigma / sigma_n) L_n
  = sigma ell_n, with exact closed-form line search;
* importance sampling of M indices i.i.d. with probability sigma_n / sigma,
  weighting by multiplicity: w_n = m_n * sigma / (M * sigma_n);
* uniform random subsampling, w_n = m_n * N / M.

Randomized methods take either an integer seed or a numpy Generator; the
benchmark harness derives one PCG64 stream per (trial, purpose) so runs are
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .hilbert import (
    EPS,
    ZERO_TOL_COEFF,
    CoresetProblem,
    Projections,
    Run,
    Step,
    Stop,
    WeightVector,
    iterate,
    relative_error,
)

# FW stops once its true residual is within this many floors (eps * sigma).
# Its own rounding sits near 1x floor, so at 1x the test rarely fires.
FLOOR_MULTIPLE = 4


def fw_coreset(problem: CoresetProblem, M: int, *,
               checkpoints=None) -> tuple[WeightVector, Run]:
    """Frank-Wolfe with exact line search on the simplex-scaled polytope;
    returns the weights and the ``hilbert.Run`` record.

    Initializes at the vertex most aligned with L, then for each of the
    remaining M - 1 iterations picks n_t = argmax_n <v_n, L - L(w_t)> (ties
    to the lowest index) and steps with
    gamma = <v_{n_t} - L(w_t), L - L(w_t)> / ||v_{n_t} - L(w_t)||^2 clamped
    to [0, 1]. The iterate L(w_t) is cached and updated incrementally. Each
    step's ``hilbert.Step`` carries the Frank-Wolfe gap, the numerator of
    gamma, as its score (<v_{n_1}, L> at t = 1), and no residual.

    Since scale_n <V_n, L - L(w)> = sigma <ell_n, L - L(w)>, the scan is
    argmax_n (||L|| unit_scores_n - (U @ L(w_t))_n) over projections that a
    ``hilbert.Projections`` carrier holds from step to step (and resyncs on
    its own cadence), moving them as L(w) <- (1 - gamma) L(w) + gamma sigma
    ell_{n_t}. The line search uses direct row products, so the weights do
    not depend on the carried projections.

    Before it steps, the run stops with "float floor" once its error is at
    most FLOOR_MULTIPLE floors (a residual of that many eps * sigma): when the
    norm of the carried L - L(w) (not its square, which underflows first) is
    that small, ``relative_error`` decides, as the carried L(w) under-reports
    the error near the floor. Since w = 1 is feasible, the optimum is 0, and
    such a residual is rounding that no step can remove (Jaggi, ICML 2013).
    """
    U = problem.unit_vectors
    sigma = problem.sigma_total
    norms = problem.norms                # vertex n: (sigma / norms[n]) * L_n = sigma * U[n]
    L = problem.target
    floor_err = FLOOR_MULTIPLE * problem.floor
    floor_resid = FLOOR_MULTIPLE * EPS * sigma
    w = np.zeros(problem.n)
    scan = Projections(problem)         # of U @ L(w_t)
    Lw = target_scores = None

    def step(t):
        nonlocal w, Lw, target_scores
        if t == 1:
            if problem.trivial:
                raise Stop("trivial")
            n_t = int(problem.unit_scores.argmax())
            gamma = 1.0
            w[n_t] = sigma / norms[n_t]
            Lw = sigma * U[n_t]
            gap = float(Lw.dot(L))
        else:
            resid = L - Lw
            if (np.sqrt(resid.dot(resid)) <= floor_resid
                    and relative_error(problem, WeightVector._positive(w)) <= floor_err):
                raise Stop("float floor")
            if t == 2:
                target_scores = problem.target_norm * problem.unit_scores   # <ell_n, L>
            n_t = int(np.subtract(target_scores, scan.of(Lw), out=scan.buffers[0]).argmax())
            vertex = sigma * U[n_t]
            direction = vertex - Lw
            denom = float(direction.dot(direction))
            # fixed, not the floor: on sigma's scale already, it guards a zero division
            if denom <= (ZERO_TOL_COEFF * sigma) ** 2:
                raise Stop("degenerate line search")
            gap = float(direction.dot(resid))
            gamma = min(max(gap / denom, 0.0), 1.0)
            w *= 1.0 - gamma
            w[n_t] += gamma * (sigma / norms[n_t])
            Lw *= 1.0 - gamma
            Lw += gamma * vertex
        scan.move(n_t, 1.0 - gamma, gamma * sigma)
        return Step(n_t, gamma, gap)

    return iterate(step, lambda: WeightVector._positive(w), M, checkpoints)


def sampling_sweep(problem: CoresetProblem, grid, seed,
                   method: str) -> dict[int, WeightVector]:
    """Importance-sampling ("IS") or uniform-subsampling ("RND") coresets,
    both unbiased (E[L(w)] = L), at every budget in ``grid`` from one
    nested sample sequence.

    The first m draws of a single length-max(grid) sequence define the
    budget-m coreset, so a sweep's budget-m coreset is that of the grid [m]
    at the same seed, and budgets are nested the way an iterative
    construction is.
    """
    if method not in ("IS", "RND"):
        raise ValueError("sampling_sweep supports IS and RND only")
    grid = sorted(set(grid))
    if not grid or any(m < 1 or m % 1 for m in grid):
        raise ValueError("grid budgets must be >= 1 and integral")
    grid = [int(m) for m in grid]
    n = problem.n
    if n == 0:
        return {m: WeightVector.empty() for m in grid}
    rng = np.random.default_rng(seed)
    if method == "IS":
        draws = rng.choice(n, size=grid[-1], p=problem.norms / problem.sigma_total)
    else:
        draws = rng.integers(0, n, size=grid[-1])

    def weights(m):     # counts > 0 and a draw weighs >= 1, so each value is positive and finite
        counts = np.bincount(draws[:m], minlength=n)
        idx = counts.nonzero()[0]
        # each drawn row's weight per draw: sigma / sigma_n for IS, N for RND
        per_draw = problem.sigma_total / problem.norms[idx] if method == "IS" else float(n)
        return WeightVector._unchecked(idx, counts[idx] * per_draw / m)
    return {m: weights(m) for m in grid}
