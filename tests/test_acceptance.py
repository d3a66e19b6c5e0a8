"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.
"""

import time

import numpy as np
import pytest

import corebench
from corebench.baselines import fw_coreset
from corebench.bench import ExperimentSpec, _trial_problems, run_experiment
from corebench.captree import build as build_cap_tree
from corebench.captree import cap_objective, node_upper_bound, search
from corebench.giga import (
    finalize,
    initial_state,
    run,
    select,
    step_size,
    update,
)
from corebench.hilbert import Stop, build_problem, relative_error, weighted_sum
from corebench.models import (
    GaussianMeanData,
    RegressionData,
    gaussian_embed,
    laplace,
    log_likelihood,
    log_likelihood_grad,
    project,
)

from conftest import random_problem, rows


def report(number, ok, detail):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_c1_ortho_closed_form_errors():
    t0 = time.perf_counter()
    n = 1000
    problem = build_problem(np.eye(n) / n)
    worst = 0.0
    for m in (5, 20, 50):
        w_fw, _ = fw_coreset(problem, m)
        fw_err = relative_error(problem, w_fw)
        fw_want = np.sqrt(n / m - 1)
        w_g, _ = run(problem, m)
        giga_err = relative_error(problem, w_g)
        giga_want = np.sqrt(1 - m / n)
        worst = max(worst, abs(fw_err - fw_want), abs(giga_err - giga_want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30
    report(1, ok, f"max deviation from closed forms {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30


def test_c2_relative_error_never_exceeds_one():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        problem = random_problem(rng, max_n=200, max_dim=20)
        if problem.trivial or problem.n == 0:
            continue
        m = int(rng.integers(1, 51))
        w, _ = run(problem, m)
        worst = max(worst, relative_error(problem, w))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1 + 1e-9 and elapsed < 60
    report(2, ok, f"max relative error {worst:.12f} over 1000 problems, {elapsed:.1f}s")
    assert worst <= 1 + 1e-9
    assert elapsed < 60


def test_c3_gaussian_posterior_variance_study():
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="synth-gauss", n=10, dim=2, m_max=1,
                          trials=1000, seed=0, algorithms=("giga", "fw"))
    rows = run_experiment(spec)
    med = {alg: float(np.median([r.extra for r in rows if r.algorithm == alg]))
           for alg in ("giga", "fw")}
    elapsed = time.perf_counter() - t0
    ok = med["giga"] <= 0.10 and med["fw"] >= 0.30 and elapsed < 60
    report(3, ok, f"median variance error: giga {med['giga']:.4f} (<= 0.10), "
                  f"fw {med['fw']:.4f} (>= 0.30), {elapsed:.1f}s")
    assert med["giga"] <= 0.10
    assert med["fw"] >= 0.30
    assert elapsed < 60


def test_c4_vector_sum_error_gap_and_size():
    t0 = time.perf_counter()
    spec = ExperimentSpec(experiment="synth-vectors", n=10_000, dim=50,
                          m_max=1000, trials=20, seed=0,
                          algorithms=("giga", "fw"))
    rows = run_experiment(spec)
    grid = sorted({r.M for r in rows})
    med = {(alg, m): float(np.median([r.rel_error for r in rows
                                      if r.algorithm == alg and r.M == m]))
           for alg in ("giga", "fw") for m in grid}
    final_size = {alg: int(np.median([r.size for r in rows
                                      if r.algorithm == alg and r.M == grid[-1]]))
                  for alg in ("giga", "fw")}
    elapsed = time.perf_counter() - t0

    # the cause of a failing gap: medians in units of each trial's float
    # floor, per-step log-error rates fitted above the floor, and GIGA's
    # lead in steps, ln(fw / giga) / -rate(giga), where both are above it
    trial_problem = _trial_problems(spec)
    floors = [trial_problem(t)[0].floor for t in range(spec.trials)]
    in_floors = {(alg, m): float(np.median([r.rel_error / floors[r.trial] for r in rows
                                            if r.algorithm == alg and r.M == m]))
                 for alg in ("giga", "fw") for m in grid}
    rate = {}
    for alg in ("giga", "fw"):
        above = [m for m in grid if in_floors[(alg, m)] > 4]
        rate[alg] = float(np.polyfit(above, np.log([med[(alg, m)] for m in above]), 1)[0])
    lead = {m: float(np.log(med[("fw", m)] / med[("giga", m)])) / -rate["giga"]
            for m in grid if min(in_floors[("giga", m)], in_floors[("fw", m)]) > 4}

    print("\n    M     giga median     fw median      ratio  both <= 4 floors   lead")
    ratios = {}
    for m in grid:
        ratio = med[("giga", m)] / med[("fw", m)]
        if m >= 100:
            ratios[m] = ratio
        at_floor = max(in_floors[("giga", m)], in_floors[("fw", m)]) <= 4
        lead_text = f"{lead[m]:>6.1f}" if m in lead else "     -"
        print(f"  {m:>5} {med[('giga', m)]:>14.5e} {med[('fw', m)]:>13.5e} "
              f"{ratio:>10.3e}  {str(at_floor):>16}  {lead_text}")
    print(f"  log-error per step above the floor: giga {rate['giga']:.4f}, "
          f"fw {rate['fw']:.4f}; GIGA's lead {min(lead.values()):.1f}-"
          f"{max(lead.values()):.1f} steps, ratio 1e-2 needs "
          f"{np.log(100) / -rate['giga']:.1f}")
    gap_ok = all(r <= 1e-2 for r in ratios.values())
    size_ok = final_size["giga"] < final_size["fw"]
    ok = gap_ok and size_ok and elapsed < 300
    report(4, ok, f"error gap <= 1e-2 at M >= 100: {gap_ok} "
                  f"(worst ratio {max(ratios.values()):.3e}); "
                  f"final sizes giga {final_size['giga']} < fw {final_size['fw']}: "
                  f"{size_ok}; {elapsed:.1f}s")
    assert size_ok
    assert elapsed < 300
    assert gap_ok, (
        "median GIGA error must be <= 1e-2 x median FW error at every grid "
        f"M >= 100; measured ratios {ratios}")


def test_c5_algorithm_invariant_suite():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(250):
        problem = random_problem(rng, max_n=60, max_dim=10)
        if problem.trivial or problem.n == 0:
            continue
        checked += 1
        state = initial_state(problem)
        m = int(rng.integers(1, 25))
        prev_align = 0.0
        prev_J = 1.0
        for _ in range(m):
            try:
                n_t, score = select(problem, state)
                gamma = step_size(problem, state, n_t)
            except Stop:
                break
            assert 0.0 <= gamma <= 1.0
            update(problem, state, n_t, gamma)
            assert np.linalg.norm(state.ell_w) == pytest.approx(1.0, abs=1e-8)
            assert state.alignment >= prev_align - 1e-12
            assert state.J == pytest.approx(prev_J * (1 - score ** 2), abs=1e-8)
            prev_align, prev_J = state.alignment, state.J
        if state.t == 1:
            # initialization bound: <ell(w_1), ell> >= ||L|| / sigma
            assert state.alignment >= problem.target_norm / problem.sigma_total - 1e-12
        if state.t >= 1:
            w = finalize(problem, state)
            Lw = weighted_sum(problem, w)
            assert abs(float((Lw - problem.target) @ Lw)) \
                <= 1e-8 * problem.target_norm ** 2
    # separately: first-iteration bound across its own fuzz batch
    for _ in range(200):
        problem = random_problem(rng, max_n=60, max_dim=10)
        if problem.trivial or problem.n == 0:
            continue
        state = initial_state(problem)
        n_t, _ = select(problem, state)
        update(problem, state, n_t, step_size(problem, state, n_t))
        assert state.alignment >= problem.target_norm / problem.sigma_total - 1e-12
    report(5, True, f"step/norm/monotonicity/recursion/orthogonality/init bounds "
                    f"hold on {checked} fuzzed problems")


def test_c6_gradient_and_laplace_checks():
    rng = np.random.default_rng(6)
    h = 1e-5
    worst = 0.0
    for model in ("logistic", "poisson"):
        for _ in range(100):
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(1, d))
            y = np.array([rng.choice([-1.0, 1.0]) if model == "logistic"
                          else float(rng.integers(0, 8))])
            Z = RegressionData(x, y).z
            theta = rng.normal(size=d + 1)
            grad = log_likelihood_grad(model, Z, y, theta)[0]
            fd = np.array([
                (log_likelihood(model, Z, y, theta + h * e)
                 - log_likelihood(model, Z, y, theta - h * e)) / (2 * h)
                for e in np.eye(d + 1)])
            scale = max(1.0, float(np.abs(grad).max()))
            worst = max(worst, float(np.abs(grad - fd).max()) / scale)
    grad_ok = worst <= 1e-6

    lap_worst = 0.0
    for _ in range(20):
        y = rng.normal(size=int(rng.integers(1, 30)))
        lap = laplace("gaussian", GaussianMeanData(y))
        n = y.size
        lap_worst = max(lap_worst,
                        abs(lap.mode[0] - y.sum() / (n + 1)),
                        abs(lap.covariance[0, 0] - 1.0 / (n + 1)))
    lap_ok = lap_worst <= 1e-10
    report(6, grad_ok and lap_ok,
           f"finite-difference deviation {worst:.2e} (<= 1e-6); "
           f"conjugate-form deviation {lap_worst:.2e} (<= 1e-10)")
    assert grad_ok
    assert lap_ok


def test_c7_projection_mse_decays_as_one_over_s():
    rng = np.random.default_rng(7)
    y = rng.normal(0.4, 1.0, size=10)
    data = GaussianMeanData(y)
    exact = gaussian_embed(data)
    exact_gram = rows(exact) @ rows(exact).T
    lap = laplace("gaussian", data)
    sample_counts = (100, 1000, 10_000)
    mses = []
    for s in sample_counts:
        reps = []
        for rep in range(30):
            proj = project("gaussian", data, lap, s, seed=1000 * s + rep)
            gram = rows(proj) @ rows(proj).T
            reps.append(float(np.mean((gram - exact_gram) ** 2)))
        mses.append(np.mean(reps))
    slope = float(np.polyfit(np.log(sample_counts), np.log(mses), 1)[0])
    ok = abs(slope + 1.0) <= 0.3
    report(7, ok, f"log-log MSE slope {slope:.3f} (target -1 +/- 0.3); "
                  f"MSEs {[f'{m:.2e}' for m in mses]}")
    assert ok


def test_c8_captree_oracle_equivalence_and_soundness():
    rng = np.random.default_rng(8)

    def unit_rows(n, d):
        u = rng.normal(size=(n, d))
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    def orthonormal_uv(d):
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        u = rng.normal(size=d)
        u -= (u @ v) * v
        u /= np.linalg.norm(u)
        return u, v

    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 500))
        d = int(rng.integers(2, 12))
        U = unit_rows(n, d)
        root = build_cap_tree(U)
        u, v = orthonormal_uv(d)
        _, val = search(root, u, v)
        worst_gap = max(worst_gap, abs(val - float(cap_objective(U, u, v).max())))
    search_ok = worst_gap <= 1e-9

    def audit(node, U, u, v):
        if node.is_leaf:
            ids = node.indices
        else:
            ids = np.concatenate([audit(c, U, u, v) for c in node.children])
        slack = float(cap_objective(U[ids], u, v).max()) - node_upper_bound(node, u, v)
        audit.worst = max(audit.worst, slack)
        return ids

    audit.worst = -np.inf
    for _ in range(100):
        n = int(rng.integers(2, 1000))
        d = int(rng.integers(2, 10))
        U = unit_rows(n, d)
        root = build_cap_tree(U)
        u, v = orthonormal_uv(d)
        audit(root, U, u, v)
    bound_ok = audit.worst <= 1e-9
    report(8, search_ok and bound_ok,
           f"search vs scan gap {worst_gap:.2e} (<= 1e-9) over 1000 instances; "
           f"worst bound violation {audit.worst:.2e} over full-node audits")
    assert search_ok
    assert bound_ok


def test_c9_out_of_scope_surfaces_absent():
    # sampler-based evaluation is excluded by design: errors are measured in
    # the embedded space, never via MCMC; assert no such API exists
    surface = set(dir(corebench))
    banned = {"hmc", "nuts", "mcmc", "rwmh", "metropolis", "sampler"}
    leaked = {name for name in surface if any(b in name.lower() for b in banned)}
    ok = not leaked
    report(9, ok, "million-point runs, MCMC-based distance curves, and "
                  "wall-clock-vs-MCMC comparisons are out of scope; "
                  "vector-space criteria 4-8 substitute for them")
    assert ok
