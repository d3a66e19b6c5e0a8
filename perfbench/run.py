#!/usr/bin/env python3
"""Layered benchmark of the corebench experiment CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repeat runs ``cli.main`` -> ``bench.run_experiment`` at a fixed shape
in a fresh process (``perfbench/child.py``); repeats go on until ``S``
seconds have passed. Repeat i of a kind runs the CLI with seed
``N * variants + i % variants``; quality metrics pool the trials of all
variants. Every repeat's CSV is checked (see ``check_rows``) and must
match the first repeat of its variant on the columns trial..size, so an
untraced run makes every variant at least twice, and a traced run at
least once per kind (traced repeats are compared with untraced ones). With
``--trace 0`` the last line of standard output carries the end-to-end
metrics (medians over repeats); with ``--trace 1`` untraced and traced
repeats alternate and it carries the per-layer metrics of the traced
repeats. The line before it holds run metadata, the median rel_error of
every (algorithm, M) and the per-repeat values; the same record is saved
under ``.perfbench/``. ``--tiny`` shrinks every shape for the smoke test.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

ALGORITHMS = ("giga", "fw", "is", "rnd")
HARD_LIMIT_S = 165.0     # no repeat starts, or runs, past this many seconds

# Shapes are fixed. A repeat is kept short (about a second of wall time):
# on a shared two-core box one repeat's time varies by 20-30% for the same
# work, so only many repeats give a usable median. ``variants`` seeds then give
# the quality metrics variants x trials trials. ``quality_m`` is the budget
# of giga_err / fw_err: both medians sit far above the float64 floor
# eps*sigma/||L|| there, so rounding-only changes cannot move them. See
# perfbench/README.md for why each workload exists.
WORKLOADS = {
    "regress-logistic": dict(
        argv=["regress", "--model", "logistic", "--n", "2000"],
        trials=1, variants=10, m_max=1000, quality_m=113),
    "synth-vectors": dict(
        argv=["synth-vectors", "--n", "10000", "--dim", "50"],
        trials=4, variants=10, m_max=1000, quality_m=13),
    "synth-gauss": dict(
        argv=["synth-gauss", "--n", "10", "--dim", "2"],
        trials=1000, variants=8, m_max=1, quality_m=1),
}
TINY = {
    "regress-logistic": dict(
        argv=["regress", "--model", "logistic", "--n", "200"],
        trials=1, variants=2, m_max=20, quality_m=12),
    "synth-vectors": dict(
        argv=["synth-vectors", "--n", "300", "--dim", "5"],
        trials=2, variants=2, m_max=20, quality_m=12),
    "synth-gauss": dict(
        argv=["synth-gauss", "--n", "10", "--dim", "2"],
        trials=20, variants=2, m_max=1, quality_m=1),
}

ACCOUNTED_TOL = 0.01     # span self times must add up to the traced main call
WAITING = ("not measured: one trial thread (COREBENCH_THREADS=1), "
           "so no layer queues work")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def child_env() -> dict:
    env = dict(os.environ, COREBENCH_THREADS="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(var, None)      # BLAS threads stay at their default (nproc)
    return env


def spawn(spec: dict, timeout: float) -> tuple[dict | None, float, str]:
    """Run child.py; return (its record or None, spawn clock, error text)."""
    t_spawn = time.monotonic()
    try:
        done = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"timed out after {timeout:.0f} s"
    if done.returncode != 0:
        return None, t_spawn, done.stderr.strip()[-2000:]
    with open(spec["out"]) as fh:
        return json.load(fh), t_spawn, ""


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row_key(row: dict) -> tuple:
    return (row["trial"], row["algorithm"], row["M"], row["rel_error"], row["size"])


def check_rows(rows: list[dict], grid: list[int] | None, trials: int,
               reference: dict | None) -> tuple[dict, set, list[str]]:
    """Group rows by operation (trial, algorithm) and find the failed ones.

    An operation fails if a row has a non-finite rel_error, if GIGA's
    rel_error exceeds 1, if GIGA/FW report size > M, if its budgets differ
    from the program's grid, or if its rows differ from the ``reference``
    repeat on trial..size. Returns (rows by operation, failed operations,
    problems that belong to no expected operation).
    """
    ops = {(t, a): [] for t in range(trials) for a in ALGORITHMS}
    problems = []
    for row in rows:
        key = (int(row["trial"]), row["algorithm"])
        if key not in ops:
            problems.append(f"unexpected row for operation {key}")
            continue
        ops[key].append(row)
    if grid is not None and len(rows) != trials * len(ALGORITHMS) * len(grid):
        problems.append(f"{len(rows)} rows, expected "
                        f"{trials}x{len(ALGORITHMS)}x{len(grid)}")
    failed = set()
    for key, op_rows in ops.items():
        budgets = sorted(int(r["M"]) for r in op_rows)
        if not op_rows or (grid is not None and budgets != sorted(grid)):
            failed.add(key)
        for r in op_rows:
            err, size, m = float(r["rel_error"]), int(r["size"]), int(r["M"])
            if (not math.isfinite(err) or (key[1] == "giga" and err > 1.0)
                    or (key[1] in ("giga", "fw") and size > m)):
                failed.add(key)
        if reference is not None and [row_key(r) for r in op_rows] != reference.get(key):
            failed.add(key)
    return ops, failed, problems


def quality_table(runs: list[dict]) -> dict:
    """Median rel_error over all trials of all runs for each (algorithm, M)."""
    errs = {}
    for ops in runs:
        for (_, alg), op_rows in ops.items():
            for r in op_rows:
                errs.setdefault(alg, {}).setdefault(int(r["M"]), []).append(
                    float(r["rel_error"]))
    return {alg: {str(m): statistics.median(v) for m, v in sorted(by_m.items())}
            for alg, by_m in errs.items()}


def layer_metrics(trace: dict, wall_s: float, main_s: float) -> dict:
    self_s, calls, counts = trace["self_s"], trace["calls"], trace["counts"]

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def per(value, count):
        return value / count if count else 0.0

    giga_runs = n("giga.run")
    fw_steps = counts.get("fw.steps", 0)
    return {
        "giga.select_s": s("giga.select"),
        "giga.steps": n("giga.select"),
        "giga.select_us_per_step": 1e6 * per(s("giga.select"), n("giga.select")),
        "giga.step_size_s": s("giga.step_size"),
        "giga.update_s": s("giga.update"),
        "giga.finalize_s": s("giga.finalize"),
        "giga.run_s": s("giga.run"),
        "giga.steps_per_run": per(counts.get("giga.useful_steps", 0), giga_runs),
        "giga.converged_frac": per(counts.get("giga.converged", 0), giga_runs),
        "giga.useful_step_frac": per(counts.get("giga.useful_steps", 0),
                                     counts.get("giga.budget", 0)),
        "baselines.fw_s": s("baselines.fw"),
        "baselines.fw_steps": fw_steps,
        "baselines.fw_us_per_step": 1e6 * per(s("baselines.fw"), fw_steps),
        "baselines.is_s": s("baselines.is"),
        "baselines.is_calls": n("baselines.is"),
        "baselines.rnd_s": s("baselines.rnd"),
        "baselines.rnd_calls": n("baselines.rnd"),
        "baselines.sampling_sweep_s": s("baselines.sampling_sweep"),
        "baselines.sampling_sweep_calls": n("baselines.sampling_sweep"),
        "hilbert.build_problem_s": s("hilbert.build_problem"),
        "hilbert.build_problem_calls": n("hilbert.build_problem"),
        "hilbert.relative_error_s": s("hilbert.relative_error"),
        "hilbert.relative_error_calls": n("hilbert.relative_error"),
        "hilbert.weightvector_s": s("hilbert.weightvector"),
        "hilbert.weightvector_inits": n("hilbert.weightvector"),
        "models.laplace_s": s("models.laplace"),
        "models.project_s": s("models.project"),
        "models.gaussian_embed_s": s("models.gaussian_embed"),
        "models.posterior_var_s": s("models.posterior_var"),
        "bench.csv_s": s("bench.csv"),
        "bench.other_s": s("bench.main"),
        "trace.wall_s": wall_s,
        "trace.main_s": main_s,
        "trace.accounted_frac": per(sum(self_s.values()), main_s),
    }


def median_of(records: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in records)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="root seed, >= 0")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny shapes, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def main(argv=None) -> int:
    t_start = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "corebench" / "__init__.py").is_file():
        print(f"perfbench: no corebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = (TINY if args.tiny else WORKLOADS)[args.workload]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    try:
        return measure(args, wl, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl: dict, work: Path, t_start: float) -> int:
    base = {"root": str(ROOT), "m_max": wl["m_max"]}
    warm, _, error = spawn({**base, "argv": None, "trace": False,
                            "out": str(work / "warm.json")}, timeout=120)
    if warm is None:
        print(f"perfbench: warm-up failed: {error}", file=sys.stderr)
        return 1

    kinds = [False, True] if args.trace else [False]
    variants = wl["variants"]
    needed = variants if args.trace else 2 * variants   # repeats per kind
    done = {kind: [] for kind in kinds}         # kind -> repeat records
    durations = {kind: [] for kind in kinds}
    references, ref_ops, grid = {}, {}, None    # per variant: first repeat's rows
    attempted, failed, problems = 0, 0, []
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        now = time.monotonic()
        enough = all(len(durations[k]) >= needed for k in kinds)
        budget_left = HARD_LIMIT_S - (now - t_start)
        expected = statistics.median(durations[kind]) if durations[kind] else 0.0
        if (enough and now + expected > deadline) or budget_left < expected + 5:
            break
        i += 1
        variant = len(durations[kind]) % variants
        csv_path = work / f"r{i}.csv"
        argv = wl["argv"] + ["--trials", str(wl["trials"]), "--m-max", str(wl["m_max"]),
                             "--algs", ",".join(ALGORITHMS),
                             "--seed", str(args.seed * variants + variant),
                             "--out", str(csv_path)]
        record, t_spawn, error = spawn({**base, "argv": argv, "trace": kind,
                                        "out": str(work / f"r{i}.json")},
                                       timeout=budget_left)
        durations[kind].append(time.monotonic() - t_spawn)
        attempted += wl["trials"] * len(ALGORITHMS)
        if record is None or not csv_path.is_file():
            failed += wl["trials"] * len(ALGORITHMS)
            problems.append(f"repeat {i} failed: {error}")
            continue
        rows = read_rows(csv_path)
        csv_path.unlink()
        if grid is None:
            grid = record["grid"]
        ops, bad, found = check_rows(rows, grid, wl["trials"], references.get(variant))
        failed += len(bad)
        problems += [f"repeat {i}: {p}" for p in found]
        if variant not in references:
            references[variant] = {key: [row_key(r) for r in op_rows]
                                   for key, op_rows in ops.items()}
            ref_ops[variant] = ops
        wall_s = record["t_end"] - record["t_first"]
        result = {
            "variant": variant,
            "setup_s": record["t_first"] - t_spawn,
            "wall_s": wall_s,
            "cpu_s": record["cpu_s"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
        if kind:
            main_s = record["t_end"] - record["t_main"]
            result.update(layer_metrics(record["trace"], wall_s, main_s))
            if abs(result["trace.accounted_frac"] - 1.0) > ACCOUNTED_TOL:
                problems.append(f"repeat {i}: span self times cover "
                                f"{result['trace.accounted_frac']:.4f} of the traced run")
        done[kind].append({**result, "absent": record["absent"]
                           + (record["trace"] or {}).get("absent", []),
                           "notes": (record["trace"] or {}).get("notes", [])})

    if not all(done[k] for k in kinds):
        print(f"perfbench: no successful repeat: {problems}", file=sys.stderr)
        return 1
    if len(ref_ops) < variants:
        problems.append(f"only {len(ref_ops)} of {variants} seed variants ran")

    quality = quality_table(list(ref_ops.values()))
    m = str(wl["quality_m"])
    if any(m not in quality.get(alg, {}) for alg in ("giga", "fw")):
        print(f"perfbench: no giga/fw rows at the quality budget M={m}", file=sys.stderr)
        return 1
    if args.trace:
        traced = done[True]
        values = {name: median_of(traced, name) for name in traced[0]
                  if isinstance(traced[0][name], (int, float))}
        values["trace_overhead_frac"] = (values["trace.wall_s"]
                                         / median_of(done[False], "wall_s") - 1.0)
    else:
        plain = done[False]
        values = {name: median_of(plain, name)
                  for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
        values["giga_err"] = quality["giga"][m]
        values["fw_err"] = quality["fw"][m]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    absent = sorted({a for k in kinds for r in done[k] for a in r["absent"]})
    notes = sorted({x for k in kinds for r in done[k] for x in r["notes"]})
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "shape": wl,
        "meta": {"git_sha": git_sha(), **warm["meta"]},
        "repeats": {("traced" if k else "untraced"): len(done[k]) for k in kinds},
        "per_repeat": {("traced" if k else "untraced"): done[k] for k in kinds},
        "median_rel_error": quality,
        "absent_targets": absent,
        "trace_notes": notes,
        "waiting": WAITING,
        "problems": problems,
    }
    out = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    with open(ROOT / ".perfbench" / f"{name}.json", "w") as fh:
        json.dump({**info, "result": out}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
