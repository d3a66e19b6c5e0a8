#!/usr/bin/env python3
"""In-process A/B timing of one corebench layer between two checkouts.

Usage: python3 scripts/ab.py --against DIR [--layer LAYER] [--workload NAME]

Imports ``corebench`` from ``DIR/src`` (side A) and from this checkout's
``src/`` (side B) under two package names, so both sides run in one process.
The package uses relative imports only, so each side runs its own modules.
Each side builds its inputs at the shape of the workload NAME of
``perfbench/run.py`` (its ``WORKLOADS``, read only; default synth-gauss)
through its own ``cli.parse`` and ``bench._trial_problems``, at seed 0.

One pass calls the layer LAYER once per trial of the workload:

* ``run_experiment`` -- ``bench.run_experiment`` of all trials, then
  ``bench.write_csv`` into memory: one call per pass;
* ``build_problem`` -- on each trial's rows sigma_n ell_n, taken from side
  A's problem, so both sides get the same input;
* ``giga.run`` and ``fw_coreset`` -- at the workload's budget and grid;
* ``sampling_sweep`` -- IS, then RND, over the workload's grid, each at
  the trial's stream seed for it (two calls per trial);
* ``relative_error`` -- of GIGA's final weights.

After one warm-up pass per side, passes run in the order A B B A,
``ROTATIONS`` (24) times. A rotation's ratio is B's time over A's, each the sum of
its two passes. Printed: each side's median time per call, the median
ratio, how many rotations read lower on B, and a bootstrap 95% interval
of the median ratio. The garbage collector runs before every pass, so
one side's garbage is not collected on the other's clock.

The bits check hashes each side's warm-up output: the contract columns
``trial,algorithm,M,rel_error,size`` and ``extra`` for ``run_experiment``;
every array and scalar of the problem for ``build_problem``; each ``Step``
(pick, step size, score, residual), the stop reason and every snapshot's
indices and values for ``giga.run`` and ``fw_coreset``; each budget's
indices and values for ``sampling_sweep``; and each value for
``relative_error``. The exit status is 1 when the two hashes differ.

It measures time only: both sides share the heap and the BLAS pool, so
memory is compared by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("run_experiment", "build_problem", "giga.run", "fw_coreset", "sampling_sweep",
          "relative_error")
ROTATIONS = 24
SEED = 0
BOOTSTRAP = 2000


def _load(path: Path, name: str, package_dir: Path | None = None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def import_tree(root: Path, name: str) -> dict:
    """The modules of ``root``'s corebench, imported afresh as package
    ``name``: modules left under that name by an earlier call are dropped."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    package = Path(root).resolve() / "src" / "corebench"
    _load(package / "__init__.py", name, package)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("baselines", "bench", "cli", "giga", "hilbert")}


def _perfbench():
    return _load(ROOT / "perfbench" / "run.py", "_ab_perfbench_run")


def workload_argv(workload: str) -> list[str]:
    """The CLI arguments of a ``perfbench/run.py`` workload at ``SEED``."""
    perfbench = _perfbench()
    wl = perfbench.WORKLOADS[workload]
    return wl["argv"] + ["--trials", str(wl["trials"]), "--m-max", str(wl["m_max"]),
                         "--algs", ",".join(perfbench.ALGORITHMS), "--seed", str(SEED)]


def prepare(side: dict, layer: str, argv: list[str], rows=None):
    """``(one_pass, calls)``: a function that runs one pass of ``layer`` on
    ``side`` and returns its outputs, and the calls it makes. ``rows``
    are the ``build_problem`` inputs (see ``problem_rows``)."""
    bench, giga, hilbert = side["bench"], side["giga"], side["hilbert"]
    spec, _ = side["cli"].parse(argv)
    if layer == "run_experiment":
        def one_pass():
            rows_out = bench.run_experiment(spec)
            bench.write_csv(rows_out, io.StringIO())
            return rows_out
        return one_pass, 1
    if layer == "build_problem":
        return (lambda: [hilbert.build_problem(r) for r in rows]), len(rows)
    problem_of = bench._trial_problems(spec)
    problems = [problem_of(trial)[0] for trial in range(spec.trials)]
    grid = bench.log_grid(spec.m_max)
    if layer in ("giga.run", "fw_coreset"):
        construct = giga.run if layer == "giga.run" else side["baselines"].fw_coreset
        return (lambda: [construct(p, grid[-1], checkpoints=grid) for p in problems]), len(problems)
    if layer == "sampling_sweep":
        sweep = side["baselines"].sampling_sweep
        calls = [(p, bench._stream_seed(spec.seed, trial, purpose), method)
                 for trial, p in enumerate(problems)
                 for purpose, method in ((bench._STREAM_IS, "IS"), (bench._STREAM_RND, "RND"))]
        return (lambda: [sweep(p, grid, seed, method) for p, seed, method in calls]), len(calls)
    if layer == "relative_error":
        weights = [giga.run(p, grid[-1])[0] for p in problems]
        return (lambda: [hilbert.relative_error(p, w) for p, w in zip(problems, weights)]), len(problems)
    raise ValueError(f"unknown layer {layer!r}; choose from {', '.join(LAYERS)}")


def problem_rows(side: dict, argv: list[str]) -> list:
    """Each trial's rows sigma_n ell_n, from ``side``'s problems."""
    spec, _ = side["cli"].parse(argv)
    problem_of = side["bench"]._trial_problems(spec)
    return [p.norms[:, None] * p.unit_vectors
            for p in (problem_of(trial)[0] for trial in range(spec.trials))]


def digest(layer: str, outputs) -> str:
    """A hash of one pass's outputs: the bits that ``layer`` must keep."""
    h = hashlib.sha256()

    def put(*items):
        for item in items:
            h.update(item.tobytes() if hasattr(item, "tobytes") else repr(item).encode())

    for out in outputs:
        if layer == "run_experiment":
            put(out.trial, out.algorithm, out.M, out.rel_error, out.size, out.extra)
        elif layer == "build_problem":
            put(out.norms, out.sigma_total, out.target, out.target_norm, out.unit_vectors,
                out.unit_target, out.unit_scores, out.kept_indices, out.trivial, out.floor)
        elif layer == "relative_error":
            put(out)
        elif layer == "sampling_sweep":
            for m in sorted(out):
                put(m, out[m].indices, out[m].values)
        else:
            final, run = out
            put(final.indices, final.values, run.stop_reason)
            for step in run.traces:
                put(step.n_t, step.gamma, step.score, step.residual)
            for m in sorted(run.snapshots):
                put(m, run.snapshots[m].indices, run.snapshots[m].values)
    return h.hexdigest()


def timed(one_pass) -> float:
    gc.collect()
    t0 = time.perf_counter()
    one_pass()
    return time.perf_counter() - t0


def bootstrap_interval(ratios: list[float]) -> tuple[float, float]:
    """95% percentile interval of the median ratio over resampled rotations."""
    rng = random.Random(SEED)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def compare(against: Path, layer: str = "run_experiment", workload: str = "synth-gauss") -> dict:
    """Time ``layer`` on both trees in ABBA order; see the module docstring."""
    argv = workload_argv(workload)
    sides = {"A": import_tree(against, "_ab_side_a"), "B": import_tree(ROOT, "_ab_side_b")}
    rows = problem_rows(sides["A"], argv) if layer == "build_problem" else None
    passes, hashes = {}, {}
    for name, side in sides.items():
        one_pass, calls = prepare(side, layer, argv, rows)
        passes[name] = one_pass
        hashes[name] = digest(layer, one_pass())      # the warm-up pass
    times = {"A": [], "B": []}
    ratios = []
    for _ in range(ROTATIONS):
        a1, b1, b2, a2 = (timed(passes[name]) for name in "ABBA")
        times["A"] += [a1, a2]
        times["B"] += [b1, b2]
        ratios.append((b1 + b2) / (a1 + a2))
    return dict(
        layer=layer, workload=workload, calls=calls,
        per_call={name: statistics.median(t) / calls for name, t in times.items()},
        ratio=statistics.median(ratios), lower=sum(r < 1.0 for r in ratios),
        interval=bootstrap_interval(ratios), ratios=ratios,
        hashes=hashes, equal=hashes["A"] == hashes["B"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="the other checkout (side A); this one is side B")
    parser.add_argument("--layer", choices=LAYERS, default="run_experiment")
    parser.add_argument("--workload", choices=sorted(_perfbench().WORKLOADS),
                        default="synth-gauss")
    args = parser.parse_args(argv)
    r = compare(args.against, args.layer, args.workload)
    print(f"layer {r['layer']}, workload {r['workload']}, seed {SEED}, "
          f"{ROTATIONS} ABBA rotations, {r['calls']} calls per pass")
    for name, root in (("A", args.against.resolve()), ("B", ROOT)):
        print(f"{name} {root}: median {r['per_call'][name] * 1e6:.1f} us per call")
    low, high = r["interval"]
    print(f"ratio B/A: median {r['ratio']:.3f}, lower in {r['lower']} of {ROTATIONS} "
          f"rotations, 95% bootstrap interval [{low:.3f}, {high:.3f}]")
    print(f"hashes: A {r['hashes']['A'][:16]}, B {r['hashes']['B'][:16]}, "
          f"{'equal' if r['equal'] else 'DIFFER'}")
    return 0 if r["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
