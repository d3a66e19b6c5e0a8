#!/usr/bin/env python3
"""Write a snapshot of the benchmark to ``BENCH_<LABEL>.json``.

Usage: python3 scripts/bench_snapshot.py LABEL

Runs this checkout's ``perfbench/run.py`` on each workload, once untraced
and once traced, with seed 0 and the run length ``run_seconds`` of
``BENCHMARK.json``, and writes ``BENCH_<LABEL>.json`` at the root of this
checkout. Per workload the file holds:

* the six end-to-end medians, each with the quartiles of its repeats;
* the per-layer table of the traced run, with the same quartiles;
* the median ``rel_error`` of every (algorithm, M) pair;
* whether every operation was correct, and how many were attempted and failed.

The run metadata (git sha, Python, numpy, scipy, BLAS, nproc) and the
command line go at the top. ``giga_err`` and ``fw_err`` are medians over
the pooled trials of all seed variants, not over repeats, so they have no
quartiles. Every number comes from the record that ``run.py`` saves under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("regress-logistic", "synth-vectors", "synth-gauss")
SEED = 0
POOLED = ("giga_err", "fw_err")        # medians over trials, not repeats


def quartiles(values: list[float]) -> list[float] | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def table(result: dict, repeats: list[dict]) -> dict:
    """Each metric of a run.py result with its unit and the quartiles of
    its per-repeat values (None where the repeats do not carry it)."""
    out = {}
    for name, metric in result["metrics"].items():
        values = [r[name] for r in repeats if isinstance(r.get(name), (int, float))]
        out[name] = {"median": metric["value"], "unit": metric["unit"],
                     "quartiles": None if name in POOLED else quartiles(values)}
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("+ " + " ".join(argv[1:]), file=sys.stderr, flush=True)
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    record = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def snapshot(label: str, seed: int, seconds: int) -> dict:
    meta, workloads = None, {}
    for workload in WORKLOADS:
        plain = run(workload, seed, seconds, 0)
        traced = run(workload, seed, seconds, 1)
        meta = meta or plain["meta"]
        workloads[workload] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"] + traced["result"]["attempted"],
            "failed": plain["result"]["failed"] + traced["result"]["failed"],
            "repeats": {"untraced": plain["repeats"]["untraced"],
                        "traced": traced["repeats"]["traced"]},
            "end_to_end": table(plain["result"], plain["per_repeat"]["untraced"]),
            "per_layer": table(traced["result"], traced["per_repeat"]["traced"]),
            "median_rel_error": plain["median_rel_error"],
            "problems": plain["problems"] + traced["problems"],
        }
    return {
        "label": label,
        "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": (f"perfbench/run.py --workload W --seed {seed} "
                    f"--seconds {seconds} --trace 0|1"),
        "meta": meta,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the output file BENCH_<LABEL>.json")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    data = snapshot(args.label, SEED, seconds)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
