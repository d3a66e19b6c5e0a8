#!/usr/bin/env python3
"""Run the five benchmark experiments at desk scale and write CSVs.

Usage: python3 scripts/run_experiments.py

Runs synth-gauss, synth-vectors, ortho and regress (logistic and poisson)
with their CLI defaults. Results land in ./results/ (one file per run; the
directory is not tracked). Equivalent to calling the `corebench` CLI once
per run; tweak the argument lists below or use the CLI directly for other
settings. The package is imported from this checkout's ``src/``.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from corebench.cli import main  # noqa: E402

OUT = pathlib.Path("results")

RUNS = {
    "synth_gauss.csv": ["synth-gauss"],
    "synth_vectors.csv": ["synth-vectors"],
    "ortho.csv": ["ortho"],
    "regress_logistic.csv": ["regress", "--model", "logistic"],
    "regress_poisson.csv": ["regress", "--model", "poisson"],
}

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for filename, args in RUNS.items():
        out = OUT / filename
        print(f"==> {' '.join(args)} -> {out}")
        code = main(args + ["--out", str(out)])
        if code != 0:
            sys.exit(code)
    print("done.")
