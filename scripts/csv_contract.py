#!/usr/bin/env python3
"""Print the behaviour-contract columns of the four experiments, in five runs.

Usage: python3 scripts/csv_contract.py > contract.txt

Runs synth-gauss, synth-vectors, ortho and regress (logistic and poisson)
through ``corebench.cli.main`` at small fixed shapes and one seed, and
prints the columns ``trial,algorithm,M,rel_error,size`` of each, under a
``# <arguments>`` line. Timing and the ``extra`` column are left out. A
refactor keeps the contract when ``diff`` of this output from two checkouts
is empty. The package is imported from this checkout's ``src/``.

A change that only rounds differently keeps it within floors, the rule of
``rows_agree``, which ``tests/test_contract.py`` applies to every row
against the reference output in ``tests/data/contract.txt``. Each row is
judged against ``problem.floor`` (``eps * sigma / ||L||``) of the problem
its trial builds, which ``trial_floors`` rebuilds.

Rows at the float floor are byte-stable only on the same BLAS build and
thread count: the synth-vectors rows with ``rel_error`` at or below about
1e-13 (GIGA's sizes there and the FW rows alike) are set by float rounding
in the last steps, so a different BLAS can change them with identical code.
In the same way the regress rows depend on numpy's ``exp`` build and the CPU
features it dispatches on: the sigmoid uses ``np.exp``, whose SIMD loops
can round the last bit differently from libm's.
"""

import csv
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from corebench.bench import _trial_problems  # noqa: E402
from corebench.cli import main, parse  # noqa: E402

SEED = "7"
RUNS = [
    ["synth-gauss", "--trials", "200"],
    ["synth-vectors", "--n", "2000", "--dim", "20", "--trials", "3", "--m-max", "500"],
    ["ortho", "--n", "300", "--m-max", "300"],
    ["regress", "--model", "logistic", "--n", "1000", "--trials", "2", "--m-max", "300"],
    ["regress", "--model", "poisson", "--n", "1000", "--trials", "2", "--m-max", "300"],
]
COLUMNS = ("trial", "algorithm", "M", "rel_error", "size")


def contract_rows(argv: list[str]) -> list[str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv + ["--seed", SEED])
    if code != 0:
        raise SystemExit(f"corebench {' '.join(argv)} exited {code}")
    rows = csv.DictReader(io.StringIO(buf.getvalue()))
    return [",".join(row[c] for c in COLUMNS) for row in rows]


def trial_floors(argv: list[str]) -> list[float]:
    """``problem.floor`` of each trial's problem, built as the run builds it."""
    spec, _ = parse(argv + ["--seed", SEED])
    problem_of = _trial_problems(spec)
    return [problem_of(trial)[0].floor for trial in range(spec.trials)]


def rows_agree(reference: str, row: str, floor: float) -> bool:
    """Whether a contract row keeps its reference row up to rounding.

    It does when the two are byte-equal; or when their ``trial,algorithm,M``
    and ``size`` are equal and their ``rel_error`` values differ by at most
    2 floors or 4 ulp of the reference value; or when their
    ``trial,algorithm,M`` are equal and both ``rel_error`` values are at
    most 4 floors, where the sizes may differ (the float floor sets which
    rows the last steps pick there). Anything else fails.
    """
    if row == reference:
        return True
    *key_ref, err_ref, size_ref = reference.split(",")
    *key, err, size = row.split(",")
    if key != key_ref:
        return False
    a, b = float(err_ref), float(err)
    if size == size_ref and abs(a - b) <= max(2 * floor, 4 * np.spacing(abs(a))):
        return True
    return max(a, b) <= 4 * floor


if __name__ == "__main__":
    for argv in RUNS:
        print("# " + " ".join(argv))
        print(",".join(COLUMNS))
        for line in contract_rows(argv):
            print(line)
