"""The command lines that the repository's tools pass to the CLI still parse.

``scripts/csv_contract.py`` and ``perfbench/run.py`` each keep their own
argv lists, so a renamed or dropped flag would only show when one of them is
run. Each argv here must pass ``cli.parse``, under the same rules as
``cli.main``, and give an ``ExperimentSpec``; the contract script is also
run once to check the shape of its output.
"""

import subprocess
import sys

import pytest

from corebench.bench import log_grid
from corebench.cli import parse

from conftest import ROOT, load


CONTRACT = load("scripts/csv_contract.py")
PERFBENCH = load("perfbench/run.py")


def perfbench_argv(workload: dict) -> list[str]:
    """A workload's argv with the flags ``perfbench/run.py`` appends to it."""
    return workload["argv"] + ["--trials", str(workload["trials"]),
                               "--m-max", str(workload["m_max"]),
                               "--algs", ",".join(PERFBENCH.ALGORITHMS),
                               "--seed", "0", "--out", "r1.csv"]


ARGVS = (
    [("csv_contract", argv + ["--seed", CONTRACT.SEED]) for argv in CONTRACT.RUNS]
    + [(f"perfbench {name}", perfbench_argv(wl)) for name, wl in PERFBENCH.WORKLOADS.items()]
    + [(f"perfbench tiny {name}", perfbench_argv(wl)) for name, wl in PERFBENCH.TINY.items()]
)


@pytest.mark.parametrize("argv", [argv for _, argv in ARGVS],
                         ids=[f"{tool}: {' '.join(argv[:3])}" for tool, argv in ARGVS])
def test_tool_argv_parses_to_a_spec(argv):
    assert parse(argv)[0].experiment == argv[0]


def test_contract_script_prints_every_block():
    done = subprocess.run([sys.executable, "scripts/csv_contract.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("# ")]
    assert [lines[i] for i in starts] == ["# " + " ".join(argv) for argv in CONTRACT.RUNS]
    for i, end, argv in zip(starts, starts[1:] + [len(lines)], CONTRACT.RUNS):
        assert lines[i + 1] == ",".join(CONTRACT.COLUMNS)
        spec, _ = parse(argv + ["--seed", CONTRACT.SEED])
        rows = spec.trials * len(spec.algorithms) * len(log_grid(spec.m_max))
        assert end - i - 2 == rows, " ".join(argv)
