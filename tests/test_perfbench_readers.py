"""The run records keep what ``perfbench/spans.py`` reads from them.

The benchmark counts construction work from the ``(weights, run)`` pair
that ``giga.run`` and ``fw_coreset`` return: ``len(run.traces)`` and
``run.stop_reason`` for GIGA, ``len(run.selected)`` for FW. A record that
lost one of these names would not fail the benchmark; it would note the
miss and report zero work. Its observers are called here directly, with a
stand-in for its recorder: ``spans.Recorder()`` patches the package for
the rest of the process.
"""

from collections import defaultdict

import numpy as np

from corebench.baselines import fw_coreset
from corebench.giga import run as giga_run
from corebench.hilbert import build_problem

from conftest import load

spans = load("perfbench/spans.py")


class CountsOnly:
    """The part of ``spans.Recorder`` that the observers use."""

    def __init__(self):
        self.counts = defaultdict(float)
        self.notes = []

    def note(self, message: str):
        self.notes.append(message)


def test_observers_count_the_steps_of_real_runs():
    p = build_problem(np.random.default_rng(0).normal(size=(300, 5)))
    rec = CountsOnly()
    giga_steps = 0
    for M in (3, 200):                  # the budget runs out, then GIGA converges
        result = giga_run(p, M, checkpoints=[1, M])
        spans._OBSERVERS["giga.run"](rec, (p, M), {"checkpoints": [1, M]}, result)
        giga_steps += len(result[1].times)
    fw = fw_coreset(p, 300)
    spans._OBSERVERS["baselines.fw"](rec, (p, 300), {}, fw)

    assert rec.notes == []
    assert rec.counts["giga.useful_steps"] == giga_steps
    assert rec.counts["giga.budget"] == 203
    assert rec.counts["giga.converged"] == 1
    assert rec.counts["fw.steps"] == len(fw[1].times) > 1
