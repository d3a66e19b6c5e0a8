"""``scripts/bench_snapshot.py``'s tables, on a canned ``perfbench/run.py``
record: medians and units are copied, and each metric carries the inclusive
quartiles of its per-repeat values, or None where it has none. No benchmark
is run."""

import statistics

import pytest

from conftest import load

SNAPSHOT = load("scripts/bench_snapshot.py")

RESULT = {"metrics": {
    "wall_s": {"value": 0.31, "unit": "s"},
    "peak_rss_mb": {"value": 55.5, "unit": "MB"},
    "giga_err": {"value": 2.5e-3, "unit": "ratio"},
    "fw_err": {"value": 4.0e-3, "unit": "ratio"},
    "trace.accounted_frac": {"value": 0.97, "unit": "ratio"},
}}
REPEATS = [
    {"wall_s": 0.30, "peak_rss_mb": 55.4, "giga_err": 2.4e-3, "fw_err": 3.9e-3},
    {"wall_s": 0.33, "peak_rss_mb": 55.5, "giga_err": 2.6e-3, "fw_err": 4.1e-3},
    {"wall_s": 0.31, "peak_rss_mb": 55.9, "giga_err": 2.5e-3, "fw_err": 4.0e-3,
     "trace.accounted_frac": 0.97},
    {"wall_s": 0.36, "peak_rss_mb": 55.6, "giga_err": 2.5e-3, "fw_err": 4.0e-3,
     "trace.accounted_frac": "n/a"},
]


def test_medians_and_units_are_copied():
    table = SNAPSHOT.table(RESULT, REPEATS)
    assert list(table) == list(RESULT["metrics"])
    for name, metric in RESULT["metrics"].items():
        assert (table[name]["median"], table[name]["unit"]) == (metric["value"], metric["unit"])


def test_quartiles_are_the_inclusive_ones_of_the_repeats():
    table = SNAPSHOT.table(RESULT, REPEATS)
    for name in ("wall_s", "peak_rss_mb"):
        q1, _, q3 = statistics.quantiles([r[name] for r in REPEATS], n=4, method="inclusive")
        assert table[name]["quartiles"] == [q1, q3]
    assert table["wall_s"]["quartiles"] == pytest.approx([0.3075, 0.3375])


def test_pooled_errors_and_single_values_have_no_quartiles():
    table = SNAPSHOT.table(RESULT, REPEATS)
    # medians over pooled trials, not over repeats
    assert table["giga_err"]["quartiles"] is None and table["fw_err"]["quartiles"] is None
    # one numeric repeat value: a string is not counted
    assert table["trace.accounted_frac"]["quartiles"] is None
    assert SNAPSHOT.table(RESULT, REPEATS[:1])["wall_s"]["quartiles"] is None
    assert SNAPSHOT.quartiles([]) is None and SNAPSHOT.quartiles([1.0]) is None
    assert SNAPSHOT.quartiles([1.0, 3.0]) == [1.5, 2.5]
