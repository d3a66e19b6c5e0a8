"""The behaviour contract holds within floors.

``scripts/csv_contract.py`` prints the ``trial,algorithm,M,rel_error,size``
columns of five small runs; ``tests/data/contract.txt`` is a reference copy
of that output. Every row must keep its reference row by the script's
``rows_agree`` rule: byte-equal, or moved by rounding alone, judged against
the float floor of the problem its trial builds.
"""

import numpy as np
import pytest

from conftest import ROOT, load

CONTRACT = load("scripts/csv_contract.py")
REFERENCE = ROOT / "tests" / "data" / "contract.txt"


def reference_blocks() -> dict[str, list[str]]:
    """The reference rows of each run, keyed by the run's ``#`` line."""
    blocks = {}
    for line in REFERENCE.read_text().splitlines():
        if line.startswith("# "):
            rows = blocks[line[2:]] = []
        elif line != ",".join(CONTRACT.COLUMNS):
            rows.append(line)
    return blocks


def test_contract_rows_within_floors():
    reference = reference_blocks()
    assert list(reference) == [" ".join(argv) for argv in CONTRACT.RUNS]
    failing = []
    for argv in CONTRACT.RUNS:
        expected = reference[" ".join(argv)]
        rows = CONTRACT.contract_rows(argv)
        floors = CONTRACT.trial_floors(argv)
        assert len(rows) == len(expected), argv
        for ref, row in zip(expected, rows):
            floor = floors[int(row.split(",")[0])]
            if not CONTRACT.rows_agree(ref, row, floor):
                failing.append(f"{' '.join(argv)}: {ref} -> {row} (floor {floor:.3e})")
    assert not failing, f"{len(failing)} rows fail:\n" + "\n".join(failing[:20])


class TestRowsAgree:
    FLOOR = 2.5e-15

    @pytest.mark.parametrize("row", ["3,giga,17,0.0123,9", "0,rnd,1,inf,1"])
    def test_byte_equal_passes(self, row):
        assert CONTRACT.rows_agree(row, row, 0.0)

    def test_ulp_drift_passes(self):
        value = 0.15381097113891956
        drifted = value + 2 * float(np.spacing(value))
        assert CONTRACT.rows_agree(f"0,giga,1,{value!r},1", f"0,giga,1,{drifted!r},1",
                                   1e-20)

    def test_five_ulp_drift_above_the_floors_fails(self):
        value = 0.15381097113891956
        drifted = value + 5 * float(np.spacing(value))
        assert not CONTRACT.rows_agree(f"0,giga,1,{value!r},1", f"0,giga,1,{drifted!r},1",
                                       1e-20)

    def test_move_within_two_floors_at_equal_size_passes(self):
        # 4e-15 is 1.6 floors
        assert CONTRACT.rows_agree("1,fw,300,1e-12,80", "1,fw,300,1.004e-12,80", self.FLOOR)

    def test_size_change_within_four_floors_passes(self):
        # both rows at the floor: the last steps' picks are set by rounding
        assert CONTRACT.rows_agree("0,fw,300,9e-15,121", "0,fw,300,8e-15,125", self.FLOOR)

    def test_size_change_with_one_row_above_four_floors_fails(self):
        assert not CONTRACT.rows_agree("0,fw,300,9e-15,121", "0,fw,300,1.1e-14,125",
                                       self.FLOOR)

    def test_three_floor_move_at_equal_size_fails(self):
        assert not CONTRACT.rows_agree("0,giga,100,1e-12,50", "0,giga,100,1.0075e-12,50",
                                       self.FLOOR)

    def test_other_row_fails(self):
        assert not CONTRACT.rows_agree("0,fw,1,1e-15,1", "0,giga,1,1e-15,1", self.FLOOR)
