"""``scripts/ab.py``: with this tree on both sides, the A/B timing runs its
rotations and the two sides' outputs hash alike; a package name reused for
another tree imports that tree's modules."""

import math
import shutil
from pathlib import Path

import pytest

from conftest import ROOT, load

AB = load("scripts/ab.py")
SMALL = ["synth-vectors", "--n", "200", "--dim", "5", "--trials", "2", "--m-max", "20",
         "--algs", "giga,fw,is,rnd", "--seed", "3"]


def test_same_tree_hashes_alike_over_every_rotation():
    # structure only: a wall-clock ratio is too noisy for the unit suite
    r = AB.compare(ROOT, layer="relative_error", workload="synth-gauss")
    assert r["equal"]
    assert len(r["ratios"]) == AB.ROTATIONS == 24
    assert all(math.isfinite(x) and x > 0 for x in r["ratios"])
    low, high = r["interval"]
    assert 0 < low <= r["ratio"] <= high < math.inf
    assert 0 <= r["lower"] <= 24


def test_a_reused_name_imports_the_new_tree(tmp_path):
    shutil.copytree(ROOT / "src" / "corebench", tmp_path / "src" / "corebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for root in (ROOT, tmp_path, ROOT):
        side = AB.import_tree(root, "_ab_test_reused")
        package = (root / "src" / "corebench").resolve()
        assert all(Path(mod.__file__).resolve().parent == package for mod in side.values())


@pytest.mark.parametrize("layer", AB.LAYERS)
def test_each_layer_hashes_alike_on_both_sides(layer):
    sides = [AB.import_tree(ROOT, name) for name in ("_ab_test_a", "_ab_test_b")]
    rows = AB.problem_rows(sides[0], SMALL)
    digests = {AB.digest(layer, AB.prepare(side, layer, SMALL, rows)[0]()) for side in sides}
    assert len(digests) == 1
    # the hash reads the outputs: another seed gives other outputs
    other = SMALL[:-1] + ["4"]
    rows = AB.problem_rows(sides[0], other)
    assert AB.digest(layer, AB.prepare(sides[0], layer, other, rows)[0]()) not in digests
