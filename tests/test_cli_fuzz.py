"""Fuzz the CLI in-process: every run ends with exit 0, 1 or 2, never a traceback.

Usage errors leave ``main`` as ``SystemExit(1)``; success and data errors
are its return values 0 and 2. Any other exception escaping ``main`` fails
the test. Sizes are kept small (and include zero and negative values) so
that the whole run stays within a few seconds. Examples are derandomized,
so every run of the suite tries the same inputs.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from corebench.cli import main

CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-1e308", "1e308", "oops", "0x1", '"1,0"']),
)


@st.composite
def csv_bytes(draw) -> bytes:
    """A small, mostly well-formed CSV file in UTF-8 or UTF-16, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    header = draw(st.lists(st.sampled_from(["x", "y", "z", " y"]), min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(CELLS, min_size=len(header) - 1, max_size=len(header) + 1),
                         max_size=12))
    text = "\n".join(",".join(r) for r in [header] + rows)
    return text.encode(draw(st.sampled_from(["utf-8", "utf-16"])))


SIZES = {"--n": 40, "--m-max": 8, "--trials": 2, "--dim": 5}


@st.composite
def cli_runs(draw):
    """(argv with {tmp} placeholders, --input contents or None)."""
    experiment = draw(st.sampled_from(["synth-gauss", "synth-vectors", "ortho", "regress"]))
    # at most one option is out of range, so that most runs get past the checks
    bad = draw(st.sampled_from([None] * 6 + ["--seed", "--algs", *SIZES]))

    def size(flag):
        return str(draw(st.integers(-2, 0) if flag == bad else st.integers(1, SIZES[flag])))

    argv = [experiment]
    for flag in ("--n", "--m-max", "--trials", "--dim"):
        if flag != "--dim" or experiment.startswith("synth-"):    # only synth-* take --dim
            argv += [flag, size(flag)]
    argv += ["--seed", str(draw(st.integers(-3, -1) if bad == "--seed"
                                else st.integers(0, 2**64)))]
    algs = st.lists(st.sampled_from(["giga", "fw", "is", "rnd"]), min_size=1, max_size=4)
    if bad == "--algs":
        algs = st.lists(st.sampled_from(["giga", "bogus", ""]), max_size=2)
    argv += ["--algs", ",".join(draw(algs))]
    out = draw(st.sampled_from([None, "{tmp}/rows.csv", "{tmp}", "{tmp}/missing/rows.csv"]))
    if out is not None:
        argv += ["--out", out]
    data = None
    if experiment == "regress":
        argv += ["--model", draw(st.sampled_from(["logistic", "poisson"]))]
        if draw(st.booleans()):
            argv += ["--standardize"]
        if draw(st.booleans()):
            data = draw(csv_bytes())
            argv += ["--input", "{tmp}/data.csv",
                     "--label-col", draw(st.sampled_from(["y", "z"]))]
    return argv, data


@given(cli_runs())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_every_run_exits_cleanly(run):
    argv, data = run
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            Path(tmp, "data.csv").write_bytes(data)
        argv = [a.replace("{tmp}", tmp) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
        else:
            assert code in (0, 2), argv
