"""Command-line entry point: one subcommand per experiment, CSV out.

``parse`` turns a command line into an ``ExperimentSpec``; each flag's
``dest`` is a spec field. A flag the user leaves out is absent from the
parsed namespace (``argparse.SUPPRESS``), so the spec's own default applies,
except for the seed and the sizes in ``bench.EXPERIMENTS``.

Exit codes: 0 on success, 1 on usage errors (those in a subcommand's flags
print its usage) and on inputs too large to allocate, 2 on data errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .bench import (ALGORITHMS, EXPERIMENTS, DataError, ExperimentSpec, run_experiment,
                    write_csv)
from .models import REGRESSION_MODELS


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _algorithms(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corebench",
                     description="Coreset construction benchmarks (CSV output).")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                parser_class=_Parser)
    for name, sizes in EXPERIMENTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment",
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--n", type=int, help="dataset size (default %(default)s)")
        if name == "synth-vectors":
            p.add_argument("--dim", type=int,
                           help="vector dimension (default %(default)s)")
        elif name == "synth-gauss":
            p.add_argument("--dim", type=int, help="accepted and ignored")
        p.add_argument("--trials", type=int,
                       help="independent trials (default %(default)s)")
        p.add_argument("--m-max", type=int,
                       help="largest construction budget (default %(default)s)")
        p.add_argument("--algs", dest="algorithms", type=_algorithms, metavar="ALGS",
                       help=f"comma-separated subset of {','.join(ALGORITHMS)}")
        p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        if name == "regress":
            p.add_argument("--model", choices=REGRESSION_MODELS)
            p.add_argument("--input", dest="input_path", metavar="INPUT",
                           help="CSV dataset (default: synthetic)")
            p.add_argument("--label-col", help="label column name for --input "
                                               f"(default {ExperimentSpec.label_col})")
            p.add_argument("--standardize", action="store_true",
                           help="standardize features from --input")
        p.set_defaults(**sizes, command=p)
    return parser


def parse(argv=None) -> tuple[ExperimentSpec, str | None]:
    """The spec and the ``--out`` path (None: stdout) of a command line."""
    args, unknown = build_parser().parse_known_args(argv)
    args = vars(args)
    command = args.pop("command")
    if unknown:
        command.error(f"unrecognized arguments: {' '.join(unknown)}")
    out_path = args.pop("out")
    if "input_path" not in args and args.keys() & {"label_col", "standardize"}:
        command.error("--label-col and --standardize need --input")
    try:
        return ExperimentSpec(**args), out_path
    except ValueError as exc:
        command.error(str(exc))


def _discard_unwritten(fh) -> None:
    """Point a failed output's descriptor at the null device, so that the
    rows still buffered go nowhere when the file is closed or stdout is
    flushed at exit, instead of failing a second time."""
    with contextlib.suppress(OSError, ValueError):
        fd = fh.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, fd)
        finally:
            os.close(null)


def _fail(message: str):
    print(f"corebench: error: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv=None) -> int:
    spec, out_path = parse(argv)

    # --out is opened before the run, so a bad path costs no work; like
    # shell redirection, a data error leaves the file empty. Opening the
    # --input file for writing would empty it before it is read.
    out = contextlib.nullcontext(sys.stdout)
    if out_path:
        with contextlib.suppress(OSError):
            if spec.input_path and os.path.samefile(out_path, spec.input_path):
                _fail(f"--out {out_path} is the --input file")
        try:
            out = open(out_path, "w", newline="")
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc.strerror}")
    with out as fh:
        try:
            rows = run_experiment(spec)
        except DataError as exc:
            print(f"corebench: data error: {exc}", file=sys.stderr)
            return 2
        except MemoryError as exc:
            print(f"corebench: error: out of memory: {exc}", file=sys.stderr)
            return 1
        try:
            write_csv(rows, fh)
            fh.flush()
            if out_path:
                fh.close()      # a failing close at the end of the with would escape
        except OSError as exc:
            _discard_unwritten(fh)
            _fail(f"cannot write {out_path or 'stdout'}: {exc.strerror or exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
