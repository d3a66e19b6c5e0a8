"""Command-line entry point: one subcommand per experiment, CSV out.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .bench import (
    ALGORITHMS,
    DataError,
    ExperimentSpec,
    run_experiment,
    write_csv,
)

_DEFAULTS = {
    "synth-gauss": dict(n=10, dim=2, trials=1000, m_max=1),
    "synth-vectors": dict(n=10_000, dim=50, trials=20, m_max=1000),
    "ortho": dict(n=1000, dim=0, trials=1, m_max=1000),
    "regress": dict(n=2000, dim=0, trials=20, m_max=1000),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; argparse's default of 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corebench",
                     description="Coreset construction benchmarks (CSV output).")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                parser_class=_Parser)
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--n", type=int, default=defaults["n"],
                       help="dataset size (default %(default)s)")
        p.add_argument("--dim", type=int, default=defaults["dim"],
                       help="vector dimension where applicable (default %(default)s)")
        p.add_argument("--trials", type=int, default=defaults["trials"],
                       help="independent trials (default %(default)s)")
        p.add_argument("--m-max", type=int, default=defaults["m_max"],
                       help="largest construction budget (default %(default)s)")
        p.add_argument("--algs", default=",".join(ALGORITHMS),
                       help="comma-separated subset of giga,fw,is,rnd")
        p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        if name == "regress":
            p.add_argument("--model", choices=("logistic", "poisson"),
                           default="logistic")
            p.add_argument("--input", default=None,
                           help="CSV dataset (default: synthetic)")
            p.add_argument("--label-col", default="y",
                           help="label column name for --input (default %(default)s)")
            p.add_argument("--standardize", action="store_true",
                           help="standardize features from --input")
            p.add_argument("--proj-samples", type=int, default=None,
                           help="posterior gradient samples (default: ~500/(D+1))")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        spec = ExperimentSpec(
            experiment=args.experiment,
            n=args.n,
            dim=args.dim,
            m_max=args.m_max,
            trials=args.trials,
            seed=args.seed,
            algorithms=tuple(a.strip() for a in args.algs.split(",") if a.strip()),
            model=getattr(args, "model", "logistic"),
            input_path=getattr(args, "input", None),
            label_col=getattr(args, "label_col", "y"),
            standardize=getattr(args, "standardize", False),
            proj_samples=getattr(args, "proj_samples", None),
        )
    except ValueError as exc:
        parser.error(str(exc))

    # --out is opened before the run, so a bad path costs no work; like
    # shell redirection, a data error leaves the file empty
    out = contextlib.nullcontext(sys.stdout)
    if args.out:
        try:
            out = open(args.out, "w", newline="")
        except OSError as exc:
            parser.exit(1, f"{parser.prog}: error: cannot write {args.out}: {exc.strerror}\n")
    with out as fh:
        try:
            rows = run_experiment(spec)
        except DataError as exc:
            print(f"corebench: data error: {exc}", file=sys.stderr)
            return 2
        write_csv(rows, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
