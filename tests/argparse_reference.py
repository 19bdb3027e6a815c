"""The command line as an argparse parser: a test-only reference that the table
parser in `trifourier.cli` is compared against.  It declares the same commands,
options, choices and defaults on its own, sharing nothing with the table but
`even_dim`, and reports each outcome in the form the table parser gives it."""

import argparse
import contextlib
import io

from trifourier.cli import even_dim


def _dim(text: str) -> int:
    try:
        return even_dim(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trifourier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family")
    p_family.add_argument("--dim", type=_dim, required=True)
    p_family.add_argument("--format", choices=("text", "json"), default="text")

    p_matrix = sub.add_parser("matrix")
    p_matrix.add_argument("--dim", type=_dim, required=True)
    p_matrix.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--dim", type=_dim, required=True)
    p_verify.add_argument("--suite", choices=("all", "family", "fourier", "dihedral", "counts"), default="all")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_na = sub.add_parser("nonabelian")
    p_na.add_argument("--group", choices=("s3", "s4", "s5"), required=True)
    p_na.add_argument("--variant", choices=("g2", "e"), default="g2")
    p_na.add_argument("--check", choices=("matrix", "involution", "trace", "hyperplane", "newbasis"), required=True)
    p_na.add_argument("--basis")
    p_na.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def outcome(parse, argv: list[str]) -> tuple:
    """("ok", values) for an accepted argv, ("help",) for a help request (exit 0), or
    ("error", code, last stderr line) for a refused one."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("ok", vars(parse(list(argv))))
        except SystemExit as exc:
            if exc.code == 0:
                return ("help",)
            lines = err.getvalue().splitlines()
            return ("error", exc.code, lines[-1] if lines else None)
