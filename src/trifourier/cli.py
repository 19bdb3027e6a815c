"""Command-line surface: table emission, matrix export, verification suites."""

from __future__ import annotations

import argparse
import io
import os
import sys

from .report import Report, fraction_string


def even_dim(text: str) -> int:
    from .gf2 import MAX_DIM

    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0 or value % 2:
        raise argparse.ArgumentTypeError(f"dimension must be even and >= 0, got {value}")
    if value > MAX_DIM:
        raise argparse.ArgumentTypeError(f"dimension must be <= {MAX_DIM}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifourier",
        description="Exact isotropic-subspace bases, triangular Fourier matrices, "
        "and non-abelian Fourier checks for small symmetric groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="emit the family grouped into fibers")
    p_family.add_argument("--dim", type=even_dim, required=True)
    p_family.add_argument("--format", choices=("text", "json"), default="text")

    p_matrix = sub.add_parser("matrix", help="emit the exact change-of-basis matrix")
    p_matrix.add_argument("--dim", type=even_dim, required=True)
    p_matrix.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run verification suites; exit 0 iff all pass")
    p_verify.add_argument("--dim", type=even_dim, required=True)
    p_verify.add_argument(
        "--suite", choices=("all", "family", "fourier", "dihedral", "counts"), default="all"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_na = sub.add_parser("nonabelian", help="checks on the group Fourier matrices")
    p_na.add_argument("--group", choices=("s3", "s4", "s5"), required=True)
    p_na.add_argument("--variant", choices=("g2", "e"), default="g2")
    p_na.add_argument(
        "--check",
        choices=("matrix", "involution", "trace", "hyperplane", "newbasis"),
        required=True,
    )
    p_na.add_argument("--basis", help="JSON basis file (required for s4/s5 newbasis)")
    p_na.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _print_json(doc) -> None:
    """Print doc as json.dumps(doc, indent=2, sort_keys=True) would, streamed in batches."""
    from .jsonout import dump

    dump(doc, sys.stdout.write)


def _emit_family(args) -> int:
    from .family import build_family, family_to_json, fiber_lines

    fam = build_family(args.dim)
    if args.format == "json":
        _print_json(family_to_json(fam))
    else:
        sys.stdout.write("".join(line + "\n" for line in fiber_lines(fam)))
    return 0


def _emit_matrix(args) -> int:
    from .family import build_family
    from .fourier import MAX_DENSE_DIM, change_of_basis

    if args.dim > MAX_DENSE_DIM:
        n = 1 << args.dim
        print(
            f"trifourier: matrix at --dim {args.dim} would write a {n} x {n} matrix "
            f"({n * n} entries); the largest --dim it accepts is {MAX_DENSE_DIM}",
            file=sys.stderr,
        )
        return 2
    cob = change_of_basis(build_family(args.dim))
    if args.format == "csv":
        from .jsonout import write_batched

        write_batched(cob.to_csv(), sys.stdout.write)
    else:
        _print_json(cob.to_json())
    return 0


def run_suite(dim: int, suite: str) -> Report:
    """Aggregate the selected per-module verification suites."""
    from . import family

    combined = Report(f"{suite} D={dim}")
    fam = family.build_family(dim)
    if suite in ("all", "counts"):
        combined.extend(family.verify_counts(fam))
    if suite in ("all", "family"):
        combined.extend(family.verify_structure(fam))
        same_p = family.family_subspaces(dim) == family.family_subspaces_prime(dim)
        combined.add("family:prime-recursion-equal", same_p)
        same_u = family.family_subspaces(dim) == family.family_subspaces_ucb(dim)
        combined.add("family:ucb-recursion-equal", same_u)
        if dim >= 4:
            from .taumaps import verify_composition_identity

            combined.extend(verify_composition_identity(dim))
    if suite in ("all", "dihedral"):
        from . import dihedral

        combined.extend(dihedral.verify_relations(fam.space))
        combined.extend(dihedral.verify_family_stability(fam))
        if dim >= 2:
            combined.extend(dihedral.verify_embedding_equivariance(dim))
    if suite in ("all", "fourier"):
        from . import fourier

        combined.extend(fourier.verify_change_of_basis(fourier.change_of_basis(fam)))
    return combined


def _run_verify(args) -> int:
    rep = run_suite(args.dim, args.suite)
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        print(rep.summary())
    return 0 if rep.ok else 1


def _run_nonabelian(args) -> int:
    from . import nonabelian

    # usage errors and bad basis files are refused before the Fourier matrix is built
    if args.format == "json" and args.check in ("involution", "trace"):
        print(f"--format json does not apply to --check {args.check}, which prints no report", file=sys.stderr)
        return 2
    if args.check == "hyperplane" and args.group != "s5":
        print("hyperplane check applies to s5 only", file=sys.stderr)
        return 2
    if args.check == "newbasis":
        # the embedded variants for s3 unless a file is supplied explicitly
        if args.basis:
            try:
                basis = nonabelian.load_basis_file(args.basis)
            except OSError as exc:
                print(f"bad basis file {args.basis}: {exc.strerror or exc}", file=sys.stderr)
                return 1
            except ValueError as exc:  # includes JSON syntax and text-encoding errors
                print(f"bad basis file {args.basis}: {exc}", file=sys.stderr)
                return 1
            if basis.group != args.group:
                print(f"basis file is for {basis.group}, not {args.group}", file=sys.stderr)
                return 1
        elif args.group == "s3":
            basis = nonabelian.s3_new_basis(args.variant)
        else:
            print(f"--basis FILE is required for {args.group} newbasis", file=sys.stderr)
            return 2
    ft = nonabelian.nonabelian_ft(args.group)
    if args.check == "matrix":
        _print_json(ft.to_json())
        return 0
    if args.check == "involution":
        ok = ft.is_involution() and ft.is_symmetric()
        print(f"involution: {'pass' if ok else 'fail'}")
        return 0 if ok else 1
    if args.check == "trace":
        tr = ft.trace()
        print(fraction_string(tr.num[0], tr.den) if tr.is_rational() else repr(tr))  # a Cyc is in lowest terms
        return 0
    if args.check == "hyperplane":
        rep = nonabelian.hyperplane_check(ft)
    else:
        rep = nonabelian.verify_triangular(ft, basis)
    if args.format == "json":
        _print_json(rep.to_json())
    else:
        print(rep.summary())
    return 0 if rep.ok else 1


_COMMANDS = {"family": _emit_family, "matrix": _emit_matrix, "verify": _run_verify, "nonabelian": _run_nonabelian}


def _buffer_stdout() -> None:
    """Give the interpreter's standard output a buffer if it has none (PYTHONUNBUFFERED, -u).

    Over a raw file the text layer ignores the short count of a write that a
    closing pipe cuts off, so the output could end truncated behind exit 0; a
    BufferedWriter finishes every write or raises BrokenPipeError.  A stdout
    that has been replaced (a StringIO, a test's capture) is left alone.
    """
    out = sys.stdout
    if out is sys.__stdout__ and isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors, closefd=False)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _buffer_stdout()
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # The reader closed standard output (`trifourier family --dim 10 | head -1`).
        # Point it at devnull, so that the flush at exit cannot fail again, and
        # exit 1 without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
