"""Command-line surface: table emission, matrix export, verification suites, and the
parser that reads the command line from one table of commands and their options."""

from __future__ import annotations

import io
import os
import sys
import types

from .report import Report, fraction_string


def even_dim(text: str) -> int:
    from .gf2 import MAX_DIM

    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"not an integer: {text!r}") from exc
    if value < 0 or value % 2:
        raise ValueError(f"dimension must be even and >= 0, got {value}")
    if value > MAX_DIM:
        raise ValueError(f"dimension must be <= {MAX_DIM}, got {value}")
    return value


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


DESCRIPTION = """Exact isotropic-subspace bases, triangular Fourier matrices, and non-abelian
Fourier checks for small symmetric groups."""
REQUIRED = object()  # the default of an option that must be given
_DIM = (even_dim, REQUIRED, "the dimension D of the GF(2) space, even and >= 0")
_TEXT_OR_JSON = (("text", "json"), "text", "text lines or one JSON document")

# Each command: its handler, its help line and its options.  Each option takes one
# value and gives its choices (a tuple) or its converter, its default or REQUIRED,
# and its help line.  The parser and the help are both read from this table.
COMMANDS = {
    "family": (_emit_family, "emit the family grouped into fibers", {
        "--dim": _DIM,
        "--format": _TEXT_OR_JSON,
    }),
    "matrix": (_emit_matrix, "emit the exact change-of-basis matrix", {
        "--dim": _DIM,
        "--format": (("json", "csv"), "json", "one JSON document or CSV rows"),
    }),
    "verify": (_run_verify, "run verification suites; exit 0 iff all pass", {
        "--dim": _DIM,
        "--suite": (("all", "family", "fourier", "dihedral", "counts"), "all", "the checks to run"),
        "--format": _TEXT_OR_JSON,
    }),
    "nonabelian": (_run_nonabelian, "checks on the group Fourier matrices", {
        "--group": (("s3", "s4", "s5"), REQUIRED, "the symmetric group"),
        "--variant": (("g2", "e"), "g2", "the embedded s3 new basis to check"),
        "--check": (("matrix", "involution", "trace", "hyperplane", "newbasis"), REQUIRED, "the check to run"),
        "--basis": (str, None, "JSON basis file (required for s4/s5 newbasis)"),
        "--format": _TEXT_OR_JSON,
    }),
}


def _usage_error(prog: str, message: str):
    print(prog + ": error: " + message, file=sys.stderr)
    raise SystemExit(2)


def _choices(values) -> str:
    return "(choose from " + ", ".join(map(repr, values)) + ")"


def _classify(prog: str, tokens: list[str], names: tuple) -> list:
    """What each token is, read before any value is taken: None for a value, "--" for
    the first "--" (every token after it is a value), or (option, inline value), where
    the option is one of names or None for one this parser does not know.  A unique
    prefix of an option's name names it, and a negative number (-4, -.5) is a value."""
    kinds = []
    for i, token in enumerate(tokens):
        if token == "--":
            return kinds + ["--"] + [None] * (len(tokens) - i - 1)
        name, eq, inline = token.partition("=")
        if token[:1] != "-" or token == "-":
            kind = None
        elif token in names or eq and name in names:
            kind = (name, inline if eq else None)
        elif token[1] == "-":
            matches = [n for n in names if n.startswith(name)]
            if len(matches) > 1:
                _usage_error(prog, f"ambiguous option: {token} could match {', '.join(matches)}")
            if matches:
                kind = (matches[0], inline if eq else None)
            else:
                kind = None if " " in token else (None, None)
        elif token[1] == "h":  # -h with more attached: -hh is -h twice
            kind = ("-h", token[2:])
        else:  # a negative number or a token with a space in it is a value
            number = token[1:].removesuffix("\n")
            is_value = " " in token or number.replace(".", "", 1).isdecimal() and number[-1] != "."
            kind = None if is_value else (None, None)
        kinds.append(kind)
    return kinds


def _help(prog: str, name: str, inline: str | None, command: str | None):
    """Print the help (-h/--help, or -hh) and exit 0; refuse a value given with it."""
    if inline is not None:
        rest = inline.lstrip("h") if name == "-h" else inline
        if rest or not inline:
            _usage_error(prog, f"argument -h/--help: ignored explicit argument {rest!r}")
    lines = [f"usage: trifourier {command or '{' + ','.join(COMMANDS) + '}'} [options]", ""]
    if command is None:
        lines += [DESCRIPTION, ""]
    for each in [command] if command else COMMANDS:
        _, text, options = COMMANDS[each]
        lines.append(f"{each}: {text}")
        for option, (kind, default, line) in options.items():
            choices = "{" + ",".join(kind) + "} " if isinstance(kind, tuple) else ""
            given = "required" if default is REQUIRED else "optional" if default is None else "default " + default
            lines.append(f"  {option:<10} {choices}({given}) {line}")
        lines.append("")
    lines.append("Each option takes one value: --opt VALUE or --opt=VALUE.  A unique prefix of an")
    lines.append("option names it (--d for --dim).  -h or --help after a command shows its help.")
    print("\n".join(lines))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """The command and the value of each of its options; the last of a repeated option
    wins.  A usage error prints one line on standard error and raises SystemExit(2);
    -h/--help prints the help and raises SystemExit(0)."""
    prog = "trifourier"
    kinds = _classify(prog, argv, ("-h", "--help"))
    extras = []
    i = 0
    while i < len(argv) and isinstance(kinds[i], tuple):  # options before the command
        if kinds[i][0]:  # help, the one option known before the command
            _help(prog, *kinds[i], None)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _usage_error(prog, "the following arguments are required: command")
    command, tokens = argv[i], argv[i + 1:]
    if command not in COMMANDS:
        _usage_error(prog, f"argument command: invalid choice: {command!r} {_choices(COMMANDS)}")
    prog += " " + command
    options = COMMANDS[command][2]
    kinds = _classify(prog, tokens, ("-h", "--help", *options))
    values = {}
    i = 0
    while i < len(tokens):
        name, text = kinds[i] if isinstance(kinds[i], tuple) else (None, None)
        i += 1
        if name is None:
            extras.append(tokens[i - 1])
            continue
        if name in ("-h", "--help"):
            _help(prog, name, text, command)
        if text is None:
            if i == len(tokens) or kinds[i] is not None:
                _usage_error(prog, f"argument {name}: expected one argument")
            text = tokens[i]
            i += 1
        kind = options[name][0]
        if isinstance(kind, tuple):
            if text not in kind:
                _usage_error(prog, f"argument {name}: invalid choice: {text!r} {_choices(kind)}")
            values[name] = text
        else:
            try:
                values[name] = kind(text)
            except ValueError as exc:
                _usage_error(prog, f"argument {name}: {exc}")
    missing = [name for name, (_, default, _) in options.items() if default is REQUIRED and name not in values]
    if missing:
        _usage_error(prog, "the following arguments are required: " + ", ".join(missing))
    if extras:
        _usage_error("trifourier", "unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(command=command, **{n[2:]: values.get(n, d) for n, (_, d, _) in options.items()})


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
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _buffer_stdout()
    try:
        code = COMMANDS[args.command][0](args)
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
