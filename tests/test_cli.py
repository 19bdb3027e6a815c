import hashlib
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trifourier
from trifourier.cli import COMMANDS, main, parse_args
from trifourier.nonabelian import NewBasis, mdata, s3_new_basis

from argparse_reference import build_parser, outcome
from nonabelian_reference import new_basis_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_text_d2(capsys):
    code, out, _ = run(capsys, "family", "--dim", "2")
    assert code == 0
    assert out == "∅,<3>\n<1>\n<2>\n"


def test_family_text_is_byte_stable(capsys):
    _, first, _ = run(capsys, "family", "--dim", "6")
    _, second, _ = run(capsys, "family", "--dim", "6")
    assert first == second


def test_family_text_writes_are_batched(monkeypatch):
    # the fiber lines go out as one write of their joined text, not two writes per line
    # (the line and its newline)
    from trifourier.family import build_family, fiber_lines

    writes = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append, flush=lambda: None))
    assert main(["family", "--dim", "12"]) == 0
    assert writes == ["".join(line + "\n" for line in fiber_lines(build_family(12)))]
    # and without the JSON writer, whose import would cost each call more than the batching saves
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['family', '--dim', '4']) == 0\n"
        "assert 'trifourier.jsonout' not in sys.modules\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_family_json(capsys):
    code, out, _ = run(capsys, "family", "--dim", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 16
    assert all(isinstance(run_, list) for e in doc["entries"] for run_ in e["iprime"])


def test_matrix_json_d2(capsys):
    code, out, _ = run(capsys, "matrix", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert [doc["entries"][i][i] for i in range(4)] == ["-1", "1", "1", "1"]


def test_matrix_json_d0(capsys):
    code, out, _ = run(capsys, "matrix", "--dim", "0")
    doc = json.loads(out)
    assert doc["entries"] == [["1"]]


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--dim", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].count(",") == 4


def test_verify_counts_d8(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "8", "--suite", "counts")
    assert code == 0
    assert "PASS" in out


def test_verify_all_d4_json(capsys):
    code, out, _ = run(capsys, "verify", "--dim", "4", "--suite", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_rejects_odd_dim(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--dim", "3"])
    assert err.value.code == 2


def test_nonabelian_trace(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s5", "--check", "trace")
    assert code == 0
    assert out.strip() == "13"


def test_nonabelian_involution(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s4", "--check", "involution")
    assert code == 0
    assert "pass" in out


def test_nonabelian_newbasis_s3(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s3", "--variant", "e", "--check", "newbasis")
    assert code == 0
    assert "-1,-1,1" in out


def test_nonabelian_newbasis_s4_requires_basis(capsys):
    code, _, err = run(capsys, "nonabelian", "--group", "s4", "--check", "newbasis")
    assert code == 2
    assert "--basis" in err


def test_nonabelian_newbasis_with_file(capsys, tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(new_basis_to_json(s3_new_basis("e"))))
    code, out, _ = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path))
    assert code == 0
    assert "variant=e" in out


def test_nonabelian_newbasis_corrupted_file(capsys, tmp_path):
    doc = new_basis_to_json(s3_new_basis("g2"))
    doc["expansions"][0]["terms"][0]["coeff_num"] = 3  # breaks unimodularity
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path))
    assert code == 1
    assert "FAIL" in out


def test_nonabelian_bad_basis_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"group\": \"s4\", \"expansions\": []}")
    code, _, err = run(capsys, "nonabelian", "--group", "s4", "--check", "newbasis", "--basis", str(path))
    assert code == 1
    assert "missing" in err


@pytest.mark.parametrize("group", ["s5xs5", "s5xs5xs2", "s3xs2", "s2", ""])
def test_nonabelian_basis_file_unsupported_group(tmp_path, group):
    # refused before the named group is built: the command line knows s3, s4 and s5 only
    path = tmp_path / "basis.json"
    path.write_text(json.dumps({"group": group, "expansions": []}))
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "trifourier", "nonabelian", "--group", "s4", "--check", "newbasis", "--basis", str(path)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and str(path) in proc.stderr
    assert f"unsupported group {group!r}" in proc.stderr


@pytest.mark.parametrize("kind", ["dense", "unimodular"])
def test_nonabelian_basis_with_huge_numbers_fails_in_one_bounded_line(tmp_path, kind):
    # Past 4,300 digits str() of an int raises.  A dense basis of 700-digit entries has a
    # determinant of 18,597 bits, and a unimodular one with a 2,201-digit entry has a
    # coefficient of 14,617 bits in U^-1 F U: each prints as a bit count, computed without str.
    # The dense basis fails at its determinant, and nothing after that check runs.
    if kind == "dense":
        rng = random.Random(700)
        u = [[rng.randrange(10**699, 10**700) for _ in range(8)] for _ in range(8)]
        failing = "[FAIL] unimodular: det = <18,597-bit integer>"
    else:
        u = [row[:5] + [row[5] + (10**2200 + 7) * row[0]] + row[6:] for row in s3_new_basis("g2").matrix]
        failing = "[FAIL] triangular: image of hat(g3,1) has coefficient Cyc(-<14,617-bit integer>/3) on hat(1,1)"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(new_basis_to_json(NewBasis("s3", "", u))), encoding="utf-8")
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "trifourier", "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith(failing)], lines
    assert max(map(len, lines)) < 200
    if kind == "dense":
        assert len(lines) == 3 and lines[-1].endswith("FAIL (2 checks)"), lines


def test_nonabelian_hyperplane(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s5", "--check", "hyperplane")
    assert code == 0
    code_bad, _, err = run(capsys, "nonabelian", "--group", "s3", "--check", "hyperplane")
    assert code_bad == 2 and "s5" in err


def test_nonabelian_refusals_come_before_the_matrix(capsys, tmp_path, monkeypatch):
    # every usage error and bad basis file is refused with its exit code and one line
    # before the Fourier matrix is built.  --format json prints the Report JSON of the
    # hyperplane and newbasis checks; involution and trace print one line and have no
    # report, so asking them for JSON is a usage error.
    import trifourier.nonabelian

    def unbuilt(name):
        raise AssertionError(f"the Fourier matrix of {name} was built")

    monkeypatch.setattr(trifourier.nonabelian, "nonabelian_ft", unbuilt)
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": "s4", "expansions": []}')
    other = tmp_path / "s3.json"
    other.write_text(json.dumps(new_basis_to_json(s3_new_basis("g2"))))
    cases = [
        (["--group", "s3", "--check", "hyperplane"], 2, "hyperplane check applies to s5 only"),
        (["--group", "s4", "--check", "hyperplane", "--format", "json"], 2, "hyperplane check applies to s5 only"),
        (["--group", "s4", "--check", "newbasis"], 2, "--basis FILE is required for s4 newbasis"),
        (["--group", "s5", "--check", "newbasis"], 2, "--basis FILE is required for s5 newbasis"),
        *((["--group", "s5", "--check", c, "--format", "json"], 2,
           f"--format json does not apply to --check {c}, which prints no report") for c in ("involution", "trace")),
        (["--group", "s4", "--check", "newbasis", "--basis", str(bad)], 1, f"bad basis file {bad}: missing"),
        (["--group", "s5", "--check", "newbasis", "--basis", str(tmp_path / "absent.json")], 1, "No such file"),
        (["--group", "s4", "--check", "newbasis", "--basis", str(other)], 1, "basis file is for s3, not s4"),
    ]
    for argv, want, line in cases:
        code, out, err = run(capsys, "nonabelian", *argv)
        assert (code, out) == (want, ""), argv
        assert err.count("\n") == 1 and line in err, (argv, err)


def test_nonabelian_matrix_json(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s3", "--check", "matrix")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 8


def test_nonabelian_basis_file_missing(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run(capsys, "nonabelian", "--group", "s4", "--check", "newbasis", "--basis", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and str(path) in err and "No such file" in err


def test_nonabelian_basis_file_top_level_list(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, _, err = run(capsys, "nonabelian", "--group", "s4", "--check", "newbasis", "--basis", str(path))
    assert code == 1
    assert err.count("\n") == 1 and str(path) in err and "JSON object" in err
    # nested past the parser's recursion limit: a malformed file, not a RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(deep))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and str(deep) in err and "nested too deeply" in err


def test_nonabelian_basis_file_missing_field(capsys, tmp_path):
    doc = new_basis_to_json(s3_new_basis("g2"))
    del doc["expansions"][2]["label"]["rho"]
    path = tmp_path / "norho.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path))
    assert code == 1
    assert err.count("\n") == 1 and str(path) in err and "'rho'" in err and "expansion 2" in err


def test_nonabelian_basis_file_non_string_variant(capsys, tmp_path):
    doc = new_basis_to_json(s3_new_basis("e"))
    doc["variant"] = {"a": 1}
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path))
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and str(path) in err and "'variant'" in err


def test_dim_above_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["family", "--dim", "16"])
    assert err.value.code == 2
    assert "dimension must be <= 14" in capsys.readouterr().err


def _nonabelian(group, check, variant="g2", basis=None, format="text"):
    return {"command": "nonabelian", "group": group, "variant": variant, "check": check, "basis": basis, "format": format}


# Each accepted command line and the values it parses to, the same values the
# argparse parser it replaced gave: a value after the option or after "=", unique
# prefixes, the last of a repeated option winning, every default, and every README
# example.
PARSED = {
    "verify --dim 4": {"command": "verify", "dim": 4, "suite": "all", "format": "text"},
    "verify --dim=4 --suite=counts": {"command": "verify", "dim": 4, "suite": "counts", "format": "text"},
    "verify --d 4 --s counts --form=json": {"command": "verify", "dim": 4, "suite": "counts", "format": "json"},
    "verify --dim 2 --dim 4": {"command": "verify", "dim": 4, "suite": "all", "format": "text"},
    "verify --suite fourier --suite counts --dim 6 --dim=8": {"command": "verify", "dim": 8, "suite": "counts", "format": "text"},
    "family --dim 0": {"command": "family", "dim": 0, "format": "text"},
    "matrix --dim 2": {"command": "matrix", "dim": 2, "format": "json"},
    "matrix --format csv --dim 14": {"command": "matrix", "dim": 14, "format": "csv"},
    "nonabelian --group s3 --check trace": _nonabelian("s3", "trace"),
    "nonabelian --gr=s4 --ch newbasis --bas=f.json --var e --for json": _nonabelian("s4", "newbasis", "e", "f.json", "json"),
    "family --dim 4": {"command": "family", "dim": 4, "format": "text"},
    "family --dim 6 --format json": {"command": "family", "dim": 6, "format": "json"},
    "matrix --dim 2 --format csv": {"command": "matrix", "dim": 2, "format": "csv"},
    "matrix --dim 4 --format json": {"command": "matrix", "dim": 4, "format": "json"},
    "verify --dim 8 --suite all": {"command": "verify", "dim": 8, "suite": "all", "format": "text"},
    "verify --dim 6 --suite counts --format json": {"command": "verify", "dim": 6, "suite": "counts", "format": "json"},
    "nonabelian --group s5 --check trace": _nonabelian("s5", "trace"),
    "nonabelian --group s4 --check involution": _nonabelian("s4", "involution"),
    "nonabelian --group s5 --check hyperplane": _nonabelian("s5", "hyperplane"),
    "nonabelian --group s5 --check hyperplane --format json": _nonabelian("s5", "hyperplane", format="json"),
    "nonabelian --group s3 --variant e --check newbasis": _nonabelian("s3", "newbasis", "e"),
    "nonabelian --group s4 --check newbasis --basis my_basis.json": _nonabelian("s4", "newbasis", basis="my_basis.json"),
    "nonabelian --group s3 --check matrix": _nonabelian("s3", "matrix"),
}


@pytest.mark.parametrize("line", list(PARSED))
def test_accepted_command_line_parses_as_before(line):
    assert vars(parse_args(line.split())) == PARSED[line]


def test_every_readme_example_is_pinned():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [line.split("#")[0].split()[1:] for line in block.splitlines() if line.startswith("trifourier ")]
    assert len(examples) == 13
    for argv in examples:
        assert " ".join(argv) in PARSED, argv


# Each refused command line and the one line it prints on standard error: the error
# line argparse printed, without the usage block it printed above it.
REFUSED = [
    ([], "trifourier: error: the following arguments are required: command"),
    (["bogus"], "trifourier: error: argument command: invalid choice: 'bogus' "
                "(choose from 'family', 'matrix', 'verify', 'nonabelian')"),
    (["--dim", "4", "verify"], "trifourier: error: argument command: invalid choice: '4' "
                               "(choose from 'family', 'matrix', 'verify', 'nonabelian')"),
    (["verify"], "trifourier verify: error: the following arguments are required: --dim"),
    (["verify", "--dim"], "trifourier verify: error: argument --dim: expected one argument"),
    (["verify", "--dim", "x"], "trifourier verify: error: argument --dim: not an integer: 'x'"),
    (["matrix", "--dim=", "2"], "trifourier matrix: error: argument --dim: not an integer: ''"),
    (["verify", "--dim", "3"], "trifourier verify: error: argument --dim: dimension must be even and >= 0, got 3"),
    (["verify", "--dim", "-2"], "trifourier verify: error: argument --dim: dimension must be even and >= 0, got -2"),
    (["family", "--dim", "16"], "trifourier family: error: argument --dim: dimension must be <= 14, got 16"),
    (["verify", "--dim", "4", "--suite", "nope"], "trifourier verify: error: argument --suite: invalid choice: 'nope' "
                                                  "(choose from 'all', 'family', 'fourier', 'dihedral', 'counts')"),
    (["verify", "--dim", "4", "--=x"], "trifourier verify: error: ambiguous option: --=x could match --help, --dim, --suite, --format"),
    (["verify", "--dim", "4", "--help=x"], "trifourier verify: error: argument -h/--help: ignored explicit argument 'x'"),
    (["verify", "--dim", "4", "extra"], "trifourier: error: unrecognized arguments: extra"),
    (["verify", "--dim", "4", "--"], "trifourier: error: unrecognized arguments: --"),
    (["-x", "family", "--dim", "2", "y"], "trifourier: error: unrecognized arguments: -x y"),
    (["family", "--dim", "4", "--format"], "trifourier family: error: argument --format: expected one argument"),
    (["nonabelian"], "trifourier nonabelian: error: the following arguments are required: --group, --check"),
    (["nonabelian", "--group", "s5"], "trifourier nonabelian: error: the following arguments are required: --check"),
    (["nonabelian", "--group", "s6", "--check", "matrix"],
     "trifourier nonabelian: error: argument --group: invalid choice: 's6' (choose from 's3', 's4', 's5')"),
]


@pytest.mark.parametrize("argv, line", REFUSED, ids=[" ".join(argv) or "-" for argv, _ in REFUSED])
def test_usage_error_is_one_line(capsys, argv, line):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == line + "\n"


# Tokens for random command lines: every command, option and choice, prefixes and
# inline values, bad values, "--", negative numbers, help in each spelling, and
# unknown options and words.
_TOKENS = [
    *COMMANDS, "bogus", "--dim", "--d", "--dim=4", "--dim=", "--d=6", "4", "3", "16", "-2", "-2.5", "-.5", "-5.", "x",
    "-x", "-x y", "--", "--format", "--f", "--format=json", "--form=csv", "json", "text", "csv", "--suite", "--s",
    "--su=all", "all", "counts", "fourier", "nope", "--group", "--g", "s3", "s4", "s5", "s6", "--variant", "--v=e",
    "e", "g2", "--check", "--c", "matrix", "trace", "involution", "newbasis", "hyperplane", "--basis", "--b",
    "file.json", "--basis=", "-h", "--help", "--h", "--he=x", "-hh", "-hx", "-h=h", "-h=", "--help=", "-hhx", "--=x",
    "--=", "---", "--bogus", "--bogus=1", "-", "", "-d", "-d4", "-5\n", "--dim\n", "--x=y=z", " ", "extra",
]
_VALUES = {"--dim": ["0", "2", "4", "12", "14", "3", "16", "-2", "x", ""], "--basis": ["b.json", "", "-x", "--dim"]}


def _random_argv(rng: random.Random) -> list[str]:
    """Half the time any tokens, half the time a command and its options in random
    spellings (full name or prefix, separate or inline value), with an odd token at times."""
    if rng.random() < 0.5:
        argv = [rng.choice(_TOKENS) for _ in range(rng.randint(0, 7))]
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(list(COMMANDS))
        return argv
    command = rng.choice(list(COMMANDS))
    options = COMMANDS[command][2]
    argv = [command]
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(list(options))
        kind = options[name][0]
        value = rng.choice([*kind, "nope"] if isinstance(kind, tuple) else _VALUES[name])
        spelled = name[:rng.randint(3, len(name))]
        argv += [f"{spelled}={value}"] if rng.random() < 0.3 else [spelled, value]
    if rng.random() < 0.2:
        argv.insert(rng.randint(0, len(argv)), rng.choice(_TOKENS))
    return argv


def test_parser_agrees_with_argparse():
    # the same values for every accepted command line, the same error line and exit
    # code for every refused one, and a help request wherever argparse saw one
    reference = build_parser()
    rng = random.Random(20261020)
    outcomes = set()
    edges = [["--"], ["-x", "--"], ["--", "verify"], ["verify", "--", "--dim", "4"], ["verify", "--dim", "--", "4"],
             ["-hh"], ["-h=h"], ["verify", "--dim", "4", "-hhx"]]
    for argv in edges + [_random_argv(rng) for _ in range(3000)]:
        got = outcome(parse_args, argv)
        assert got == outcome(reference.parse_args, argv), argv
        outcomes.add(got[0])
    assert outcomes == {"ok", "help", "error"}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "--help"] for c in COMMANDS), *([c, "-h"] for c in COMMANDS)])
def test_help_lists_the_table(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    for command in argv[:1] if argv[0] in COMMANDS else COMMANDS:
        _, text, options = COMMANDS[command]
        assert any(command in line and text in line for line in lines), command
        for name, (kind, default, help) in options.items():
            words = [name, help, *(kind if isinstance(kind, tuple) else ()), *((default,) if isinstance(default, str) else ())]
            assert any(all(w in line for w in words) for line in lines), (command, words)


@pytest.mark.parametrize("argv", [["matrix", "--dim", "14"], ["matrix", "--dim", "14", "--format", "csv"]])
def test_dense_fourier_above_d12_is_refused(capsys, argv):
    # the export writes all 2^D x 2^D entries; `verify` at D = 14 checks the
    # recursion's induction, as at every D, and runs
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--dim 14" in err and "Traceback" not in err


@pytest.mark.parametrize("dim", [0, 2, 8])
def test_verify_runs_no_dense_product(dim, monkeypatch):
    # one certification path at every D: the recursion's induction, the Gram tables
    # and the maps; no check transforms a 2^D x 2^D matrix
    from trifourier import fourier
    from trifourier.cli import run_suite

    def refuse(space, f):
        raise AssertionError(f"sign_transform called at D={space.dim}")

    monkeypatch.setattr(fourier, "sign_transform", refuse)
    rep = run_suite(dim, "all")
    assert rep.ok, rep.summary()


def test_family_suite_leaves_numpy_unimported():
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['verify', '--dim', '4', '--suite', 'family'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "def unloaded(*names):\n"
        "    loaded = [m for m in names if m in sys.modules]\n"
        "    assert not loaded, loaded\n"
        "unloaded('dataclasses', 'inspect', 'json', 'trifourier.dihedral', 'trifourier.fourier',\n"
        "         'argparse', 'gettext', 'locale')\n"
        "import trifourier\n"
        "missing = [n for n in trifourier.__all__ if getattr(trifourier, n, None) is None]\n"
        "assert not missing, missing\n"
        "unloaded('dataclasses', 'inspect')\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_family_exports_and_symmetry_suites_leave_numpy_unimported():
    # every GF(2) path is pure Python: numpy would add its import and RSS.  The change of
    # basis prints and checks its entries as integers over one denominator, so no GF(2)
    # path imports fractions (and decimal with it) either.  The exports write JSON with
    # the C string encoder from _json, without the json package.
    # The command line is parsed from one table, without argparse and the gettext and
    # locale modules it imports; the other two numpy guards check that as well.
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        "for argv in (['family', '--dim', '4', '--format', 'json'],\n"
        "             ['verify', '--dim', '4', '--suite', 'dihedral'],\n"
        "             ['verify', '--dim', '4', '--suite', 'counts'],\n"
        "             ['matrix', '--dim', '4', '--format', 'json'],\n"
        "             ['matrix', '--dim', '4', '--format', 'csv'],\n"
        "             ['verify', '--dim', '4', '--suite', 'fourier'],\n"
        "             ['verify', '--dim', '4', '--suite', 'all'],\n"
        "             ['verify', '--dim', '8', '--suite', 'all'],\n"
        "             ['matrix', '--dim', '8', '--format', 'json'],\n"
        "             ['matrix', '--dim', '8', '--format', 'csv']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    assert rc == 0, (argv, rc)\n"
        "    assert 'numpy' not in sys.modules, ('numpy was imported', argv)\n"
        "    unwanted = ('dataclasses', 'inspect', 'fractions', 'decimal', 'json', 'argparse', 'gettext', 'locale')\n"
        "    loaded = [m for m in unwanted if m in sys.modules]\n"
        "    assert not loaded, (loaded, argv)\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--dim", "12"],
        ["family", "--dim", "10", "--format", "json"],
        ["matrix", "--dim", "10", "--format", "json"],
        ["matrix", "--dim", "10", "--format", "csv"],
    ],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # The reader stops after one line, as `trifourier family --dim 10 | head -1` does.
    # Each output (127 KB, the first one write, 744 KB, 11.7 MB and 2.2 MB) is
    # larger than a pipe's 64 KiB buffer, so the program is still writing when the pipe
    # closes.  On an unbuffered stdout (PYTHONUNBUFFERED) the text layer would drop the
    # short count of a write that the closed pipe cuts off and exit 0; the command line
    # gives stdout a buffer, which finishes the write or reports the closed pipe.
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "trifourier", *argv],
            env={**env, **unbuffered},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1, unbuffered
        assert err == b"", unbuffered


def test_nonabelian_newbasis_leaves_gf2_pipeline_unimported():
    # the group checks need neither the family recursion nor the GF(2) transform
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['nonabelian', '--group', 's3', '--check', 'newbasis'])\n"
        "assert rc == 0, rc\n"
        "loaded = [m for m in ('trifourier.family', 'trifourier.fourier', 'trifourier.taumaps') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_nonabelian_checks_leave_numpy_unimported(tmp_path):
    # the cyclotomic matrices are packed Python ints: no group check pays for the numpy import
    bases = {}
    for group in ("s4", "s5"):
        n = len(mdata(group).pairs)
        identity = NewBasis(group, "", [[int(i == j) for j in range(n)] for i in range(n)])
        bases[group] = tmp_path / f"{group}-identity.json"
        bases[group].write_text(json.dumps(new_basis_to_json(identity)), encoding="utf-8")
    # Each run lists the modules it must leave unimported on top of the shared ones.  One
    # process runs them in order and a module stays loaded once imported, so the runs
    # that need the least come first.  Only the newbasis check compiles the new-basis
    # module, and no check imports fractions: the trace, the hyperplane scalar, a
    # failing entry and a non-integer basis coefficient are printed from integers.  The
    # JSON writer takes its string encoder from the C module _json; only reading a basis
    # file needs json.  Every check computes and prints packed values: none loads the
    # `Cyc` class, which only `FTMatrix.matrix` and `FTMatrix.trace()` return (the last step).
    lean = ("json", "fractions", "trifourier.newbasis")
    runs = [(["--group", g, "--check", c], 0, lean) for g in ("s3", "s4", "s5") for c in ("involution", "trace", "matrix")]
    runs += [(["--group", "s5", "--check", "hyperplane", "--format", f], 0, lean) for f in ("text", "json")]
    runs += [(["--group", "s3", "--variant", v, "--check", "newbasis", "--format", f], 0, ("json", "fractions"))
             for f in ("text", "json") for v in ("g2", "e")]
    # the identity is not piece-triangular, so these report a failure (exit 1) after the full check
    runs += [(["--group", g, "--check", "newbasis", "--basis", str(bases[g])], 1, ("fractions",)) for g in ("s4", "s5")]
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        f"for argv, want, absent in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(['nonabelian', *argv])\n"
        "    assert rc == want, (argv, rc)\n"
        "    assert 'numpy' not in sys.modules, ('numpy was imported', argv)\n"
        "    unwanted = ('trifourier.gf2', 'trifourier.family', 'trifourier.cyclotomic', 'dataclasses', 'inspect',\n"
        "                'argparse', 'gettext', 'locale', *absent)\n"
        "    loaded = [m for m in unwanted if m in sys.modules]\n"
        "    assert not loaded, (loaded, argv)\n"
        "from trifourier.nonabelian import nonabelian_ft\n"
        "entries = nonabelian_ft('s5').matrix\n"
        "assert 'trifourier.cyclotomic' in sys.modules\n"
        "assert (entries[0][0] * entries[-1][-1]).den > 0\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_matrix_export_memory_is_bounded():
    # The export streams its rows: the peak holds the change of basis, one row and one
    # output batch, not the 11.7 MB of text (111 MB peak when the document was built
    # whole).  A small helper interpreter starts the export and reads its peak RSS with
    # os.wait4, so the figure does not start from this test runner's RSS.
    helper = (
        "import os, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'trifourier', 'matrix', '--dim', '10', '--format', 'json']\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", helper], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, maxrss_kib = map(int, proc.stdout.split())
    assert rc == 0
    assert maxrss_kib < 60 * 1024, f"peak RSS {maxrss_kib / 1024:.0f} MB"


def test_benchmark_trace_hooks_resolve():
    # the benchmark's traced pass wraps module attributes by name; a rename must fail here
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = "import traced\ntraced.instrument(traced.Tracer())\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root / "perfbench", env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_traced_pass_runs_on_the_nonabelian_workload(tmp_path):
    # The traced pass runs every nonabelian-s5 command in process and then multiplies
    # sampled `Cyc` entries of `FTMatrix.matrix`, the probe that loads `cyclotomic` lazily.
    # It reads the basis file the benchmark writes, here into a temporary directory.
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    (tmp_path / ".perfbench_out").mkdir()
    write_basis = (
        "import json, checks\n"
        "with open('.perfbench_out/s5-identity-basis.json', 'w', encoding='utf-8') as fh:\n"
        "    json.dump(checks.identity_basis_s5(), fh)\n"
    )
    traced = [str(root / "perfbench" / "traced.py"), "--workload", "nonabelian-s5", "--seed", "1", "--out", "trace.json"]
    for argv in (["-c", write_basis], traced):
        proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "trace.json").read_text("utf-8"))
    assert doc["ops"] and all(op["problem"] is None for op in doc["ops"]), doc["ops"]
    mul_us, unit = doc["metrics"]["cyclotomic.mul_us"]
    assert mul_us > 0 and unit == "us"


def _verify_all(dim):
    """Exit code, peak RSS (KiB) and SHA-256 of a fresh `verify --dim D --suite all`."""
    # A helper interpreter starts the run, hashes its output and reads its peak RSS
    # with os.wait4, so the figure does not start from this test runner's RSS.
    helper = (
        "import hashlib, os, subprocess, sys\n"
        f"argv = [sys.executable, '-m', 'trifourier', 'verify', '--dim', '{dim}', '--suite', 'all']\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.PIPE)\n"
        "digest = hashlib.sha256(proc.stdout.read()).hexdigest()\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, digest)\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", helper], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, maxrss_kib, digest = proc.stdout.split()
    return int(rc), int(maxrss_kib), digest


def test_verify_d14_runs_in_bounded_memory():
    # The Fourier suite proves the change of basis by the recursion's induction from
    # D = 0, and G G = 2^D I and G Z = 2 Z G' from the Gram table and the maps: nothing
    # packs 2^D x 2^D.
    rc, maxrss_kib, digest = _verify_all(14)
    assert rc == 0
    assert maxrss_kib < 256 * 1024, f"peak RSS {maxrss_kib / 1024:.0f} MB"
    assert digest == GOLDEN_VERIFY_ALL_SHA256[14]


def test_verify_d12_runs_in_bounded_memory():
    # The same single path at D = 12, where the dense products held 228 MB.
    rc, maxrss_kib, digest = _verify_all(12)
    assert rc == 0
    assert maxrss_kib < 64 * 1024, f"peak RSS {maxrss_kib / 1024:.0f} MB"
    assert digest == GOLDEN_VERIFY_ALL_SHA256[12]


# SHA-256 of `verify --dim D --suite all`, recorded when the lemma chain became the one
# certification path at every D and the isotropy checks one grouped line, and again
# when every per-index run of checks became one grouped line and each certificate
# lemma one line over every level.
GOLDEN_VERIFY_ALL_SHA256 = {
    12: "18602ee0bc62783468b3664b11d508cbd12f76acc7a71c452f18a9f8dcc89f92",
    14: "460362a4552e602b72acff5a2141494aac8aa5db96777e2c8aaaedd9f7008cfa",
}


def test_matrix_d12_json_digest_from_the_pipe():
    # The D = 12 change of basis is 185 MB of JSON: a helper interpreter hashes it from
    # the pipe one MiB at a time, so neither it nor this test runner holds it whole.
    helper = (
        "import hashlib, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'trifourier', 'matrix', '--dim', '12', '--format', 'json']\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.PIPE)\n"
        "digest = hashlib.sha256()\n"
        "while chunk := proc.stdout.read(1 << 20):\n"
        "    digest.update(chunk)\n"
        "print(proc.wait(), digest.hexdigest())\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", helper], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", GOLDEN_MATRIX_D12_JSON_SHA256]


# SHA-256 of `matrix --dim 12 --format json`, recorded before the JSON writer became one recursive encoder.
GOLDEN_MATRIX_D12_JSON_SHA256 = "3446c2d31a9f0c4da56c3ed09a4e5e18b838d7141f099c5cdc93c883b5be00cb"


# SHA-256 of the standard output of each command: the family, dihedral and
# counts outputs recorded before the interval bases were carried through the
# recursion, the matrix and Fourier outputs before the GF(2) transform moved
# from numpy arrays to Python ints, the non-abelian ones before the cyclotomic
# matrices moved from numpy slices to packed ints, the two D = 10 family-suite
# ones before the graph-invariant recursion became two rotation closures, the
# D = 10 matrix exports before the exports were streamed, the D = 10 and D = 12
# Fourier suites while the change of basis was still one 2^D-column peel solve,
# the s5 hyperplane JSON when `--format json` first applied to it (the same bytes
# as the check's Report JSON before the Fourier matrix was built over columns), and
# the two D = 10 family exports before the JSON writer became one recursive encoder.
# The Fourier, family-suite and all-suite `verify` outputs moved once more when the
# recursion's induction became the one certification path at every D and the
# isotropy checks one grouped line; and every `verify` output with a per-index run
# of checks, a signed-binomial line or a Fourier lemma line moved when each per-index
# run became one grouped line, the signed binomial left the report and each
# certificate lemma became one line over every level of the induction.
# A digest that moves is a change to the bytes the CLI prints.  The outputs do
# not depend on PYTHONHASHSEED.
GOLDEN_SHA256 = {
    "family --dim 0 --format text": "48a2dc5d53e6f79260a55a7b775f7299115db31b5fbeb3299057a98bad5092ef",
    "family --dim 0 --format json": "74d130a768202df963d5b06d1a2e542b310945cba6329e6dc8251d4d21cc203d",
    "verify --dim 0 --suite family --format text": "62d9fff58e5245e9041b45630f7e6c5084dfb2106ffbf9502312253d6a168eb0",
    "verify --dim 0 --suite family --format json": "08961137298741e1f79cde9efa13fdb1b29d87359f0a8bf8de36ed653be745c0",
    "verify --dim 0 --suite dihedral --format text": "62ebbdc7eb34ded841745106114df00a609f6f586f1414c321118812577bf061",
    "verify --dim 0 --suite dihedral --format json": "19fb26ce4c884534e7f6b4d7775d656b3ea93a5f3a3f993d03cd722f56649088",
    "verify --dim 0 --suite counts --format text": "6db6f1084890deb29c9a48dce9306ea538d2159ee569541c35b226e6da441579",
    "verify --dim 0 --suite counts --format json": "1100e3ca18837b20e1d47806175f1a1ae67a1c540c7c22cf62174253575dd34c",
    "family --dim 2 --format text": "20a1f7c1443c24c343eaa83adfe8bb1571b24bd172589736289cf42f53fb490d",
    "family --dim 2 --format json": "3d7dcdaf00eb999bdecdb7c8dec2c2c4cd73e4bc9b651b519b47149fd735ef99",
    "verify --dim 2 --suite family --format text": "5491b0a16678eac096e22b20ba33c13510540e84e4815dcc63decea9afd4c612",
    "verify --dim 2 --suite family --format json": "6b6475a8b62efad1b6c1a4537bff0275676c3c60cab174bb342e2b0d92232964",
    "verify --dim 2 --suite dihedral --format text": "c9d29addbfcb17719071c9178fe92af71688c46399fbee6c21301f8418f0629a",
    "verify --dim 2 --suite dihedral --format json": "dd66b2de70e021dc9b88fee96dd31068dcd3770bac29d346c2e6bdf1d62f5eeb",
    "verify --dim 2 --suite counts --format text": "b16b72d22efccf560c026b5dd4e8c86d44d0c496a41c887994bb2ca43b0f447d",
    "verify --dim 2 --suite counts --format json": "a9fe531a4f28816613d3b449650543b2dfecde937558fd38697bf571267456ae",
    "family --dim 4 --format text": "e7a7cfba643b882e050a2a8e055fb0050caaea7f8f6a50425233ba2562530cef",
    "family --dim 4 --format json": "86b65e2d8d56a11246d1b0ab61cfd0c2eb2a0ad2be932a998ce58f80597ae9d5",
    "verify --dim 4 --suite family --format text": "6342a27769d6da21d681c098fc8e6f6db36fd93abe43848fbef8a4c569015c64",
    "verify --dim 4 --suite family --format json": "6bd22633679a60aa63a5a46458f02ac6594040b4fee988e2ef44a25d9f59b7b6",
    "verify --dim 4 --suite dihedral --format text": "6214d87a1e0310976d45d393f9b57b1f72317b5098ae05e77b46283a8a062fc6",
    "verify --dim 4 --suite dihedral --format json": "e58ae60d84c6362f6faef4f0689bd269045b45032b20bc9a7ed35c4a3df05a96",
    "verify --dim 4 --suite counts --format text": "50674125020e598b44311ce28fbc9b9ef371b147e177b41e4ae0c9d9185b0449",
    "verify --dim 4 --suite counts --format json": "e33a4462ce1fd5fae17fa301c004c4ff26b07eac398b2b4bcab2320f693cbce8",
    "family --dim 6 --format text": "2368dd57d623b6cd427a0efb76afa26d6765f32c83868d4ee1bd9c6b97c8b602",
    "family --dim 6 --format json": "d1bb676394e17012165a03591dcbc710b6ed2e5e80bdf830660edf43ae2f23a3",
    "verify --dim 6 --suite family --format text": "7c856ea35d8b84226af9b5ed822f2fdb9b4ed6102d39cf440867c6645c059559",
    "verify --dim 6 --suite family --format json": "ead9da0db79000a217fd4af1bf955509641b41e434c0215236de47ba5a48f374",
    "verify --dim 6 --suite dihedral --format text": "f6e317952ed10698a23541277e86406ecefb7913a98e0a25cccd08be9d4bb8ab",
    "verify --dim 6 --suite dihedral --format json": "f689268b1c2a41e1d463673f249ceff99ff44ff6838256179395d61503e97b92",
    "verify --dim 6 --suite counts --format text": "6f0d9c19af218a508578a3f0cdcd4692e71043fc1ff6f70f31879f1681569cbd",
    "verify --dim 6 --suite counts --format json": "59766b980d4ab7cf65ee71a2f0ea7532f02118722939d3e089463628f0ba2baf",
    "family --dim 8 --format text": "816f492514d05cce2743266909c0a5b98901d6ec04bff65d7d817fa8726e5e8c",
    "family --dim 8 --format json": "f003ce1b8b4e1792c640f7fd537a1bb032880cf86b91acb3c3f00e59b2c21adb",
    "verify --dim 8 --suite family --format text": "8fad551d6969314159c217c329e81f41ab334cd0ba409b149bf16449e5755c54",
    "verify --dim 8 --suite family --format json": "5c1936e2c01318ca5505807c4c4fc23d0a7a86545961f5445271039b06ace77e",
    "verify --dim 8 --suite dihedral --format text": "3710460677334b34534e63a1ad6f2c20af3ef88d1bd31df19b95f5e242c4ce9e",
    "verify --dim 8 --suite dihedral --format json": "3b1ae561efeaf2a509a83354140d89d318d82ace97a956e675c4d11b1b3108db",
    "verify --dim 8 --suite counts --format text": "30a83ec04672f27e3b3ed3230db20aebdb3296d9453d42b3f848f94b9481403f",
    "verify --dim 8 --suite counts --format json": "51cb1a25dbea18074eba919476d153b53f07a63c43300762b1ebe746aaf03352",
    "family --dim 10": "ba0c3609e6585c54ab1d64f8f5d6135c2f5b73e9708b3de3b4d16972d3a73969",
    "family --dim 10 --format json": "354a22b71e6ccab2f4c6a6a0c5246a760a3305290d0b788402607941168fbd17",
    "verify --dim 10 --suite family --format text": "38d580358a80157cbc628f29a5b1823a413825a9b4a86beedec616e6e0eb8edd",
    "verify --dim 10 --suite family --format json": "c52e4dd53bae5d7299acc759552067e9eb89c090a695a22833d524f622e85eb9",
    "matrix --dim 0 --format json": "72ccb852d8ee6a1a08101888511be9eeb72f2d06fa87b02020a11b6a31c8cc17",
    "matrix --dim 0 --format csv": "916cc3366aae86c3ee776e4bdff3763761f0f3d887959b803fa2ddc26066717a",
    "verify --dim 0 --suite fourier --format text": "23085d3146bc67c1ab83775f92d91590125e39bda1f39c08d74e16ebfa4ffc0c",
    "verify --dim 0 --suite fourier --format json": "448cbda61cc06726a44bb0bb34d79f889fb9c4e1710ae704e491508223d5ca39",
    "verify --dim 0 --suite all --format text": "705afa1c9b249cb91f8198b261a68da1952af51c0355e8749f674a6e19e495e4",
    "verify --dim 0 --suite all --format json": "25f6d24b777175023a33664a143c71f89e71f944e591dc5d895f5844f294504a",
    "matrix --dim 2 --format json": "84589870eabe70b12158d674100a654f128ac087912a1f6e23ac8ee620ffbb28",
    "matrix --dim 2 --format csv": "53c2fdcc294efd149daa52db1ec31acfd38dcc71ba91581aa596fb18a9bd4baa",
    "verify --dim 2 --suite fourier --format text": "469ebad6008638253c02b31d63ba3cd1430e093ef44630c8d6c3cfa2b3ad9c7b",
    "verify --dim 2 --suite fourier --format json": "e7d4e94c5fab58107ba1e0e90e0df59e49493593f138033b26a226a866d4d1cc",
    "verify --dim 2 --suite all --format text": "b4647639b3b26493c032db27d9ab78d1573cb7e56460b2a8700f5818a8aec8c2",
    "verify --dim 2 --suite all --format json": "068d762be9e579c8dcb9cff90b06b1a2afa8c2429c5f395916aea2a1a201c8d0",
    "matrix --dim 4 --format json": "8cfc08fde2257e69619a721e5b22ed9979293b160bca9b6a294876e41238877a",
    "matrix --dim 4 --format csv": "f16f3a486f2588870d740dc73d448c23e11be619270fc62aaaa9f0ebbd26db97",
    "verify --dim 4 --suite fourier --format text": "6b3699ad2b92b2453e49d28a5f2b75dd9c14817ff0a623014f1c0194fa65236d",
    "verify --dim 4 --suite fourier --format json": "56ff1338cf5afc3e23dd6d74f0c35c3b72e62552c225940c109031ce9b2b996e",
    "verify --dim 4 --suite all --format text": "f8d8029e612394c06d4466c1fe51b2cf5b761f8f8631c1ddcea219eed71ccad2",
    "verify --dim 4 --suite all --format json": "0a4d140c2899f4e9786d476904791466c196ede9311f11ba4d519259a41e1d82",
    "matrix --dim 6 --format json": "f48b974b5b3dd9436b014fc4d1690425ba6a6145b2677288769fd2f6c6883638",
    "matrix --dim 6 --format csv": "12cbcde182359c939b2b022002088c8fb9838fc376749ad2355b2f2a787b32f6",
    "verify --dim 6 --suite fourier --format text": "a69182b6d9319e4a484cba3b6fa59ef8bca91465b7a8d6ce59291f0de7a3c563",
    "verify --dim 6 --suite fourier --format json": "7f227df5e343f5703b0474a63c75302b038c80afda572ffef9f5141311868cbf",
    "verify --dim 6 --suite all --format text": "024889ba0ec1980a759da9b5e0374af68a7f53c68920cdac717c1a5ad6202128",
    "verify --dim 6 --suite all --format json": "739e1eee839f1518accbe7aef6775c13ee9352a75d89e7968d2e46d0f20c159c",
    "matrix --dim 8 --format json": "f5c5c8e87724f1cf162fc79e19dfb0a319e3a9584cc61e8a97a91d3d83bccdf6",
    "matrix --dim 8 --format csv": "0b20a4d585c71de0f190829939bdcc865a8cf66745bba5ee17d155f6dde2bbd6",
    "matrix --dim 10 --format json": "735b147a2a3672b4171f22393530e30cf76fa924a3e0b9fc392f466175f6170c",
    "matrix --dim 10 --format csv": "30c0c8181db1018a9259b76d8ed371204ab77d97525b9141976687c6e016105b",
    "verify --dim 8 --suite fourier --format text": "9f0fd4dc0840cf2310fc5ef1e4c1e9cda5befeee92365eabecfc3cb73c06d2a1",
    "verify --dim 8 --suite fourier --format json": "161509c03184fb295fb9596c9b37c6a65d26860513b8922c8901b9a9e7f1dbe2",
    "verify --dim 8 --suite all --format text": "36cd1f4542537c8379011f840cd2ba4d8a0c8614ce405fa5b83fcfe6d6514e23",
    "verify --dim 8 --suite all --format json": "6c6c0e9fcc8e8a5b15718de260f64a81f1d1777d27a6b34b03dd198ec42412ff",
    "verify --dim 10 --suite all --format text": "8bc0925fa0171015cacee27dcfbf2f3d3c99aa325dcaa2624911d2230d4ec9ac",
    "verify --dim 10 --suite all --format json": "64cf83d78647cfb3b2f0f3e544e9b26f31163cb9a89b6851d8a922f5713cd876",
    "verify --dim 12 --suite fourier --format text": "178837ea4b18c8d808ab4b56cc7efa2f039546dcbce543c1710cd90d807bb657",
    "nonabelian --group s3 --check matrix": "c810590641db850051e2b3b82a3c6edca95dc1f837ac1cec113daa50c29ba177",
    "nonabelian --group s3 --check involution": "7241b229db1a3f377830556750606b8f52ab5add4e163d7b22a156e613a7a1d5",
    "nonabelian --group s3 --check trace": "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
    "nonabelian --group s4 --check matrix": "8ad839cabbdfb755b70a773bc064eb91fbec4463e06f25314c692d9442463066",
    "nonabelian --group s4 --check involution": "7241b229db1a3f377830556750606b8f52ab5add4e163d7b22a156e613a7a1d5",
    "nonabelian --group s4 --check trace": "2e6d31a5983a91251bfae5aefa1c0a19d8ba3cf601d0e8a706b4cfa9661a6b8a",
    "nonabelian --group s5 --check matrix": "89a356db1eff56facabdb5b81824139726347feb838ecbe73d070b96a8ca5095",
    "nonabelian --group s5 --check involution": "7241b229db1a3f377830556750606b8f52ab5add4e163d7b22a156e613a7a1d5",
    "nonabelian --group s5 --check trace": "1a252402972f6057fa53cc172b52b9ffca698e18311facd0f3b06ecaaef79e17",
    "nonabelian --group s5 --check hyperplane": "0cf810579dc495f90a46f62f023484e1ff09060e51eaa3134be2a5d888c43c94",
    "nonabelian --group s5 --check hyperplane --format json": "d8270018c072cfe0866e31817b7657b783a979d68c3150b43adfe16295cc76ae",
    "nonabelian --group s3 --variant g2 --check newbasis --format text": "c8eda9dfadcc15374621898e1925ace7635f81159ca534c76273969f3f43bb29",
    "nonabelian --group s3 --variant g2 --check newbasis --format json": "b74e6d2f5ef1e6102d9ec6cdeabe7531e20ca83416964cdbeb99f69a4417fe2a",
    "nonabelian --group s3 --variant e --check newbasis --format text": "08b559294341da08e1608edeaaa100f507630db83103231fe4b9511031b7dc2c",
    "nonabelian --group s3 --variant e --check newbasis --format json": "bd9128204ee1a1c92cca0bafe2afec11280e21cf411c2f1adaa924115eabc0b8",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
