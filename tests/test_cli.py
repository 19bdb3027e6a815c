import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifourier
from trifourier.cli import main
from trifourier.nonabelian import NewBasis, s3_new_basis

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


@pytest.mark.parametrize("argv", [["matrix", "--dim", "14"], ["matrix", "--dim", "14", "--format", "csv"]])
def test_dense_fourier_above_d12_is_refused(capsys, argv):
    # the export writes all 2^D x 2^D entries; `verify` at D = 14 checks the
    # recursion's lemmas instead of the dense checks, and runs
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "--dim 14" in err and "Traceback" not in err


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
        "unloaded('dataclasses', 'inspect', 'json', 'trifourier.dihedral', 'trifourier.fourier')\n"
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
        "    unwanted = ('dataclasses', 'inspect', 'fractions', 'decimal', 'json')\n"
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
    # Each output (127 KB, 744 KB, 11.7 MB and 2.2 MB) is larger than a pipe's 64 KiB
    # buffer, so the program is still writing when the pipe closes.  On an unbuffered
    # stdout (PYTHONUNBUFFERED) one large write that the closed pipe cuts short fails
    # silently; the export writes in batches, so the next batch reports it.
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "trifourier", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


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
        n = len(trifourier.enumerate_m(group))
        identity = NewBasis(group, "", [[int(i == j) for j in range(n)] for i in range(n)])
        bases[group] = tmp_path / f"{group}-identity.json"
        bases[group].write_text(json.dumps(new_basis_to_json(identity)), encoding="utf-8")
    # Each run lists the modules it must leave unimported on top of the shared ones.  One
    # process runs them in order and a module stays loaded once imported, so the runs
    # that need the least come first.  Only the newbasis check compiles the new-basis
    # module, and no check imports fractions: the trace, the hyperplane scalar, a
    # failing entry and a non-integer basis coefficient are printed from integers.  The
    # JSON writer takes its string encoder from the C module _json; only reading a basis
    # file needs json.
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
        "    unwanted = ('trifourier.gf2', 'trifourier.family', 'dataclasses', 'inspect', *absent)\n"
        "    loaded = [m for m in unwanted if m in sys.modules]\n"
        "    assert not loaded, (loaded, argv)\n"
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


def test_verify_d14_runs_in_bounded_memory():
    # Above D = 12 the Fourier suite checks the recursion's lemmas in place of the dense
    # residual and closed form, and G G = 2^D I in column batches.  A helper interpreter
    # starts the run, hashes its output and reads its peak RSS with os.wait4.
    helper = (
        "import hashlib, os, subprocess, sys\n"
        "argv = [sys.executable, '-m', 'trifourier', 'verify', '--dim', '14', '--suite', 'all']\n"
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
    assert rc == "0"
    assert int(maxrss_kib) < 1024 * 1024, f"peak RSS {int(maxrss_kib) / 1024:.0f} MB"
    assert digest == GOLDEN_D14_SHA256


# SHA-256 of `verify --dim 14 --suite all`, recorded when the suite first ran at D = 14.
GOLDEN_D14_SHA256 = "e80a85ead8a479822d7bd33e409f19972a07f77fdb25e11a210e1774f91acbb5"


# SHA-256 of the standard output of each command: the family, dihedral and
# counts outputs recorded before the interval bases were carried through the
# recursion, the matrix and Fourier outputs before the GF(2) transform moved
# from numpy arrays to Python ints, the non-abelian ones before the cyclotomic
# matrices moved from numpy slices to packed ints, the two D = 10 family-suite
# ones before the graph-invariant recursion became two rotation closures, the
# D = 10 matrix exports before the exports were streamed, the D = 10 and D = 12
# Fourier suites while the change of basis was still one 2^D-column peel solve,
# the s5 hyperplane JSON when `--format json` first applied to it (the same bytes
# as the check's Report JSON before the Fourier matrix was built over columns).
# A digest that moves is a change to the bytes the CLI prints.  The outputs do
# not depend on PYTHONHASHSEED.
GOLDEN_SHA256 = {
    "family --dim 0 --format text": "48a2dc5d53e6f79260a55a7b775f7299115db31b5fbeb3299057a98bad5092ef",
    "family --dim 0 --format json": "74d130a768202df963d5b06d1a2e542b310945cba6329e6dc8251d4d21cc203d",
    "verify --dim 0 --suite family --format text": "3066ee46a8aff621ba9b123ce9c626dec451b7b75accac83eda4eac3cae16782",
    "verify --dim 0 --suite family --format json": "9513a738d44299e675e32693f2f51c94a4cc583593fa951a1f1a49901ffaa652",
    "verify --dim 0 --suite dihedral --format text": "62ebbdc7eb34ded841745106114df00a609f6f586f1414c321118812577bf061",
    "verify --dim 0 --suite dihedral --format json": "19fb26ce4c884534e7f6b4d7775d656b3ea93a5f3a3f993d03cd722f56649088",
    "verify --dim 0 --suite counts --format text": "903f1fb4b795b5cafa2c287b68bdb776e2709cc4e1598c9e059371739552c1f7",
    "verify --dim 0 --suite counts --format json": "859a07a7a256329cdbfe1056b967dc6de974e21131a8172b12371af4aaaf45cb",
    "family --dim 2 --format text": "20a1f7c1443c24c343eaa83adfe8bb1571b24bd172589736289cf42f53fb490d",
    "family --dim 2 --format json": "3d7dcdaf00eb999bdecdb7c8dec2c2c4cd73e4bc9b651b519b47149fd735ef99",
    "verify --dim 2 --suite family --format text": "ede957a51b9ddfcda9aa39f6d20867b7ec7194dde85a27b120fc98062655c955",
    "verify --dim 2 --suite family --format json": "bc21e33dfd442679a17e53894f87c7b8969f7bb76110bab8c3761c4eb5a588f0",
    "verify --dim 2 --suite dihedral --format text": "000b5b4f6554d121070c4a24643141a8ab4623b9f926c3c917960aeb6a243b50",
    "verify --dim 2 --suite dihedral --format json": "b4225856c4aa776aa55260432e8ea30a7ebcd39bfd049d9bc40ebf1e33ccce53",
    "verify --dim 2 --suite counts --format text": "7b92c84597904b9ce1328a97935e7de204b732a5584cc2064fe7b5c836ec1a66",
    "verify --dim 2 --suite counts --format json": "2a39922550d6e706681f6f44cc41678a8a1a19853cddccb01c4f2fbffbbe06b9",
    "family --dim 4 --format text": "e7a7cfba643b882e050a2a8e055fb0050caaea7f8f6a50425233ba2562530cef",
    "family --dim 4 --format json": "86b65e2d8d56a11246d1b0ab61cfd0c2eb2a0ad2be932a998ce58f80597ae9d5",
    "verify --dim 4 --suite family --format text": "d127935ffbf15072ad31777ada2b1096ff1641c899d12617340c05be9cde630b",
    "verify --dim 4 --suite family --format json": "970ca812469304c864e2af4f6720ae777bc47602d5d8822454904889f789a592",
    "verify --dim 4 --suite dihedral --format text": "b77d6d226b268372f9437920be1d70d884cddb329634d6db0c783400c4c530c9",
    "verify --dim 4 --suite dihedral --format json": "a81605a9f5c262dec7328fe3b49e293011febc0ead73f70ae925055fd8d06d19",
    "verify --dim 4 --suite counts --format text": "ad5589e8ac91aed657e09503c541156871c5679d981000787880bbe920d4cfa6",
    "verify --dim 4 --suite counts --format json": "c8512fafda01fe2265ae9a8d0722f0b296ddcb42e4a08d898d63b6d9e3af7cc4",
    "family --dim 6 --format text": "2368dd57d623b6cd427a0efb76afa26d6765f32c83868d4ee1bd9c6b97c8b602",
    "family --dim 6 --format json": "d1bb676394e17012165a03591dcbc710b6ed2e5e80bdf830660edf43ae2f23a3",
    "verify --dim 6 --suite family --format text": "56d695250cf42f3fb90b2b962b005b951d0dae260b0e24ae96916f9d7bdd1343",
    "verify --dim 6 --suite family --format json": "d552fc43cb3749a2ad6320b4ee7c6844d15355b390b5b739fe55c109932e0881",
    "verify --dim 6 --suite dihedral --format text": "3fbaab85ab5ec698a17b164d60f7c3c3f0f72fa8998e1c7932bca8f090c04dc7",
    "verify --dim 6 --suite dihedral --format json": "e4ac7e7eab576f625b80cd542b85d07d5b31a9a4a12e416c43f0687cc025fbbd",
    "verify --dim 6 --suite counts --format text": "a3cb38b21100d1bc62749529753c09d1d87a7e13e1811be45ed23d84ccbc4349",
    "verify --dim 6 --suite counts --format json": "eab850a6462d22e88bcd1ded4b6a2675feb64b280b314078985e2541d4108a69",
    "family --dim 8 --format text": "816f492514d05cce2743266909c0a5b98901d6ec04bff65d7d817fa8726e5e8c",
    "family --dim 8 --format json": "f003ce1b8b4e1792c640f7fd537a1bb032880cf86b91acb3c3f00e59b2c21adb",
    "verify --dim 8 --suite family --format text": "afbe6271372b12633bc0e682dfb36a064ced80e11dbd1a60ae96046198879a34",
    "verify --dim 8 --suite family --format json": "32d3d46e8accbe44aa81a6c6a77ff50cf04ee29e3f2b593d728504d4e8f8627e",
    "verify --dim 8 --suite dihedral --format text": "23bf7e3992813e5d583b600a052c54b943f4daa93022889788dc7939cd3d89df",
    "verify --dim 8 --suite dihedral --format json": "b323927292643a19c65de308f9a918716ea1ae8932cd6d25bc0a2a8f3b1ed7b0",
    "verify --dim 8 --suite counts --format text": "beeee86bb788d256acb9ff5b1d9f168bdb8084241bd6550536cb2813362fbaab",
    "verify --dim 8 --suite counts --format json": "0b51c433f99504ba579f6b139c3baa0f0feae9fb2089b913caceae04aed864ea",
    "verify --dim 10 --suite family --format text": "5ba9399ac94e3bfb87c9fc5d5b2ae78cb0dcf8fd6d8c57e849007402256eb719",
    "verify --dim 10 --suite family --format json": "3ee422c6fe5934b6c4dd514cb38820b4d1a85b986b7648d8b7ecdcc906590c7c",
    "matrix --dim 0 --format json": "72ccb852d8ee6a1a08101888511be9eeb72f2d06fa87b02020a11b6a31c8cc17",
    "matrix --dim 0 --format csv": "916cc3366aae86c3ee776e4bdff3763761f0f3d887959b803fa2ddc26066717a",
    "verify --dim 0 --suite fourier --format text": "6991d9ec34f2171625d57d60e4612510c855e1660d6534f886d36dd6dc2b3a00",
    "verify --dim 0 --suite fourier --format json": "57f9b81c979bda759a538b7e0a19f8037460c6f609983f098712668546d67fc3",
    "verify --dim 0 --suite all --format text": "44396d904e50ede369436d84d8fb91b744d3f38b1f812a22d9e3415854296b47",
    "verify --dim 0 --suite all --format json": "9312b45e60067b19278cbc40856c3148c7afbbe1679b719c451853deeb6b5b53",
    "matrix --dim 2 --format json": "84589870eabe70b12158d674100a654f128ac087912a1f6e23ac8ee620ffbb28",
    "matrix --dim 2 --format csv": "53c2fdcc294efd149daa52db1ec31acfd38dcc71ba91581aa596fb18a9bd4baa",
    "verify --dim 2 --suite fourier --format text": "e923e4c4e0f1b81225c05505fcbf13a0b531b7b41975df9537ab58c591241732",
    "verify --dim 2 --suite fourier --format json": "ed81d37ec15131555c90ff9ae08445bbab5327500d4b6545ab261baeca3eb3e9",
    "verify --dim 2 --suite all --format text": "540dbf93e300e682d643d9b42ce813d87ad6f41e61bf9a3a50a450bc2a53eab7",
    "verify --dim 2 --suite all --format json": "ecbceeb01f77c68116615824dead5c1766c08dfd446ca95f37bc382cc3193b9f",
    "matrix --dim 4 --format json": "8cfc08fde2257e69619a721e5b22ed9979293b160bca9b6a294876e41238877a",
    "matrix --dim 4 --format csv": "f16f3a486f2588870d740dc73d448c23e11be619270fc62aaaa9f0ebbd26db97",
    "verify --dim 4 --suite fourier --format text": "800b2fa9c6db84a76dd49b46d58242e5b8a2e404e25e94deeaf8d39bf0425502",
    "verify --dim 4 --suite fourier --format json": "0d98d8c54bd0a2b8dfeb71c55f5b82c11725a8e7b0d387cd239405235ed748a7",
    "verify --dim 4 --suite all --format text": "06f7822c31cc8d4245282fe740aa40821bed590e872a2e9d0dda953baa6e0507",
    "verify --dim 4 --suite all --format json": "fd5241a11eb5c9115e534b0ad468ddddfdd54ac9786efd8671f7156ffc5dd6fd",
    "matrix --dim 6 --format json": "f48b974b5b3dd9436b014fc4d1690425ba6a6145b2677288769fd2f6c6883638",
    "matrix --dim 6 --format csv": "12cbcde182359c939b2b022002088c8fb9838fc376749ad2355b2f2a787b32f6",
    "verify --dim 6 --suite fourier --format text": "738b82a69652c975305bc3f32739ce77fbb14978d5c93176cadf9eb63bc30e5b",
    "verify --dim 6 --suite fourier --format json": "76620650dcad616162e51d97f04ff1e899f93fc3080e96a2f3cf915c67ab5ece",
    "verify --dim 6 --suite all --format text": "f6507777517e252dbddd42a9c3c8f6bdc49df38ad9bb6f29ca761c0ddd02f0e0",
    "verify --dim 6 --suite all --format json": "e4669e007d085d69f77daf019dff06647eaa0ea661e26d6a282e620d9ca88269",
    "matrix --dim 8 --format json": "f5c5c8e87724f1cf162fc79e19dfb0a319e3a9584cc61e8a97a91d3d83bccdf6",
    "matrix --dim 8 --format csv": "0b20a4d585c71de0f190829939bdcc865a8cf66745bba5ee17d155f6dde2bbd6",
    "matrix --dim 10 --format json": "735b147a2a3672b4171f22393530e30cf76fa924a3e0b9fc392f466175f6170c",
    "matrix --dim 10 --format csv": "30c0c8181db1018a9259b76d8ed371204ab77d97525b9141976687c6e016105b",
    "verify --dim 8 --suite fourier --format text": "39034ca779eba6016be64981ff65fe788c2d02ae850d059db7dc6f4428f55670",
    "verify --dim 8 --suite fourier --format json": "968bf596e8f535e8a777623a7bd9fb5a0931ac6925b20823a88c3758b0aa1c70",
    "verify --dim 8 --suite all --format text": "1ca0b7e649d6ce0b08a94af2f05bd58cc58cb930e6c831242ed28ee5a10ca76a",
    "verify --dim 8 --suite all --format json": "c2cfe7ac9d83621cd7dd70caa8468f876a246762aedae4e0ad5b5a17f15989f2",
    "verify --dim 10 --suite all --format text": "a64eae1cd448bad94db4e4f3f2f06613af6f3a5513caae731fe57072df0c69c4",
    "verify --dim 10 --suite all --format json": "58a9e737eb47de1fe80d129ba13640d5655388143a6650dec2493558eeb77ff6",
    "verify --dim 12 --suite fourier --format text": "fdaeddb68e703a23fb1e8f29ff6a1f90ba195ff34524ca92e9fadd513cf8d269",
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
