import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trifourier
from trifourier.cli import main
from trifourier.nonabelian import NewBasis, mdata, s3_new_basis

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
# certification path at every D and the isotropy checks one grouped line.
GOLDEN_VERIFY_ALL_SHA256 = {
    12: "0ff39207b3137b6c4ef26aea8b0ad82438dbf5df21d129d75b5ba492430385d9",
    14: "3a1fd7e77f2acbe0409ea2a15ea4ace840a300749da378001f5f72bc934a3f6f",
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
# isotropy checks one grouped line.
# A digest that moves is a change to the bytes the CLI prints.  The outputs do
# not depend on PYTHONHASHSEED.
GOLDEN_SHA256 = {
    "family --dim 0 --format text": "48a2dc5d53e6f79260a55a7b775f7299115db31b5fbeb3299057a98bad5092ef",
    "family --dim 0 --format json": "74d130a768202df963d5b06d1a2e542b310945cba6329e6dc8251d4d21cc203d",
    "verify --dim 0 --suite family --format text": "73d50f8b00217312cafb6ddf33549596f09c04afb7fc281a2ec835aa04e66444",
    "verify --dim 0 --suite family --format json": "c31a3bbfd4671afd0d323f24f09241d37d91e1c6494d450b5b026b7b8603dfc1",
    "verify --dim 0 --suite dihedral --format text": "62ebbdc7eb34ded841745106114df00a609f6f586f1414c321118812577bf061",
    "verify --dim 0 --suite dihedral --format json": "19fb26ce4c884534e7f6b4d7775d656b3ea93a5f3a3f993d03cd722f56649088",
    "verify --dim 0 --suite counts --format text": "903f1fb4b795b5cafa2c287b68bdb776e2709cc4e1598c9e059371739552c1f7",
    "verify --dim 0 --suite counts --format json": "859a07a7a256329cdbfe1056b967dc6de974e21131a8172b12371af4aaaf45cb",
    "family --dim 2 --format text": "20a1f7c1443c24c343eaa83adfe8bb1571b24bd172589736289cf42f53fb490d",
    "family --dim 2 --format json": "3d7dcdaf00eb999bdecdb7c8dec2c2c4cd73e4bc9b651b519b47149fd735ef99",
    "verify --dim 2 --suite family --format text": "c8c30ee4e3c5a7f370e652972538717d1ad824d3cbb87d76a44a313e2cc3e6dd",
    "verify --dim 2 --suite family --format json": "5084bbac8fd05b5a8955cf37abf60418a468afefdf411733dff9a9e5c345493b",
    "verify --dim 2 --suite dihedral --format text": "000b5b4f6554d121070c4a24643141a8ab4623b9f926c3c917960aeb6a243b50",
    "verify --dim 2 --suite dihedral --format json": "b4225856c4aa776aa55260432e8ea30a7ebcd39bfd049d9bc40ebf1e33ccce53",
    "verify --dim 2 --suite counts --format text": "7b92c84597904b9ce1328a97935e7de204b732a5584cc2064fe7b5c836ec1a66",
    "verify --dim 2 --suite counts --format json": "2a39922550d6e706681f6f44cc41678a8a1a19853cddccb01c4f2fbffbbe06b9",
    "family --dim 4 --format text": "e7a7cfba643b882e050a2a8e055fb0050caaea7f8f6a50425233ba2562530cef",
    "family --dim 4 --format json": "86b65e2d8d56a11246d1b0ab61cfd0c2eb2a0ad2be932a998ce58f80597ae9d5",
    "verify --dim 4 --suite family --format text": "43237d05bef1c3c3bf1b96944c74892f177d37b5e2d14d55224e281cd5fba0c4",
    "verify --dim 4 --suite family --format json": "1b7a809c431c56446556661d083c2c9b3be6a1816d98047defddc4973cfffdbc",
    "verify --dim 4 --suite dihedral --format text": "b77d6d226b268372f9437920be1d70d884cddb329634d6db0c783400c4c530c9",
    "verify --dim 4 --suite dihedral --format json": "a81605a9f5c262dec7328fe3b49e293011febc0ead73f70ae925055fd8d06d19",
    "verify --dim 4 --suite counts --format text": "ad5589e8ac91aed657e09503c541156871c5679d981000787880bbe920d4cfa6",
    "verify --dim 4 --suite counts --format json": "c8512fafda01fe2265ae9a8d0722f0b296ddcb42e4a08d898d63b6d9e3af7cc4",
    "family --dim 6 --format text": "2368dd57d623b6cd427a0efb76afa26d6765f32c83868d4ee1bd9c6b97c8b602",
    "family --dim 6 --format json": "d1bb676394e17012165a03591dcbc710b6ed2e5e80bdf830660edf43ae2f23a3",
    "verify --dim 6 --suite family --format text": "3ef0408bae9d3042620f629bdfc3b0d22bf143532dd2328183e8c6b31c94812a",
    "verify --dim 6 --suite family --format json": "117e33710601d57d5b2fd3f1fe96ca84c4b66d38a6fb5e4b30de560ba905040a",
    "verify --dim 6 --suite dihedral --format text": "3fbaab85ab5ec698a17b164d60f7c3c3f0f72fa8998e1c7932bca8f090c04dc7",
    "verify --dim 6 --suite dihedral --format json": "e4ac7e7eab576f625b80cd542b85d07d5b31a9a4a12e416c43f0687cc025fbbd",
    "verify --dim 6 --suite counts --format text": "a3cb38b21100d1bc62749529753c09d1d87a7e13e1811be45ed23d84ccbc4349",
    "verify --dim 6 --suite counts --format json": "eab850a6462d22e88bcd1ded4b6a2675feb64b280b314078985e2541d4108a69",
    "family --dim 8 --format text": "816f492514d05cce2743266909c0a5b98901d6ec04bff65d7d817fa8726e5e8c",
    "family --dim 8 --format json": "f003ce1b8b4e1792c640f7fd537a1bb032880cf86b91acb3c3f00e59b2c21adb",
    "verify --dim 8 --suite family --format text": "7ed408792afaebcd7df17cb27f768e823a1baf7337352b984e5388e462a51c9b",
    "verify --dim 8 --suite family --format json": "d1d9fbbae61185b3ab46d1978952c3553b38c33feda048c41a4b638d5035363d",
    "verify --dim 8 --suite dihedral --format text": "23bf7e3992813e5d583b600a052c54b943f4daa93022889788dc7939cd3d89df",
    "verify --dim 8 --suite dihedral --format json": "b323927292643a19c65de308f9a918716ea1ae8932cd6d25bc0a2a8f3b1ed7b0",
    "verify --dim 8 --suite counts --format text": "beeee86bb788d256acb9ff5b1d9f168bdb8084241bd6550536cb2813362fbaab",
    "verify --dim 8 --suite counts --format json": "0b51c433f99504ba579f6b139c3baa0f0feae9fb2089b913caceae04aed864ea",
    "family --dim 10": "ba0c3609e6585c54ab1d64f8f5d6135c2f5b73e9708b3de3b4d16972d3a73969",
    "family --dim 10 --format json": "354a22b71e6ccab2f4c6a6a0c5246a760a3305290d0b788402607941168fbd17",
    "verify --dim 10 --suite family --format text": "0c1781c0dc0cdeba858d7f6d682c5999ea6a39869207b13a8c5f364a932e8e49",
    "verify --dim 10 --suite family --format json": "671cf4fda14ccab334ad84138b7a20075efeafe2b51885cc14f40548ba3b2a13",
    "matrix --dim 0 --format json": "72ccb852d8ee6a1a08101888511be9eeb72f2d06fa87b02020a11b6a31c8cc17",
    "matrix --dim 0 --format csv": "916cc3366aae86c3ee776e4bdff3763761f0f3d887959b803fa2ddc26066717a",
    "verify --dim 0 --suite fourier --format text": "dafc3dedbd3faadf03af80c0ff7cc307f0efc5a13b251facc27fe71c184a37cc",
    "verify --dim 0 --suite fourier --format json": "c30b87a4131d2d14408eda1b160b999a8eaa6fbb0dff15aa754f073b1280721b",
    "verify --dim 0 --suite all --format text": "22c4d55697fcd4039f0a78388a5387cbb1313df9fc9224bdea44d25d946178c4",
    "verify --dim 0 --suite all --format json": "d207799b4959caee71a21494e887f12785897948050c7d22076e7b90bcf964ca",
    "matrix --dim 2 --format json": "84589870eabe70b12158d674100a654f128ac087912a1f6e23ac8ee620ffbb28",
    "matrix --dim 2 --format csv": "53c2fdcc294efd149daa52db1ec31acfd38dcc71ba91581aa596fb18a9bd4baa",
    "verify --dim 2 --suite fourier --format text": "dc726ae5e7d43e64e2dd86353ccded1e2194bd12316bc75f45a75eadc50918b3",
    "verify --dim 2 --suite fourier --format json": "eb013c03656bcb986007ba6d0f2b4d42b2b2331edd667c173e76c25e63b941c2",
    "verify --dim 2 --suite all --format text": "851b3a07019e3b5ebf114c4d1b541de02ee344d3da6192225a8b443c9c19b1b2",
    "verify --dim 2 --suite all --format json": "13af8a31afdade8092867627b406e058fc08172df65558530a707ebb8e03cd26",
    "matrix --dim 4 --format json": "8cfc08fde2257e69619a721e5b22ed9979293b160bca9b6a294876e41238877a",
    "matrix --dim 4 --format csv": "f16f3a486f2588870d740dc73d448c23e11be619270fc62aaaa9f0ebbd26db97",
    "verify --dim 4 --suite fourier --format text": "994e4b80eb8d4e1755a20555b5fe578cef0b4eeb2d5edf348073d7ce26ab2071",
    "verify --dim 4 --suite fourier --format json": "2a31f395ff516e08acbcac2cc15f5aa71391c772079f74ff371015c80cc4c7aa",
    "verify --dim 4 --suite all --format text": "0f739b633b602732a9f941945a76b6f77f582b7d96771879564ad7d09b6aa251",
    "verify --dim 4 --suite all --format json": "9cafcc21449f4a4bb7e75ff221e4c2e9df18e447e6ba1ffd27627d566c4b26e4",
    "matrix --dim 6 --format json": "f48b974b5b3dd9436b014fc4d1690425ba6a6145b2677288769fd2f6c6883638",
    "matrix --dim 6 --format csv": "12cbcde182359c939b2b022002088c8fb9838fc376749ad2355b2f2a787b32f6",
    "verify --dim 6 --suite fourier --format text": "901bf69c678c081e08608b18ada3a5bb063e6ed73c8fab4691137149d84830d8",
    "verify --dim 6 --suite fourier --format json": "9ec02cec73ab02baf460614b8d596c6261ede831991a023572001dd4e8d8398f",
    "verify --dim 6 --suite all --format text": "a8ace307e65c936ec3241c3f24480a5070331caa6692e0e48c5c4ec6850bd45b",
    "verify --dim 6 --suite all --format json": "13eccd16f093b5a1e6cfa53c878c9f1dbee580eba6bc1ca9e094547d168d0cdc",
    "matrix --dim 8 --format json": "f5c5c8e87724f1cf162fc79e19dfb0a319e3a9584cc61e8a97a91d3d83bccdf6",
    "matrix --dim 8 --format csv": "0b20a4d585c71de0f190829939bdcc865a8cf66745bba5ee17d155f6dde2bbd6",
    "matrix --dim 10 --format json": "735b147a2a3672b4171f22393530e30cf76fa924a3e0b9fc392f466175f6170c",
    "matrix --dim 10 --format csv": "30c0c8181db1018a9259b76d8ed371204ab77d97525b9141976687c6e016105b",
    "verify --dim 8 --suite fourier --format text": "a2b8d15e09325a32f62873595789e603a0f0c0ead328e3a6be6097168a4154c8",
    "verify --dim 8 --suite fourier --format json": "90decb84506891a2c36ab3e0f396bcf94dd0095bb816cacd568fa6bcbcf1fea5",
    "verify --dim 8 --suite all --format text": "2d50a6f85e4cfb212c254ea647c130ef0ea36b0a34c7126979859b11b9541e91",
    "verify --dim 8 --suite all --format json": "40b7a06c9eb53669c5da11ad29f25b43282d621e6bc0543917245e3ca4c8b8cd",
    "verify --dim 10 --suite all --format text": "3e92ee615aed2b5368e0eb7d48c10d70534f8e6d008207628fcd8ba4b21f755c",
    "verify --dim 10 --suite all --format json": "4b86357f27e4ff612a6aefcd7c58d720815c03eaad73f23a134d979720f0a111",
    "verify --dim 12 --suite fourier --format text": "1709a6eab8367c149473d30b636c2890645774272889d918de0871f8441632d4",
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
