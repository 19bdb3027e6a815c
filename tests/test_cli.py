import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifourier
from trifourier.cli import main
from trifourier.nonabelian import new_basis_to_json, s3_new_basis


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


def test_nonabelian_hyperplane(capsys):
    code, out, _ = run(capsys, "nonabelian", "--group", "s5", "--check", "hyperplane")
    assert code == 0
    code_bad, _, err = run(capsys, "nonabelian", "--group", "s3", "--check", "hyperplane")
    assert code_bad == 1 and "s5" in err


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


def test_nonabelian_basis_file_missing_field(capsys, tmp_path):
    doc = new_basis_to_json(s3_new_basis("g2"))
    del doc["expansions"][2]["label"]["rho"]
    path = tmp_path / "norho.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "nonabelian", "--group", "s3", "--check", "newbasis", "--basis", str(path))
    assert code == 1
    assert err.count("\n") == 1 and str(path) in err and "'rho'" in err and "expansion 2" in err


def test_dim_above_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["family", "--dim", "16"])
    assert err.value.code == 2
    assert "dimension must be <= 14" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--dim", "14"],
        ["verify", "--dim", "14", "--suite", "fourier"],
        ["verify", "--dim", "14", "--suite", "all"],
    ],
)
def test_dense_fourier_above_d12_is_refused(capsys, argv):
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
        "import trifourier\n"
        "missing = [n for n in trifourier.__all__ if getattr(trifourier, n, None) is None]\n"
        "assert not missing, missing\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_trace_hooks_resolve():
    # the benchmark's traced pass wraps module attributes by name; a rename must fail here
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    script = "import traced\ntraced.instrument(traced.Tracer())\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root / "perfbench", env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
