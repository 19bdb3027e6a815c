import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trifourier
from trifourier.cli import main
from trifourier.nonabelian import NewBasis, new_basis_to_json, s3_new_basis


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


def test_family_exports_and_symmetry_suites_leave_numpy_unimported():
    # the family, dihedral and counts paths stay pure Python: numpy would add its import and RSS
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        "for argv in (['family', '--dim', '4', '--format', 'json'],\n"
        "             ['verify', '--dim', '4', '--suite', 'dihedral'],\n"
        "             ['verify', '--dim', '4', '--suite', 'counts']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(argv)\n"
        "    assert rc == 0, (argv, rc)\n"
        "    assert 'numpy' not in sys.modules, ('numpy was imported', argv)\n"
    )
    src = str(Path(trifourier.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    runs = [(["--group", g, "--check", c], 0) for g in ("s3", "s4", "s5") for c in ("matrix", "involution", "trace")]
    runs += [(["--group", "s5", "--check", "hyperplane"], 0)]
    runs += [(["--group", "s3", "--variant", v, "--check", "newbasis", "--format", f], 0)
             for v in ("g2", "e") for f in ("text", "json")]
    # the identity is not piece-triangular, so these report a failure (exit 1) after the full check
    runs += [(["--group", g, "--check", "newbasis", "--basis", str(bases[g])], 1) for g in ("s4", "s5")]
    script = (
        "import contextlib, io, sys\n"
        "from trifourier.cli import main\n"
        f"for argv, want in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = main(['nonabelian', *argv])\n"
        "    assert rc == want, (argv, rc)\n"
        "    assert 'numpy' not in sys.modules, ('numpy was imported', argv)\n"
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


# SHA-256 of the standard output of each command: the GF(2) outputs recorded
# before the interval bases were carried through the recursion, the non-abelian
# ones before the cyclotomic matrices moved from numpy slices to packed ints.  A
# digest that moves is a change to the bytes the CLI prints.  The outputs do not
# depend on PYTHONHASHSEED.
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
