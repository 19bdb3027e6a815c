"""Self-tests of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Genuine outputs come from the CLI at small
sizes and must pass; each corrupted copy must be rejected for the stated
reason.  Prints one line per case and exits 0 iff every case behaves.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
failures: list[str] = []


def cli(*argv: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    res = subprocess.run([sys.executable, "-m", "trifourier", *argv], capture_output=True, text=True, env=env, cwd=ROOT)
    return res.returncode, res.stdout


def case(name: str, check, rc: int, out: str, reject_because: str | None = None) -> None:
    """Genuine output (reject_because None) must pass; otherwise the message must name the reason."""
    try:
        check(rc, out, random.Random(0))
        problem = None
    except checks.Mismatch as exc:
        problem = str(exc)
    if reject_because is None:
        ok, seen = problem is None, problem or "passed"
    else:
        ok, seen = problem is not None and reject_because in problem, problem or "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {seen}")
    if not ok:
        failures.append(name)


def dumped(doc) -> str:
    return json.dumps(doc) + "\n"


def matrix_cases() -> None:
    for dim in (4, 6):
        rc, out = cli("matrix", "--dim", str(dim), "--format", "json")
        case(f"matrix D={dim} genuine", partial(checks.check_matrix_json, dim=dim), rc, out)
    check = partial(checks.check_matrix_json, dim=6)
    doc = json.loads(out)
    r, c = next((r, c) for r, row in enumerate(doc["entries"]) for c, s in enumerate(row) if c > r and s != "0")
    flipped = copy.deepcopy(doc)
    flipped["entries"][r][c] = str(-checks.Fraction(doc["entries"][r][c]))
    case("matrix with one entry negated", check, 0, dumped(flipped), "does not expand")
    diag = copy.deepcopy(doc)
    diag["entries"][5][5] = str(-checks.Fraction(doc["entries"][5][5]))
    case("matrix with one diagonal sign flipped", check, 0, dumped(diag), "diagonal sign")
    lower = copy.deepcopy(doc)
    lower["entries"][9][2] = "1/8"
    case("matrix with an entry below the diagonal", check, 0, dumped(lower), "below the diagonal")
    relabelled = copy.deepcopy(doc)
    relabelled["order"][2]["label"] = doc["order"][1]["label"]
    case("matrix with a member label repeated", check, 0, dumped(relabelled), "repeats")


def family_cases() -> None:
    rc, out = cli("family", "--dim", "6", "--format", "json")
    check = partial(checks.check_family_json, dim=6)
    case("family json D=6 genuine", check, rc, out)
    doc = json.loads(out)
    dropped = copy.deepcopy(doc)
    dropped["entries"].pop(17)
    dropped["size"] -= 1
    case("family json with a member dropped", check, 0, dumped(dropped), "members")

    rc, out = cli("family", "--dim", "10")
    check = partial(checks.check_family_text, dim=10)
    case("family table D=10 genuine", check, rc, out)
    lines = out.splitlines()
    case("family table with a line dropped", check, 0, "\n".join(lines[:40] + lines[41:]) + "\n", "lines")
    i = next(i for i, line in enumerate(lines) if line.count("<") >= 3)
    short = lines[:i] + ["<" + lines[i].split(",<", 1)[1]] + lines[i + 1:]
    case("family table with a member dropped", check, 0, "\n".join(short) + "\n", "members")


def group_cases() -> None:
    rc, out = cli("nonabelian", "--group", "s5", "--check", "matrix")
    case("s5 matrix genuine", checks.check_s5_matrix, rc, out)
    doc = json.loads(out)
    i, j = 3, 20
    wrong_trace = copy.deepcopy(doc)
    wrong_trace["entries"][i][i] = [{"num": 1, "den": 7, "exp": 0}]
    case("s5 matrix with a wrong trace", checks.check_s5_matrix, 0, dumped(wrong_trace), "trace")
    not_involutive = copy.deepcopy(doc)
    for a, b in ((i, j), (j, i)):
        not_involutive["entries"][a][b] = [dict(t, num=2 * t["num"]) for t in doc["entries"][a][b]] or [
            {"num": 1, "den": 5, "exp": 0}
        ]
    case("s5 matrix that is not an involution", checks.check_s5_matrix, 0, dumped(not_involutive), "involution")
    rc, out = cli("nonabelian", "--group", "s5", "--check", "trace")
    case("s5 trace genuine", checks.check_s5_trace, rc, out)
    case("s5 trace wrong", checks.check_s5_trace, 0, "12\n", "13")
    rc, out = cli("nonabelian", "--group", "s4", "--check", "involution")
    case("s4 involution genuine", checks.check_involution_verdict, rc, out)
    case("involution verdict negative", checks.check_involution_verdict, 1, "involution: fail\n", "exit 1")

    rc, out = cli("nonabelian", "--group", "s3", "--variant", "e", "--check", "newbasis")
    case("s3 new basis genuine", checks.check_s3_newbasis, rc, out)
    case("s3 new basis with other signs", checks.check_s3_newbasis, rc,
         out.replace("signs: -1,-1,1", "signs: -1,1,1"), "observed signs")
    basis = ROOT / ".perfbench_out" / "selftest-identity-basis.json"
    basis.parent.mkdir(exist_ok=True)
    basis.write_text(json.dumps(checks.identity_basis_s5()), "utf-8")
    rc, out = cli("nonabelian", "--group", "s5", "--check", "newbasis", "--basis", str(basis))
    case("s5 identity basis genuine (negative verdict)", checks.check_s5_identity_newbasis, rc, out)
    case("s5 identity basis with exit 0", checks.check_s5_identity_newbasis, 0, out, "exit 0")

    rc, out = cli("verify", "--dim", "4", "--suite", "all")
    case("verify D=4 genuine", checks.check_report_pass, rc, out)
    case("verify with a failing check", checks.check_report_pass, rc, out.replace("[PASS]", "[FAIL]", 1), "failing check")


def spec_case() -> None:
    """BENCHMARK.json lists exactly the per-layer metrics the traced pass emits."""
    sys.path.insert(0, str(ROOT / "src"))
    import traced

    emitted = set(traced.LAYERS) | {"trace.unattributed_s", "cyclotomic.mul_us", "trace.overhead_ratio"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    listed = {m["name"] for m in spec["per_layer"]}
    ok = emitted == listed
    print(f"{'ok  ' if ok else 'FAIL'} per-layer metrics match BENCHMARK.json: {sorted(emitted ^ listed) or 'same'}")
    if not ok:
        failures.append("spec")


if __name__ == "__main__":
    matrix_cases()
    family_cases()
    group_cases()
    spec_case()
    print(f"{len(failures)} failing case(s)")
    sys.exit(1 if failures else 0)
