"""Output checks for the trifourier CLI, made apart from the program.

Nothing here imports trifourier.  Members are decoded from their printed
labels with this file's own circular-vector arithmetic, the symplectic
pairing is recomputed from its definition (circularly adjacent basis vectors
pair to 1), and the group matrix is evaluated in complex doubles.  Every
check raises Mismatch on the first problem it finds.
"""

from __future__ import annotations

import cmath
import json
import random
import re
from fractions import Fraction
from math import comb

import numpy as np


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- GF(2) arithmetic on the circular basis ------------------------------------


def circular(vertex: int, dim: int) -> int:
    """e_v as a coordinate mask; e_{D+1} is the sum of e_1 .. e_D."""
    return (1 << dim) - 1 if vertex == dim + 1 else 1 << (vertex - 1)


def gram(v: int, dim: int) -> int:
    """Mask of the functional (., v): on e_1..e_D, e_i pairs with e_{i-1}, e_{i+1}."""
    return ((v << 1) ^ (v >> 1)) & ((1 << dim) - 1)


def pairing(u: int, v: int, dim: int) -> int:
    return (u & gram(v, dim)).bit_count() & 1


def echelon(vectors) -> tuple[int, ...]:
    """Canonical reduced basis of the span (pivot = highest set bit)."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            v = min(v, v ^ r)
        if v:
            rows = [min(r, r ^ v) for r in rows] + [v]
    return tuple(sorted(rows, reverse=True))


def span_elements(basis) -> list[int]:
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def isotropic(basis, dim: int) -> bool:
    return all(pairing(a, b, dim) == 0 for i, a in enumerate(basis) for b in basis[i + 1:])


def sign(n: int) -> int:
    """(-1)^(N(N+1)/2)."""
    return -1 if (n * (n + 1) // 2) % 2 else 1


def run_vector(run, dim: int) -> int:
    """Sum of e_v over a run of vertices."""
    vec = 0
    for v in run:
        vec ^= circular(v, dim)
    return vec


def decode_label(label: str, dim: int) -> list[int]:
    """Basis vectors of a member from its printed label.

    A label is the empty-set symbol or "<run,...>" where each run is a
    circular run of an odd number of consecutive vertices of 1..D+1.  For
    D+1 <= 10 a run is a digit string and runs are comma separated; above,
    vertices are comma separated and runs are joined by semicolons.
    """
    if label == "∅":
        return []
    require(label.startswith("<") and label.endswith(">"), f"malformed label {label!r}")
    body = label[1:-1]
    n = dim + 1
    if n <= 10:
        runs = [[int(ch) for ch in run] for run in body.split(",")]
    else:
        runs = [[int(v) for v in run.split(",")] for run in body.split(";")]
    basis = []
    for run in runs:
        ok = len(run) % 2 == 1 and all(1 <= v <= n for v in run)
        ok = ok and all(run[k + 1] == run[k] % n + 1 for k in range(len(run) - 1))
        require(ok, f"label {label!r}: {run} is not an odd circular run")
        basis.append(run_vector(run, dim))
    require(len(echelon(basis)) == len(basis), f"label {label!r}: runs are dependent")
    return basis


def check_members(members: list[list[int]], dim: int, what: str) -> None:
    """2^D distinct isotropic members with C(D+1, k) of each dimension k."""
    require(len(members) == 1 << dim, f"{what}: {len(members)} members, expected {1 << dim}")
    seen = set()
    counts = [0] * (dim // 2 + 1)
    for idx, basis in enumerate(members):
        require(len(basis) <= dim // 2, f"{what}: member {idx} has dimension {len(basis)}")
        require(isotropic(basis, dim), f"{what}: member {idx} is not isotropic")
        key = echelon(basis)
        require(key not in seen, f"{what}: member {idx} repeats an earlier member")
        seen.add(key)
        counts[len(basis)] += 1
    for k, got in enumerate(counts):
        require(got == comb(dim + 1, k), f"{what}: {got} members of dim {k}, expected C({dim + 1},{k})")


def check_isotropy_brute_force(members: list[list[int]], dim: int, rng: random.Random, samples: int) -> None:
    """For sampled members, every pair of elements (not just basis rows) pairs to 0."""
    for idx in rng.sample(range(len(members)), min(samples, len(members))):
        elems = span_elements(members[idx])
        ok = all(pairing(x, y, dim) == 0 for x in elems for y in elems)
        require(ok, f"member {idx}: two elements pair to 1")


# -- verification reports ------------------------------------------------------

_SUITE_LINE = re.compile(r"suite (.+): (PASS|FAIL) \((\d+) checks\)")


def parse_report(out: str) -> tuple[list[str], str, int]:
    lines = out.rstrip("\n").split("\n")
    last = _SUITE_LINE.fullmatch(lines[-1])
    require(last is not None, f"no suite summary line: {lines[-1][:80]!r}")
    body = lines[:-1]
    require(len(body) == int(last.group(3)), f"{len(body)} check lines, summary says {last.group(3)}")
    require(all(line.startswith(("[PASS] ", "[FAIL] ")) for line in body), "a line is neither PASS nor FAIL")
    return body, last.group(2), int(last.group(3))


def check_report_pass(rc: int, out: str, rng: random.Random) -> None:
    body, verdict, _ = parse_report(out)
    failed = [line for line in body if line.startswith("[FAIL]")]
    require(not failed, f"failing check: {failed[0][:120] if failed else ''}")
    require(verdict == "PASS" and rc == 0, f"verdict {verdict}, exit {rc}")


def check_s3_newbasis(rc: int, out: str, rng: random.Random) -> None:
    check_report_pass(rc, out, rng)
    require("[PASS] observed signs: -1,-1,1" in out.split("\n"), "observed signs are not -1,-1,1")


def check_s5_identity_newbasis(rc: int, out: str, rng: random.Random) -> None:
    """The identity basis keeps F itself, whose (1,1) diagonal entry is 1/120."""
    body, verdict, _ = parse_report(out)
    require(rc == 1 and verdict == "FAIL", f"expected a negative verdict with exit 1, got {verdict}, exit {rc}")
    diag = [line for line in body if line.startswith("[FAIL] diagonal is +-1")]
    require(len(diag) == 1, "the diagonal check does not fail")
    require("x='1', rho='1'" in diag[0], f"diagonal check names another pair: {diag[0]}")


def check_exit_zero(rc: int, out: str, rng: random.Random) -> None:
    require(rc == 0, f"exit {rc}")


def check_involution_verdict(rc: int, out: str, rng: random.Random) -> None:
    require(rc == 0 and out == "involution: pass\n", f"exit {rc}, output {out[:60]!r}")


def check_s5_trace(rc: int, out: str, rng: random.Random) -> None:
    require(rc == 0 and out == "13\n", f"trace of the s5 matrix is 13, got {out.strip()!r} (exit {rc})")


# -- GF(2) change of basis -------------------------------------------------------


def check_matrix_json(rc: int, out: str, rng: random.Random, dim: int) -> None:
    """2^d * phi(1_E_r) = sum_c num[r,c] * 1_E_c for every row, and the matrix facts.

    phi(1_E) = 2^(dim E - d) * 1_(E^perp).  On seeded rows the closed form is
    compared with the raw transform 2^-d * sum_y (-1)^((x,y)) 1_E(y).
    """
    require(rc == 0, f"exit {rc}")
    doc = json.loads(out)
    n, d = 1 << dim, dim // 2
    den = 1 << d
    order, entries = doc["order"], doc["entries"]
    require(doc["dim"] == dim and len(order) == n and len(entries) == n, "wrong matrix shape")
    members = [decode_label(o["label"], dim) for o in order]
    require(all(len(b) == o["dim"] for b, o in zip(members, order)), "a label disagrees with its dim")
    require([o["index"] for o in order] == list(range(n)), "order indices are not 0..n-1")
    check_members(members, dim, "matrix order")
    dims = [len(b) for b in members]
    require(dims == sorted(dims), "basis order is not by ascending dimension")

    rows: list[dict[int, int]] = []
    for r, row in enumerate(entries):
        require(len(row) == n, f"row {r} has {len(row)} entries")
        nz = {}
        for c, s in enumerate(row):
            if s != "0":
                scaled = Fraction(s) * den
                require(scaled.denominator == 1, f"entry ({r},{c}) = {s} is not in 2^-d Z")
                nz[c] = int(scaled)
        rows.append(nz)

    for r, nz in enumerate(rows):
        bad = [c for c in nz if c < r]
        require(not bad, f"nonzero entry below the diagonal at ({r},{bad[:1]})")
        require(nz.get(r, 0) == sign(d - dims[r]) * den, f"diagonal sign wrong at {r}")
    trace = sum(nz.get(r, 0) for r, nz in enumerate(rows))
    require(trace == den * den, f"trace is {Fraction(trace, den)}, expected {den}")

    xs = np.arange(n, dtype=np.int64)
    bitplanes = [(xs >> j) & 1 for j in range(dim)]
    elems = [np.array(span_elements(b), dtype=np.int64) for b in members]

    def pairing_with(v: int) -> np.ndarray:
        """(x, v) for every x, as a 0/1 vector."""
        par = np.zeros(n, dtype=np.int64)
        g = gram(v, dim)
        for j in range(dim):
            if g >> j & 1:
                par ^= bitplanes[j]
        return par

    def scaled_phi(r: int) -> np.ndarray:
        """2^d * phi(1_E_r) = 2^(dim E_r) * 1_(E_r^perp)."""
        ind = np.ones(n, dtype=bool)
        for b in members[r]:
            ind &= pairing_with(b) == 0
        return ind.astype(np.int64) << dims[r]

    for r, nz in enumerate(rows):
        lhs = np.zeros(n, dtype=np.int64)
        for c, v in nz.items():
            lhs[elems[c]] += v
        require(np.array_equal(lhs, scaled_phi(r)), f"row {r} does not expand 2^d * phi(1_E)")

    for r in rng.sample(range(n), min(8, n)):
        raw = np.zeros(n, dtype=np.int64)
        for y in elems[r]:
            raw += 1 - 2 * pairing_with(int(y))
        require(np.array_equal(raw, scaled_phi(r)), f"row {r}: closed form of phi disagrees with the raw sum")

    # M^2 = I, i.e. num @ num = 4^d I; float64 is exact below 2^53.
    dense = np.zeros((n, n))
    for r, nz in enumerate(rows):
        for c, v in nz.items():
            dense[r, c] = v
    bound = float(np.abs(dense).sum(axis=1).max() * np.abs(dense).max())
    require(bound < 2.0**53, "entries too large for an exact float64 square")
    require(np.array_equal(dense @ dense, np.eye(n) * den * den), "M^2 != I")


# -- GF(2) family exports -------------------------------------------------------


def check_family_json(rc: int, out: str, rng: random.Random, dim: int) -> None:
    require(rc == 0, f"exit {rc}")
    doc = json.loads(out)
    entries = doc["entries"]
    require(doc["dim"] == dim and doc["size"] == len(entries), "dim or size field is wrong")
    members = [list(e["basis_rows"]) for e in entries]
    require(all(len(echelon(b)) == len(b) == e["dim"] for b, e in zip(members, entries)),
            "basis rows are dependent or disagree with dim")
    check_members(members, dim, "family json")
    for e, basis in zip(entries, members):
        from_runs = [run_vector(run, dim) for run in e["iprime"]]
        require(echelon(from_runs) == echelon(basis), f"member {e['index']}: iprime runs span another subspace")
    fibered = sorted(m for f in doc["fibers"] for m in f["members"])
    require(fibered == list(range(len(entries))), "fibers do not partition the members")
    require(len(doc["fibers"]) == comb(dim + 1, dim // 2), "wrong number of fibers")
    check_isotropy_brute_force(members, dim, rng, 32)


_MEMBER = re.compile(r"∅|<[^>]*>")


def check_family_text(rc: int, out: str, rng: random.Random, dim: int) -> None:
    """One line per fiber: C(D+1, d) lines, dims rising by one up to d along each line."""
    require(rc == 0, f"exit {rc}")
    lines = out.rstrip("\n").split("\n")
    d = dim // 2
    require(len(lines) == comb(dim + 1, d), f"{len(lines)} lines, expected C({dim + 1},{d})")
    members: list[list[int]] = []
    for i, line in enumerate(lines):
        labels = _MEMBER.findall(line)
        require(",".join(labels) == line, f"line {i} is not a list of members")
        basis = [decode_label(lab, dim) for lab in labels]
        dims = [len(b) for b in basis]
        require(dims == list(range(d - len(dims) + 1, d + 1)), f"line {i}: dims {dims} do not rise to {d}")
        members += basis
    check_members(members, dim, "family table")
    check_isotropy_brute_force(members, dim, rng, 32)


# -- non-abelian Fourier matrix ------------------------------------------------

S5_PAIRS = [
    (x, rho)
    for x, labels in (
        ("1", ["1", "lambda1", "lambda2", "lambda3", "lambda4", "nu", "nu'"]),
        ("g2", ["1", "-1", "r", "-r", "eps", "-eps"]),
        ("g2'", ["1", "eps'", "eps''", "eps", "r"]),
        ("g3", ["1", "theta", "theta2", "eps", "eps*theta", "eps*theta2"]),
        ("g4", ["1", "i", "-1", "-i"]),
        ("g5", ["1", "zeta", "zeta2", "zeta3", "zeta4"]),
        ("g6", ["1", "-1", "theta", "theta2", "-theta", "-theta2"]),
    )
    for rho in labels
]

_Z60 = cmath.exp(2j * cmath.pi / 60)


def cyc_value(terms: list[dict]) -> complex:
    return sum(Fraction(t["num"], t["den"]) * _Z60 ** t["exp"] for t in terms) + 0j


def check_s5_matrix(rc: int, out: str, rng: random.Random) -> None:
    """Symmetric, real, involutive to 1e-9, trace 13, and F[(1,1),(1,1)] = 1/120."""
    require(rc == 0, f"exit {rc}")
    doc = json.loads(out)
    pairs = [(p["x"], p["rho"]) for p in doc["pairs"]]
    require(doc["group"] == "s5" and sorted(pairs) == sorted(S5_PAIRS), "pairs are not the 39 pairs of s5")
    n = len(pairs)
    entries = doc["entries"]
    require(len(entries) == n and all(len(row) == n for row in entries), "wrong matrix shape")
    canon = [[sorted((t["exp"], Fraction(t["num"], t["den"])) for t in e) for e in row] for row in entries]
    require(all(canon[i][j] == canon[j][i] for i in range(n) for j in range(i)), "matrix is not symmetric")
    f = np.array([[cyc_value(e) for e in row] for row in entries])
    require(np.abs(f - f.T).max() < 1e-9, "matrix is not symmetric in complex doubles")
    require(np.abs(f.imag).max() < 1e-9, "matrix is not real")
    require(abs(np.trace(f) - 13) < 1e-9, f"trace is {np.trace(f).real:.6f}, expected 13")
    require(np.abs(f @ f - np.eye(n)).max() < 1e-9, "matrix is not an involution")
    first = pairs.index(("1", "1"))
    require(canon[first][first] == [(0, Fraction(1, 120))], "F[(1,1),(1,1)] is not 1/120")


def identity_basis_s5() -> dict:
    """New-basis file whose every pair expands to itself."""
    return {
        "group": "s5",
        "expansions": [
            {"label": {"x": x, "rho": rho}, "terms": [{"x": x, "rho": rho, "coeff_num": 1, "coeff_den": 1}]}
            for x, rho in S5_PAIRS
        ],
    }
