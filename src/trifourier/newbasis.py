"""New bases of the pair space and the piece-triangular certificate.

A candidate basis expands each new element over the pairs (x, rho) of
`nonabelian.mdata` with integer coefficients.  `verify_triangular` checks
that U^-1 F U is triangular by the group's ordered `PIECES`, with the
diagonal signs `PIECE_SIGNS`.  The two s3 bases are built in; a basis of s4
or s5 is read from a JSON file by `load_basis_file`.

Only the newbasis check runs this code, so the other checks never compile
it; the names stay reachable as attributes of `trifourier.nonabelian`.  The
group data is read as `nonabelian.mdata`, so a wrapper set on that attribute
(the benchmark's traced pass) sees every build.
"""

from __future__ import annotations

from math import gcd

from . import nonabelian, packed
from .nonabelian import FTMatrix, MPair
from .packed import Vec
from .report import Report, fraction_string, integer_string


class NewBasis:
    """An integer expansion of a candidate basis indexed like the pairs.

    column j of `matrix` expands the j-th new-basis element over the pairs.
    """

    def __init__(self, group: str, variant: str, matrix: list[list[int]]) -> None:
        self.group = group
        self.variant = variant
        self.matrix = matrix

    @property
    def size(self) -> int:
        return len(self.matrix)


_S3_EXPANSIONS_COMMON: dict[tuple[str, str], list[tuple[str, str, int]]] = {
    ("1", "1"): [("1", "1", 1)],
    ("1", "r"): [("1", "1", 1), ("1", "r", 1)],
    ("1", "eps"): [("1", "1", 1), ("1", "r", 2), ("1", "eps", 1)],
    ("g2", "1"): [("1", "1", 1), ("1", "r", 1), ("g2", "1", 1)],
    ("g2", "eps"): [("1", "1", 1), ("1", "r", 1), ("g2", "eps", 1)],
    ("g3", "1"): [("1", "1", 1), ("g2", "1", 1), ("g3", "1", 1)],
}


def s3_new_basis(variant: str) -> NewBasis:
    """The two embedded eight-element bases; they differ in which involution
    character accompanies the order-three pairs ("g2" variant uses (g2,1),
    "e" uses (g2,eps))."""
    variant = variant.lower()
    if variant not in ("g2", "e"):
        raise ValueError("variant must be 'g2' or 'e'")
    companion = "1" if variant == "g2" else "eps"
    expansions = dict(_S3_EXPANSIONS_COMMON)
    for rho in ("theta", "theta2"):
        expansions[("g3", rho)] = [("1", "1", 1), ("g2", companion, 1), ("g3", rho, 1)]
    md = nonabelian.mdata("s3")
    n = len(md.pairs)
    mat = [[0] * n for _ in range(n)]
    for (x, rho), terms in expansions.items():
        j = md.index[MPair(x, rho)]
        for tx, trho, coeff in terms:
            mat[md.index[MPair(tx, trho)]][j] = coeff
    return NewBasis("s3", variant, mat)


PIECES: dict[str, list[list[tuple[str, str]]]] = {
    "s3": [
        [("1", "1")],
        [("1", "r")],
        [("1", "eps"), ("g2", "1"), ("g2", "eps"), ("g3", "1"), ("g3", "theta"), ("g3", "theta2")],
    ],
    "s4": [
        [("1", "1")],
        [("1", "lambda1")],
        [("1", "sigma")],
        [("1", "lambda2"), ("g2", "1"), ("g2'", "1"), ("g2", "eps''"), ("g2", "eps'")],
        [
            ("g3", "1"), ("g4", "1"), ("g2'", "eps''"), ("g2'", "eps'"), ("g2'", "r"),
            ("g4", "-1"), ("1", "lambda3"), ("g2", "eps"), ("g2'", "eps"),
            ("g3", "theta"), ("g3", "theta2"), ("g4", "i"), ("g4", "-i"),
        ],
    ],
    "s5": [
        [("g5", "zeta")],
        [("1", "1")],
        [("1", "lambda1")],
        [("1", "nu")],
        [("1", "nu'")],
        [("1", "lambda2"), ("g2", "1"), ("g2", "-1")],
        [
            ("1", "lambda3"), ("g2", "r"), ("g3", "1"), ("g2'", "1"),
            ("g2", "-r"), ("g2'", "r"), ("g3", "theta"), ("g3", "theta2"),
        ],
        [
            ("g2'", "eps''"), ("g6", "1"), ("g2", "eps"), ("g3", "eps"), ("g4", "1"),
            ("g5", "1"), ("g2'", "eps'"), ("g4", "-1"), ("g6", "-1"), ("g6", "theta"),
            ("g6", "theta2"), ("1", "lambda4"), ("g2", "-eps"), ("g3", "eps*theta"),
            ("g3", "eps*theta2"), ("g2'", "eps"), ("g6", "-theta"), ("g6", "-theta2"),
            ("g4", "i"), ("g4", "-i"), ("g5", "zeta2"), ("g5", "zeta3"), ("g5", "zeta4"),
        ],
    ],
}

PIECE_SIGNS: dict[str, list[int]] = {
    "s3": [-1, -1, 1],
    "s4": [1, -1, 1, -1, 1],
    "s5": [-1, -1, 1, 1, 1, -1, -1, 1],
}


def piece_partition(name: str) -> list[list[MPair]]:
    """The ordered partition of the pairs; the same for every basis variant."""
    if name not in PIECES:
        raise ValueError(f"no piece data for group {name!r}")
    md = nonabelian.mdata(name)
    pieces = [[MPair(x, rho) for x, rho in piece] for piece in PIECES[name]]
    flat = [p for piece in pieces for p in piece]
    if sorted(flat) != sorted(md.pairs) or len(flat) != len(md.pairs):
        raise AssertionError(f"piece data for {name} does not partition the pairs")
    return pieces


def _conjugated(ft: FTMatrix, u: list[list[int]], det: int, adj: list[list[int]]) -> tuple[list[list[Vec]], int]:
    """Numerators and denominator of U^-1 F U, with U^-1 = adj/det = V/d in lowest terms (d > 0).

    V and U are integer matrices, so every entry of V F U is an integer
    combination of the entries of F, and packing commutes with that: F is
    packed once and each distinct value of V F U is unpacked once.  Power s
    of entry (i, j) is sum_k sum_l V[i][k] F[k][l]_s U[l][j], at most max|F|
    times the largest absolute row sum of V times the largest absolute column
    sum of U, which sets the packing width; there is no product of two
    polynomials.
    """
    g = gcd(det, *(a for row in adj for a in row)) * (1 if det > 0 else -1)
    v = [[a // g for a in row] for row in adj]
    u_cols = [[(l, a) for l, a in enumerate(col) if a] for col in zip(*u)]
    v_rows = [[(k, a) for k, a in enumerate(row) if a] for row in v]
    pk = packed.Packing(
        packed.max_abs(ft.num)
        * max((sum(abs(a) for _, a in row) for row in v_rows), default=0)
        * max((sum(abs(a) for _, a in col) for col in u_cols), default=0)
    )
    fu = [[sum(row[l] * a for l, a in col) for col in u_cols] for row in pk.pack_rows(ft.num)]
    cols = range(len(u_cols))
    vfu = [[sum(fu[k][j] * a for k, a in row) for j in cols] for row in v_rows]
    return pk.unpack_rows(vfu), ft.den * (det // g)


def verify_triangular(ft: FTMatrix, basis: NewBasis) -> Report:
    """Certify the piece-triangular shape and the per-piece diagonal signs.

    The image of each new-basis element must be +-itself plus a combination
    of elements in strictly later pieces of the group's `piece_partition`;
    the first violating entry is reported.  The observed diagonal signs are
    compared against the group's `PIECE_SIGNS`.
    """
    from .bareiss import adjugate

    md = ft.mdata
    pieces, expected_signs = piece_partition(md.name), PIECE_SIGNS[md.name]
    rep = Report(f"triangular {md.name}" + (f" variant={basis.variant}" if basis.variant else ""))
    n = ft.size
    rep.require("basis size", basis.size == n, f"{basis.size} != {n}")
    if basis.size != n:
        return rep
    det, adj = adjugate(basis.matrix)
    rep.require("unimodular", det in (1, -1), f"det = {integer_string(det)}")
    if det == 0:
        return rep
    piece_of = {}
    for k, piece in enumerate(pieces):
        for p in piece:
            piece_of[md.index[p]] = k
    rep.require("pieces cover basis", len(piece_of) == n, f"{len(piece_of)} != {n}")
    if len(piece_of) != n:
        return rep
    fh, fden = _conjugated(ft, basis.matrix, det, adj)
    # entry (i, j) must vanish when i != j and piece(i) <= piece(j); scan column by column
    bad = next(((i, j) for j in range(n) for i in range(n)
                if i != j and piece_of[i] <= piece_of[j] and any(fh[i][j])), None)
    violation = None
    if bad:
        i, j = bad
        violation = (md.pairs[i], md.pairs[j], packed.cyc_text(fh[i][j], fden))
    rep.require(
        "triangular",
        violation is None,
        "" if violation is None else
        f"image of hat{violation[1]} has coefficient {violation[2]} on hat{violation[0]} "
        f"(piece {piece_of[md.index[violation[0]]] + 1} <= {piece_of[md.index[violation[1]]] + 1})",
    )
    diag = [fh[i][i] for i in range(n)]
    diag_bad = [md.pairs[i] for i in range(n) if any(diag[i][1:]) or abs(diag[i][0]) != fden]
    rep.require("diagonal is +-1", not diag_bad, f"first: {diag_bad[:1]}")
    if diag_bad:
        return rep
    observed: list[int] = []
    for k, piece in enumerate(pieces):
        signs = {1 if diag[md.index[p]][0] > 0 else -1 for p in piece}
        rep.require(f"piece {k + 1} sign constant", len(signs) == 1, f"signs {signs}")
        observed.append(signs.pop() if len(signs) == 1 else 0)
    rep.add("observed signs", True, ",".join(str(s) for s in observed))
    rep.require("signs match", observed == expected_signs, f"{observed} != {expected_signs}")
    return rep


# -- basis files ---------------------------------------------------------------


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    return obj[key]


def _list_field(obj, key: str, where: str) -> list:
    value = _field(obj, key, where)
    if not isinstance(value, list):
        raise ValueError(f"{where} field {key!r} must be a list, not {type(value).__name__}")
    return value


def _pair_field(obj, where: str) -> MPair:
    x, rho = _field(obj, "x", where), _field(obj, "rho", where)
    if not (isinstance(x, str) and isinstance(rho, str)):
        raise ValueError(f"{where} labels must be strings")
    return MPair(x, rho)


def load_basis(data: dict) -> NewBasis:
    """Parse a basis file; entries must be integers and labels must be exact.

    Every malformed input raises ValueError with a message naming the bad field.
    """
    name = _field(data, "group", "basis file")
    if not isinstance(name, str):
        raise ValueError(f"basis file field 'group' must be a string, not {type(name).__name__}")
    variant = data.get("variant", "")
    if not isinstance(variant, str):
        raise ValueError(f"basis file field 'variant' must be a string, not {type(variant).__name__}")
    md = nonabelian.mdata(name)
    n = len(md.pairs)
    mat = [[0] * n for _ in range(n)]
    seen = set()
    for k, exp in enumerate(_list_field(data, "expansions", "basis file")):
        lab = _pair_field(_field(exp, "label", f"expansion {k}"), f"label of expansion {k}")
        if lab not in md.index:
            raise ValueError(f"unknown pair {lab}")
        if lab in seen:
            raise ValueError(f"duplicate expansion for {lab}")
        seen.add(lab)
        j = md.index[lab]
        for t, term in enumerate(_list_field(exp, "terms", f"expansion of {lab}")):
            where = f"term {t} in expansion of {lab}"
            q = _pair_field(term, where)
            if q not in md.index:
                raise ValueError(f"unknown pair {q} in expansion of {lab}")
            num, den = _field(term, "coeff_num", where), term.get("coeff_den", 1)
            if not (type(num) is int and type(den) is int and den):
                raise ValueError(f"{where}: coeff_num and coeff_den must be integers, coeff_den non-zero")
            if den < 0:
                num, den = -num, -den
            if num % den:
                raise ValueError(f"non-integer coefficient {fraction_string(num, den)} in expansion of {lab}")
            mat[md.index[q]][j] = num // den
    if len(seen) != n:
        missing = [p for p in md.pairs if p not in seen]
        raise ValueError(f"missing expansions for {missing[:3]} (and {max(len(missing) - 3, 0)} more)")
    return NewBasis(name, variant, mat)


def load_basis_file(path: str) -> NewBasis:
    """Read and parse a basis file; OSError if it cannot be read, ValueError if it is malformed."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    return load_basis(doc)
