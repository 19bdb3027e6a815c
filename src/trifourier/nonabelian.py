"""Pairs (element, centralizer character) and the exact Fourier matrix on them.

For a finite group G, the basis M(G) consists of pairs (x, rho) with x a
conjugacy-class representative and rho an irreducible character of its
centralizer.  The Fourier matrix entry at ((x,sigma),(y,tau)) is

    1/(|Z(x)||Z(y)|) * sum over g in G with x.(g y g^-1) = (g y g^-1).x
        of sigma(g y g^-1) * conj(tau(g^-1 x g)),

computed exactly over the cyclotomic field, in Kronecker-packed integers
(see `packed`): for each pair of classes one pass over G counts the pairs
(g y g^-1, g^-1 x g), and the block is one contraction of the two character
tables with those counts.  The conjugation placement is
pinned by reproducing the two explicit rows checked in the tests; the
matrix is symmetric and squares to the identity for every supported group.

Supported groups: s3, s4 and s5, the groups the command line accepts.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from . import packed
from .cyclotomic import Cyc
from .groups import (
    CharacterTable,
    PermGroup,
    _cyclic_table,
    _dihedral8_table,
    _klein_table,
    _split_product_table,
    _sym_table,
    from_cycles,
    identity_perm,
    pconj,
    pinv,
    symmetric_group,
)
from .packed import ZERO, Vec
from .report import Report


class MPair(NamedTuple):
    x: str
    rho: str

    def __str__(self) -> str:
        return f"({self.x},{self.rho})"


class MData:
    """Everything needed to build the Fourier matrix of one group."""

    def __init__(
        self,
        name: str,
        group: PermGroup,
        class_labels: tuple[str, ...],
        reps: dict[str, tuple[int, ...]],
        tables: dict[str, CharacterTable],
        pairs: list[MPair],
        index: dict[MPair, int],
    ) -> None:
        self.name = name
        self.group = group
        self.class_labels = class_labels
        self.reps = reps
        self.tables = tables
        self.pairs = pairs
        self.index = index

    def validate_tables(self) -> dict[str, tuple[list[list[Vec]], int]]:
        """Check every table; returns each table's `coefficients()`, by class label."""
        return {lab: self.tables[lab].validate() for lab in self.class_labels}


def _assemble(name: str, group: PermGroup, classes: list[tuple[str, tuple[int, ...], CharacterTable]]) -> MData:
    labels = tuple(lab for lab, _, _ in classes)
    reps = {lab: rep for lab, rep, _ in classes}
    tables = {lab: table for lab, _, table in classes}
    pairs = [MPair(lab, rho) for lab, _, table in classes for rho in table.labels]
    index = {p: i for i, p in enumerate(pairs)}
    for lab, rep, table in classes:
        cent = group.centralizer(rep)
        if set(cent) != set(table.group_elements):
            raise AssertionError(f"character table of {lab} does not cover its centralizer")
    return MData(name, group, labels, reps, tables, pairs, index)


@lru_cache(maxsize=None)
def mdata(name: str) -> MData:
    """The pairs, class representatives and centralizer tables of s3, s4 or s5.

    Any other name raises ValueError before anything is built.
    """
    theta = Cyc.theta()
    imag = Cyc.imag_unit()
    zeta = Cyc.zeta5()
    one = Cyc.one()
    minus = Cyc.from_rational(-1)
    if name == "s3":
        g = symmetric_group(3)
        g2 = from_cycles(3, (0, 1))
        g3 = from_cycles(3, (0, 1, 2))
        classes = [
            ("1", identity_perm(3), _sym_table(3, g.elements)),
            ("g2", g2, _cyclic_table(g2, [("1", one), ("eps", minus)])),
            ("g3", g3, _cyclic_table(g3, [("1", one), ("theta", theta), ("theta2", theta * theta)])),
        ]
        return _assemble(name, g, classes)
    if name == "s4":
        g = symmetric_group(4)
        g2 = from_cycles(4, (0, 1))
        g2p = from_cycles(4, (0, 1), (2, 3))
        g3 = from_cycles(4, (0, 1, 2))
        g4 = from_cycles(4, (0, 1, 2, 3))
        classes = [
            ("1", identity_perm(4), _sym_table(4, g.elements)),
            ("g2", g2, _klein_table(g2, g.centralizer(g2))),
            ("g2'", g2p, _dihedral8_table(g2p, g.centralizer(g2p))),
            ("g3", g3, _cyclic_table(g3, [("1", one), ("theta", theta), ("theta2", theta * theta)])),
            ("g4", g4, _cyclic_table(g4, [("1", one), ("i", imag), ("-1", minus), ("-i", -imag)])),
        ]
        return _assemble(name, g, classes)
    if name == "s5":
        g = symmetric_group(5)
        g2 = from_cycles(5, (3, 4))
        g2p = from_cycles(5, (1, 2), (3, 4))
        g3 = from_cycles(5, (0, 1, 2))
        g6 = from_cycles(5, (0, 1, 2), (3, 4))
        g4 = from_cycles(5, (1, 2, 3, 4))
        g5 = from_cycles(5, (0, 1, 2, 3, 4))
        th2 = theta * theta
        cyc3 = from_cycles(3, (0, 1, 2))
        g2_table = _split_product_table(
            g.centralizer(g2),
            (0, 1, 2),
            (3, 4),
            lambda elems: _sym_table(3, elems),
            [
                ("1", "1", "1"),
                ("-1", "1", "eps"),
                ("r", "r", "1"),
                ("-r", "r", "eps"),
                ("eps", "eps", "1"),
                ("-eps", "eps", "eps"),
            ],
        )
        g3_table = _split_product_table(
            g.centralizer(g3),
            (0, 1, 2),
            (3, 4),
            lambda elems: _cyclic_table(cyc3, [("1", one), ("theta", theta), ("theta2", th2)]),
            [
                ("1", "1", "1"),
                ("theta", "theta", "1"),
                ("theta2", "theta2", "1"),
                ("eps", "1", "eps"),
                ("eps*theta", "theta", "eps"),
                ("eps*theta2", "theta2", "eps"),
            ],
        )
        classes = [
            ("1", identity_perm(5), _sym_table(5, g.elements)),
            ("g2", g2, g2_table),
            ("g2'", g2p, _dihedral8_table(g2p, g.centralizer(g2p))),
            ("g3", g3, g3_table),
            ("g6", g6, _cyclic_table(
                g6,
                [("1", one), ("-1", minus), ("theta", theta), ("theta2", th2),
                 ("-theta", -theta), ("-theta2", -th2)],
            )),
            ("g4", g4, _cyclic_table(g4, [("1", one), ("i", imag), ("-1", minus), ("-i", -imag)])),
            ("g5", g5, _cyclic_table(
                g5,
                [("1", one), ("zeta", zeta), ("zeta2", zeta**2), ("zeta3", zeta**3), ("zeta4", zeta**4)],
            )),
        ]
        return _assemble(name, g, classes)
    raise ValueError(f"unsupported group {name!r}")


def enumerate_m(name: str) -> list[MPair]:
    """The canonical ordered list of pairs (class label, character label)."""
    return list(mdata(name).pairs)


class FTMatrix:
    """The symmetric involutive Fourier matrix over the cyclotomic field.

    Stored as F = (1/den) * num: num[i][j] holds the 16 power-basis
    coefficients of entry (i, j) (a `packed.Vec`), num is a list of n rows.
    `num` and `den` are the only source of truth: every check and the
    export read them.  `matrix` is a view of the same entries as `Cyc`
    values, built on first use (the benchmark's multiplication probe reads
    it), so a change made to `matrix` is not seen by the checks.
    """

    def __init__(self, mdata: MData, num: list[list[Vec]], den: int) -> None:
        self.mdata = mdata
        self.num = num
        self.den = den

    @cached_property
    def matrix(self) -> list[list[Cyc]]:
        return packed.to_cyc_rows(self.num, self.den)

    @property
    def size(self) -> int:
        return len(self.num)

    def trace(self) -> Cyc:
        return Cyc(tuple(map(sum, zip(*(row[i] for i, row in enumerate(self.num))))), self.den)

    def is_symmetric(self) -> bool:
        return all(self.num[i][j] == self.num[j][i] for i in range(self.size) for j in range(i))

    def is_involution(self) -> bool:
        """F^2 = I, checked as num . num = den^2 I."""
        unit = (self.den**2,) + ZERO[1:]
        square = packed.matmul(self.num, self.num)
        return all(v == (unit if i == j else ZERO) for i, row in enumerate(square) for j, v in enumerate(row))

    def to_json(self) -> dict:
        # each distinct entry is rendered once: s5 has 28 values among its 1,521 entries
        table = {v: Cyc(v, self.den).to_json() for v in {v for row in self.num for v in row}}
        return {
            "group": self.mdata.name,
            "pairs": [{"x": p.x, "rho": p.rho} for p in self.mdata.pairs],
            "entries": [[table[v] for v in row] for row in self.num],
        }


def _pair_counts(md: MData) -> dict[tuple[str, str], dict[tuple[int, int], int]]:
    """For classes x, y: the non-zero c[u, v] = #{g in G : u = g y g^-1 commutes with x, v = g^-1 x g}.

    u indexes the centralizer of x and v that of y, in table element order.
    """
    position = {lab: {e: k for k, e in enumerate(md.tables[lab].group_elements)} for lab in md.class_labels}
    inverses = [pinv(g) for g in md.group.elements]
    # g y g^-1 and g^-1 x g for every element g and class representative
    forward = {lab: [pconj(g, md.reps[lab]) for g in md.group.elements] for lab in md.class_labels}
    backward = {lab: [pconj(gi, md.reps[lab]) for gi in inverses] for lab in md.class_labels}
    counts = {}
    for xl in md.class_labels:
        in_zx = position[xl]
        for yl in md.class_labels:
            in_zy = position[yl]
            c: dict[tuple[int, int], int] = {}
            for u, v in zip(forward[yl], backward[xl]):
                if u in in_zx:
                    key = in_zx[u], in_zy[v]
                    c[key] = c.get(key, 0) + 1
            counts[xl, yl] = c
    return counts


@lru_cache(maxsize=None)
def nonabelian_ft(name: str) -> FTMatrix:
    """The Fourier matrix of s3, s4 or s5."""
    return _fourier_matrix(mdata(name))


def _fourier_matrix(md: MData) -> FTMatrix:
    """F[(x,s),(y,t)] = sum_{u,v} s(u) c[u,v] conj(t(v)) / (|Z(x)||Z(y)|), one contraction per block.

    Per block, S[s][v] = sum_u s(u) c[u,v] is summed in packed form and
    F[s][t] = sum_v S[s][v] conj(t(v)) is one packed dot product per entry.
    Every unreduced coefficient of F[s][t] is a sum of at most 16 sum(c)
    products of a character coefficient and a conjugate one, which bounds
    the packing width for every block.
    """
    chars = md.validate_tables()
    counts = _pair_counts(md)
    conj_chars = {lab: packed.conj(x) for lab, (x, _) in chars.items()}
    pk = packed.for_product(
        max(sum(c.values()) for c in counts.values()),
        max(packed.max_abs(x) for x, _ in chars.values()),
        max(packed.max_abs(y) for y in conj_chars.values()),
    )
    xp = {lab: pk.pack_rows(x) for lab, (x, _) in chars.items()}
    yp = {lab: pk.pack_rows(y) for lab, y in conj_chars.items()}
    offset = {lab: md.index[MPair(lab, md.tables[lab].labels[0])] for lab in md.class_labels}
    blocks = []
    for (xl, yl), c in counts.items():
        s = [[0] * md.tables[yl].order for _ in xp[xl]]
        for (u, v), k in c.items():
            for srow, xrow in zip(s, xp[xl]):
                srow[v] += k * xrow[u]
        block = [[pk.unpack(sum(map(mul, srow, yrow))) for yrow in yp[yl]] for srow in s]
        d = md.tables[xl].order * md.tables[yl].order * chars[xl][1] * chars[yl][1]
        blocks.append((offset[xl], offset[yl], block, d))
    den = lcm(*(d for *_, d in blocks))
    # lowest terms: g divides den and every numerator scaled to den
    g = gcd(den, *(den // d * gcd(*(a for row in block for v in row for a in v)) for *_, block, d in blocks))
    n = len(md.pairs)
    num = [[ZERO] * n for _ in range(n)]
    for i, j, block, d in blocks:
        f = den // d
        for k, row in enumerate(block):
            num[i + k][j:j + len(row)] = [tuple(f * a // g for a in v) for v in row]
    return FTMatrix(md, num, den // g)


# -- new bases and pieces -----------------------------------------------------


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
    md = mdata("s3")
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
    md = mdata(name)
    pieces = [[MPair(x, rho) for x, rho in piece] for piece in PIECES[name]]
    flat = [p for piece in pieces for p in piece]
    if sorted(flat) != sorted(md.pairs) or len(flat) != len(md.pairs):
        raise AssertionError(f"piece data for {name} does not partition the pairs")
    return pieces


def _conjugated(ft: FTMatrix, u: list[list[int]], det: int, adj: list[list[int]]) -> tuple[list[list[Vec]], int]:
    """Numerators and denominator of U^-1 F U, with U^-1 = adj/det = V/d in lowest terms (d > 0).

    V and U are integer matrices, so every entry of V F U is an integer
    combination of the entries of F, and packing commutes with that: F is
    packed once and V F U is unpacked once.  Power s of entry (i, j) is
    sum_k sum_l V[i][k] F[k][l]_s U[l][j], at most max|F| times the largest
    absolute row sum of V times the largest absolute column sum of U, which
    sets the packing width; there is no product of two polynomials.
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
    vfu = [[pk.unpack(sum(fu[k][j] * a for k, a in row)) for j in cols] for row in v_rows]
    return vfu, ft.den * (det // g)


def verify_triangular(ft: FTMatrix, basis: NewBasis, pieces: list[list[MPair]],
                      expected_signs: list[int] | None = None) -> Report:
    """Certify the piece-triangular shape and the per-piece diagonal signs.

    The image of each new-basis element must be +-itself plus a combination
    of elements in strictly later pieces; the first violating entry is
    reported.  When expected per-piece signs are given they are compared
    against the observed diagonal.
    """
    from .bareiss import adjugate

    md = ft.mdata
    rep = Report(f"triangular {md.name}" + (f" variant={basis.variant}" if basis.variant else ""))
    n = ft.size
    rep.require("basis size", basis.size == n, f"{basis.size} != {n}")
    if basis.size != n:
        return rep
    det, adj = adjugate(basis.matrix)
    rep.require("unimodular", det in (1, -1), f"det = {det}")
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
        violation = (md.pairs[i], md.pairs[j], Cyc(fh[i][j], fden))
    rep.require(
        "triangular",
        violation is None,
        "" if violation is None else
        f"image of hat{violation[1]} has coefficient {violation[2]!r} on hat{violation[0]} "
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
    if expected_signs is not None:
        rep.require("signs match", observed == list(expected_signs), f"{observed} != {expected_signs}")
    return rep


def hyperplane_check(ft: FTMatrix) -> Report:
    """The signed order-five functional is preserved up to an exact scalar.

    The hyperplane is cut out by a(g5,zeta) + a(g5,zeta4) - a(g5,zeta2)
    - a(g5,zeta3) = 0; its stability under the matrix is equivalent to the
    functional composing to a scalar multiple of itself.
    """
    md = ft.mdata
    rep = Report("hyperplane s5")
    phi = [0] * ft.size
    for rho, sign in (("zeta", 1), ("zeta4", 1), ("zeta2", -1), ("zeta3", -1)):
        phi[md.index[MPair("g5", rho)]] = sign
    composed = packed.matmul(packed.rational([phi]), ft.num)[0]  # numerators of phi . F, over ft.den
    lam = composed[md.index[MPair("g5", "zeta")]]  # phi has coefficient 1 there
    residual = [j for j, (v, p) in enumerate(zip(composed, phi)) if v != tuple(p * a for a in lam)]
    rep.require(
        "functional is an eigenvector",
        not residual,
        f"residual at {[str(md.pairs[j]) for j in residual][:3]}",
    )
    lam = Cyc(lam, ft.den)
    rep.require("scalar is +-1", lam.is_rational() and lam.to_rational() in (1, -1), f"{lam!r}")
    rep.add("scalar", True, str(lam.to_rational()) if lam.is_rational() else repr(lam))
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
    from fractions import Fraction

    name = _field(data, "group", "basis file")
    if not isinstance(name, str):
        raise ValueError(f"basis file field 'group' must be a string, not {type(name).__name__}")
    variant = data.get("variant", "")
    if not isinstance(variant, str):
        raise ValueError(f"basis file field 'variant' must be a string, not {type(variant).__name__}")
    md = mdata(name)
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
            coeff = Fraction(num, den)
            if coeff.denominator != 1:
                raise ValueError(f"non-integer coefficient {coeff} in expansion of {lab}")
            mat[md.index[q]][j] = int(coeff)
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
