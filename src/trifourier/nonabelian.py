"""Pairs (element, centralizer character) and the exact Fourier matrix on them.

For a finite group G, the basis M(G) consists of pairs (x, rho) with x a
conjugacy-class representative and rho an irreducible character of its
centralizer.  The Fourier matrix entry at ((x,sigma),(y,tau)) is

    1/(|Z(x)||Z(y)|) * sum over g in G with x.(g y g^-1) = (g y g^-1).x
        of sigma(g y g^-1) * conj(tau(g^-1 x g)),

computed exactly over the cyclotomic field, in Kronecker-packed integers
(see `packed`).  The group keeps one conjugation row g x g^-1 (g in G) per
class representative x; the centralizers and both conjugates of the sum are
read from those rows.  Each centralizer's elements are grouped by their
column of character values (for a valid table, its conjugacy classes), so
for each pair of classes one pass over G counts the pairs of columns of
(g y g^-1, g^-1 x g), and the block is one contraction of the two character
tables, column by column, with those counts.  For s5 the largest
centralizer, S5 itself, has 7 columns for 120 elements.  The conjugation
placement is pinned by reproducing the two explicit rows checked in the
tests; the matrix is symmetric and squares to the identity for every
supported group.

Supported groups: s3, s4 and s5, the groups the command line accepts.  The
new bases and the piece-triangular certificate live in `newbasis`, which only
the newbasis check loads; its names are attributes of this module too.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import packed
from .groups import (
    CharacterTable,
    PermGroup,
    _cyclic_table,
    _dihedral8_table,
    _klein_table,
    _sym_by_swap_table,
    _sym_table,
    from_cycles,
    identity_perm,
    pinv,
    symmetric_group,
)
from .packed import ZERO, Vec
from .report import Report

if TYPE_CHECKING:
    from .cyclotomic import Cyc

# names defined in `newbasis`, imported from there on first access (PEP 562)
_NEWBASIS = frozenset({
    "NewBasis", "s3_new_basis", "PIECES", "PIECE_SIGNS", "piece_partition",
    "_conjugated", "verify_triangular", "load_basis", "load_basis_file",
})


def __getattr__(name: str):
    if name not in _NEWBASIS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import newbasis

    value = getattr(newbasis, name)
    globals()[name] = value
    return value


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

    def validate_tables(self) -> dict[str, list[list[Vec]]]:
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
    # a cyclic table gives each character as the exponent k of its value z^k at the generator,
    # z = exp(2 pi i / 60): theta = z^20, theta2 = z^40, -theta = z^50, -theta2 = z^10 (also for
    # eps*theta and eps*theta2), i = z^15, -1 = z^30, -i = z^45 and zeta^m = z^(12 m)
    if name == "s3":
        g = symmetric_group(3)
        g2 = from_cycles(3, (0, 1))
        g3 = from_cycles(3, (0, 1, 2))
        classes = [
            ("1", identity_perm(3), _sym_table(3, g.elements)),
            ("g2", g2, _cyclic_table(g2, [("1", 0), ("eps", 30)])),
            ("g3", g3, _cyclic_table(g3, [("1", 0), ("theta", 20), ("theta2", 40)])),
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
            ("g3", g3, _cyclic_table(g3, [("1", 0), ("theta", 20), ("theta2", 40)])),
            ("g4", g4, _cyclic_table(g4, [("1", 0), ("i", 15), ("-1", 30), ("-i", 45)])),
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
        classes = [
            ("1", identity_perm(5), _sym_table(5, g.elements)),
            ("g2", g2, _sym_by_swap_table(g2, g.centralizer(g2))),
            ("g2'", g2p, _dihedral8_table(g2p, g.centralizer(g2p))),
            ("g3", g3, _cyclic_table(  # Z(g3) = <g6>, labelled as C3 on {0,1,2} times S2 on {3,4}
                g6,
                [("1", 0), ("theta", 20), ("theta2", 40), ("eps", 30), ("eps*theta", 50), ("eps*theta2", 10)],
            )),
            ("g6", g6, _cyclic_table(
                g6,
                [("1", 0), ("-1", 30), ("theta", 20), ("theta2", 40), ("-theta", 50), ("-theta2", 10)],
            )),
            ("g4", g4, _cyclic_table(g4, [("1", 0), ("i", 15), ("-1", 30), ("-i", 45)])),
            ("g5", g5, _cyclic_table(g5, [("1", 0), ("zeta", 12), ("zeta2", 24), ("zeta3", 36), ("zeta4", 48)])),
        ]
        return _assemble(name, g, classes)
    raise ValueError(f"unsupported group {name!r}")


class FTMatrix:
    """The symmetric involutive Fourier matrix over the cyclotomic field.

    Stored as F = (1/den) * num: num[i][j] holds the 16 power-basis
    coefficients of entry (i, j) (a `packed.Vec`), num is a list of n rows.
    `num` and `den` are the only source of truth: every check and the
    export read them, and print through `packed`.  `matrix` and `trace()`
    return `Cyc` values, for field arithmetic on the entries (the
    benchmark's multiplication probe reads `matrix`); only they load
    `cyclotomic`.  `matrix` is built on first use, so a change made to it is
    not seen by the checks.
    """

    def __init__(self, mdata: MData, num: list[list[Vec]], den: int) -> None:
        self.mdata = mdata
        self.num = num
        self.den = den

    @cached_property
    def matrix(self) -> list[list[Cyc]]:
        from .cyclotomic import Cyc

        return [[Cyc(v, self.den) for v in row] for row in self.num]

    @property
    def size(self) -> int:
        return len(self.num)

    def diagonal_sum(self) -> Vec:
        """Numerators of the trace, over den."""
        return tuple(map(sum, zip(*(row[i] for i, row in enumerate(self.num)))))

    def trace(self) -> Cyc:
        from .cyclotomic import Cyc

        return Cyc(self.diagonal_sum(), self.den)

    def is_symmetric(self) -> bool:
        return all(self.num[i][j] == self.num[j][i] for i in range(self.size) for j in range(i))

    def is_involution(self) -> bool:
        """F^2 = I, checked as num . num = den^2 I.

        When F = F^T, F^2 is symmetric too, and only its entries on and above
        the diagonal are computed: the first of each such row is the diagonal.
        """
        unit = (self.den**2,) + ZERO[1:]
        if self.is_symmetric():
            upper = packed.square_upper(self.num)
            return all(v == (ZERO if j else unit) for row in upper for j, v in enumerate(row))
        square = packed.matmul(self.num, self.num)
        return all(v == (unit if i == j else ZERO) for i, row in enumerate(square) for j, v in enumerate(row))

    def to_json(self) -> dict:
        # each distinct entry is rendered once: s5 has 28 values among its 1,521 entries
        table = {v: packed.json_terms(v, self.den) for v in {v for row in self.num for v in row}}
        return {
            "group": self.mdata.name,
            "pairs": [{"x": p.x, "rho": p.rho} for p in self.mdata.pairs],
            "entries": [[table[v] for v in row] for row in self.num],
        }


def _pair_counts(md: MData) -> dict[tuple[str, str], dict[tuple[int, int], int]]:
    """For classes x, y: the non-zero c[a, b] = #{g in G : u = g y g^-1 commutes with x, v = g^-1 x g},
    with a the column of u in the table of Z(x) and b the column of v in the table of Z(y).

    g y g^-1 is read from the conjugation row of y, and g^-1 x g from that
    of x at the index of g^-1: one conjugation per element and class.
    """
    elements = md.group.elements
    at = {g: k for k, g in enumerate(elements)}
    inverse = [at[pinv(g)] for g in elements]
    column = {lab: dict(zip(md.tables[lab].group_elements, md.tables[lab].column)) for lab in md.class_labels}
    forward = {lab: md.group.conjugates(md.reps[lab]) for lab in md.class_labels}
    counts = {}
    for xl in md.class_labels:
        in_zx = column[xl]
        row = forward[xl]
        backward = [row[k] for k in inverse]
        for yl in md.class_labels:
            in_zy = column[yl]
            c: dict[tuple[int, int], int] = {}
            for u, v in zip(forward[yl], backward):
                a = in_zx.get(u)
                if a is not None:
                    key = a, in_zy[v]
                    c[key] = c.get(key, 0) + 1
            counts[xl, yl] = c
    return counts


@lru_cache(maxsize=None)
def nonabelian_ft(name: str) -> FTMatrix:
    """The Fourier matrix of s3, s4 or s5."""
    return _fourier_matrix(mdata(name))


def _fourier_matrix(md: MData) -> FTMatrix:
    """F[(x,s),(y,t)] = sum_{a,b} s(a) c[a,b] conj(t(b)) / (|Z(x)||Z(y)|), one contraction per block.

    a and b run over the columns of the two centralizer tables (`_pair_counts`):
    every character is constant on a column, so this only collects equal
    terms of the sum over G.  Per block, S[s][b] = sum_a s(a) c[a,b] is summed
    in packed form and F[s][t] = sum_b S[s][b] conj(t(b)) is one packed dot
    product per entry.  Every unreduced coefficient of F[s][t] is a sum of at
    most 16 sum(c) products of a character coefficient and a conjugate one,
    which bounds the packing width for every block.  Equal packed sums over
    equal block denominators are the same entry, so unpacking, the
    lowest-terms gcd and the rescaling run once per distinct value.
    """
    chars = md.validate_tables()
    counts = _pair_counts(md)
    conj_chars = {lab: packed.conj(x) for lab, x in chars.items()}
    pk = packed.for_product(
        max(sum(c.values()) for c in counts.values()),
        max(packed.max_abs(x) for x in chars.values()),
        max(packed.max_abs(y) for y in conj_chars.values()),
    )
    xp = {lab: pk.pack_rows(x) for lab, x in chars.items()}
    yp = {lab: pk.pack_rows(y) for lab, y in conj_chars.items()}
    offset = {lab: md.index[MPair(lab, md.tables[lab].labels[0])] for lab in md.class_labels}
    blocks = []
    for (xl, yl), c in counts.items():
        s = [[0] * len(md.tables[yl].weights) for _ in xp[xl]]
        for (a, b), k in c.items():
            for srow, xrow in zip(s, xp[xl]):
                srow[b] += k * xrow[a]
        block = [[sum(map(mul, srow, yrow)) for yrow in yp[yl]] for srow in s]
        d = md.tables[xl].order * md.tables[yl].order
        blocks.append((offset[xl], offset[yl], block, d))
    distinct = {(p, d) for *_, block, d in blocks for row in block for p in row}
    values = {(p, d): pk.unpack(p) for p, d in distinct}
    den = lcm(*(d for *_, d in blocks))
    # lowest terms: g divides den and every numerator scaled to den
    g = gcd(den, *(den // d * a for (_, d), v in values.items() for a in v))
    scaled = {(p, d): tuple(den // d * a // g for a in v) for (p, d), v in values.items()}
    n = len(md.pairs)
    num = [[ZERO] * n for _ in range(n)]
    for i, j, block, d in blocks:
        for k, row in enumerate(block):
            num[i + k][j:j + len(row)] = [scaled[p, d] for p in row]
    return FTMatrix(md, num, den // g)


def hyperplane_check(ft: FTMatrix) -> Report:
    """The signed order-five functional is preserved up to an exact scalar.

    The hyperplane is cut out by a(g5,zeta) + a(g5,zeta4) - a(g5,zeta2)
    - a(g5,zeta3) = 0; its stability under the matrix is equivalent to the
    functional composing to a scalar multiple of itself.  phi . F is the
    signed sum of the four rows of F that phi reads.
    """
    md = ft.mdata
    rep = Report("hyperplane s5")
    phi = [0] * ft.size
    for rho, sign in (("zeta", 1), ("zeta4", 1), ("zeta2", -1), ("zeta3", -1)):
        phi[md.index[MPair("g5", rho)]] = sign
    signed = [[v if sign > 0 else tuple(-a for a in v) for v in ft.num[k]] for k, sign in enumerate(phi) if sign]
    composed = [tuple(map(sum, zip(*column))) for column in zip(*signed)]  # numerators of phi . F, over ft.den
    lam = composed[md.index[MPair("g5", "zeta")]]  # phi has coefficient 1 there
    residual = [j for j, (v, p) in enumerate(zip(composed, phi)) if v != tuple(p * a for a in lam)]
    rep.require(
        "functional is an eigenvector",
        not residual,
        f"residual at {[str(md.pairs[j]) for j in residual][:3]}",
    )
    unit = not any(lam[1:]) and abs(lam[0]) == ft.den
    rep.require("scalar is +-1", unit, "" if unit else packed.cyc_text(lam, ft.den))
    rep.add("scalar", True, packed.scalar_text(lam, ft.den))
    return rep
