"""Pairs (element, centralizer character) and the exact Fourier matrix on them.

For a finite group G, the basis M(G) consists of pairs (x, rho) with x a
conjugacy-class representative and rho an irreducible character of its
centralizer.  The Fourier matrix entry at ((x,sigma),(y,tau)) is

    1/(|Z(x)||Z(y)|) * sum over g in G with x.(g y g^-1) = (g y g^-1).x
        of sigma(g y g^-1) * conj(tau(g^-1 x g)),

computed exactly over the cyclotomic field, in Kronecker-packed integers
(see `packed`).  The group keeps one conjugation row g x g^-1 (g in G) per
class representative x; the centralizers and both conjugates of the sum are
read from those rows.  Each character table maps the elements of its
centralizer to their conjugacy classes.  The g with g y g^-1 = u form a coset
of Z(y), on which the Z(y)-class of g^-1 x g is constant, so one step per
element u of Z(x) counts the pairs of centralizer classes of
(g y g^-1, g^-1 x g) for every class y at once, and each block is one
contraction of the two character tables, class by class, with those counts.
For s5 the largest centralizer, S5 itself, has 7 classes for 120 elements.
The conjugation placement is pinned by reproducing the two explicit rows
checked in the tests; the matrix is symmetric and squares to the identity
for every supported group.

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


def _assemble(name: str, group: PermGroup, classes: list[tuple[str, tuple[int, ...], CharacterTable]]) -> MData:
    labels = tuple(lab for lab, _, _ in classes)
    reps = {lab: rep for lab, rep, _ in classes}
    tables = {lab: table for lab, _, table in classes}
    pairs = [MPair(lab, rho) for lab, _, table in classes for rho in table.labels]
    index = {p: i for i, p in enumerate(pairs)}
    for lab, rep, table in classes:
        cent = group.centralizer(rep)
        if set(cent) != table.column.keys():
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
        """F = F^T and F^2 = I, the second checked as num . num = den^2 I.

        F^2 of a symmetric F is symmetric too, so only its entries on and above
        the diagonal are computed: the first of each such row is the diagonal.
        """
        if not self.is_symmetric():
            return False
        unit = (self.den**2,) + ZERO[1:]
        return all(v == (ZERO if j else unit) for row in packed.square_upper(self.num) for j, v in enumerate(row))

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
    with a the class of u in the table of Z(x) and b the class of v in the table of Z(y).

    The g with g y g^-1 = u form one coset g_u Z(y), and on it g^-1 x g runs
    over the Z(y)-conjugates of g_u^-1 x g_u, which keep its class b.  So each
    u in Z(x), conjugate to y, adds |Z(y)| to c[a, b]: one step per element of
    each centralizer.  g_u is any g that the conjugation row of y sends to u,
    and g_u^-1 x g_u is read from the row of x at the index of g_u^-1.
    """
    elements = md.group.elements
    at = {g: k for k, g in enumerate(elements)}
    rows = {lab: md.group.conjugates(md.reps[lab]) for lab in md.class_labels}
    # u -> (the class y of u, the index of g_u^-1), over one transversal g_u per class
    coset = {
        u: (yl, at[pinv(g)]) for yl in md.class_labels for u, g in dict(zip(rows[yl], elements)).items()
    }
    counts = {}
    for xl in md.class_labels:
        row = rows[xl]
        by_class: dict[str, dict[tuple[int, int], int]] = {yl: {} for yl in md.class_labels}
        for u, a in md.tables[xl].column.items():
            yl, k = coset[u]
            zy = md.tables[yl]
            c = by_class[yl]
            key = a, zy.column[row[k]]
            c[key] = c.get(key, 0) + zy.order
        counts.update(((xl, yl), c) for yl, c in by_class.items())
    return counts


@lru_cache(maxsize=None)
def nonabelian_ft(name: str) -> FTMatrix:
    """The Fourier matrix of s3, s4 or s5."""
    return _fourier_matrix(mdata(name))


def _fourier_matrix(md: MData) -> FTMatrix:
    """F[(x,s),(y,t)] = sum_{a,b} s(a) c[a,b] conj(t(b)) / (|Z(x)||Z(y)|), one contraction per block.

    a and b run over the classes of the two centralizer tables (`_pair_counts`):
    every character is constant on a class, so this only collects equal
    terms of the sum over G.  Each block's counts are scaled by
    m = den / (|Z(x)||Z(y)|), den the lcm of the block denominators, so every
    block is over den.  Per block, S[s][b] = sum_a s(a) m c[a,b] is summed in
    packed form and F[s][t] = sum_b S[s][b] conj(t(b)) is one packed dot
    product per entry.  Every unreduced coefficient of F[s][t] is a sum of at
    most 16 m sum(c) products of a character coefficient and a conjugate one,
    which bounds the packing width for every block.  A block with no counts
    (no element of Z(x) is conjugate to y) is zero and is not computed.
    Equal packed sums are the same entry, so unpacking and the lowest-terms
    division run once per distinct packed sum.
    """
    for table in md.tables.values():
        table.validate()
    counts = _pair_counts(md)
    order = {lab: table.order for lab, table in md.tables.items()}
    den = lcm(*(order[xl] * order[yl] for xl, yl in counts))
    scale = {(xl, yl): den // (order[xl] * order[yl]) for xl, yl in counts}
    pk = packed.for_product(
        max(scale[key] * sum(c.values()) for key, c in counts.items()),
        max(packed.max_abs(table.x) for table in md.tables.values()),
        max(packed.max_abs(table.conj_x) for table in md.tables.values()),
    )
    xp = {lab: pk.pack_rows(table.x) for lab, table in md.tables.items()}
    yp = {lab: pk.pack_rows(table.conj_x) for lab, table in md.tables.items()}
    offset = {lab: md.index[MPair(lab, md.tables[lab].labels[0])] for lab in md.class_labels}
    blocks = []
    for (xl, yl), c in counts.items():
        if not c:
            continue
        m = scale[xl, yl]
        s = [[0] * len(md.tables[yl].weights) for _ in xp[xl]]
        for (a, b), k in c.items():
            k *= m
            for srow, xrow in zip(s, xp[xl]):
                srow[b] += k * xrow[a]
        blocks.append((offset[xl], offset[yl], [[sum(map(mul, srow, yrow)) for yrow in yp[yl]] for srow in s]))
    values = {p: pk.unpack(p) for p in {p for *_, block in blocks for row in block for p in row}}
    # lowest terms: g divides den and every numerator
    g = gcd(den, *(a for v in values.values() for a in v))
    scaled = {p: tuple(a // g for a in v) for p, v in values.items()}
    n = len(md.pairs)
    num = [[ZERO] * n for _ in range(n)]
    for i, j, block in blocks:
        for k, row in enumerate(block):
            num[i + k][j:j + len(row)] = map(scaled.__getitem__, row)
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
