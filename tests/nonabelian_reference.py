"""Test-only group data and oracles around `trifourier.nonabelian`.

The command line accepts s3, s4 and s5 only.  The cross-checks also need the
group s2 and direct products written "s3xs2": their Fourier matrix must be the
tensor product of the factors' matrices.  This module builds them from the
package's table builders, and holds the trace bookkeeping that pins the S5
piece signs, the writer of basis files, and the references that the packed
kernels are held against: `Cyc` arithmetic, the packed matrix product
`matmul` and the element-by-element pair counts.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from trifourier import packed
from trifourier.bareiss import adjugate
from trifourier.cyclotomic import Cyc
from trifourier.groups import (
    CharacterTable,
    PermGroup,
    _cyclic_table,
    from_cycles,
    identity_perm,
    pinv,
    symmetric_group,
)
from trifourier.nonabelian import (
    PIECE_SIGNS,
    FTMatrix,
    MData,
    MPair,
    NewBasis,
    _assemble,
    _fourier_matrix,
    mdata,
    nonabelian_ft,
    piece_partition,
)
from trifourier.packed import ZERO, Vec
from trifourier.report import Report

from fraction_reference import fraction_inverse


def rational(m) -> list[list[Vec]]:
    """An integer matrix as numerators over den 1."""
    return [[(x,) + ZERO[1:] for x in row] for row in m]


def matmul(a: list[list[Vec]], c: list[list[Vec]]) -> list[list[Vec]]:
    """Numerators of A C for numerator rows a (n x m) and c (m x p), by the packed product;
    the denominators multiply."""
    pk = packed.for_product(len(c), packed.max_abs(a), packed.max_abs(c))
    cols = pk.pack_rows(list(zip(*c)))
    return pk.unpack_rows([[sum(map(mul, row, col)) for col in cols] for row in pk.pack_rows(a)])


def char_value(table: CharacterTable, label: str, g) -> Vec:
    """The value of character `label` at the element g: x[s][column[g]]."""
    return table.x[table.labels.index(label)][table.column[g]]


def unimodular_inverse(u: list[list[int]]) -> list[list[int]]:
    """U^-1 = det adj U, the integer inverse of a matrix of determinant +-1."""
    det, adj = adjugate(u)
    assert det in (1, -1), det
    return [[det * a for a in row] for row in adj]


def to_cyc_rows(rows: list[list[Vec]], den: int) -> list[list[Cyc]]:
    return [[Cyc(v, den) for v in row] for row in rows]


def cyc_product(a: list[list[Cyc]], b: list[list[Cyc]]) -> list[list[Cyc]]:
    """A B entry by entry in `Cyc` arithmetic."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Cyc.from_rational(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def conjugated_reference(ft: FTMatrix, u: list[list[int]]) -> list[list[Cyc]]:
    """U^-1 F U in `Cyc` arithmetic, with U^-1 from Gauss-Jordan over Fractions."""
    uinv = [[Cyc.from_rational(v) for v in row] for row in fraction_inverse(u)]
    return cyc_product(uinv, cyc_product(ft.matrix, [[Cyc.from_rational(v) for v in row] for row in u]))


def unimodular(n: int, rng) -> list[list[int]]:
    """A random integer matrix of determinant 1: elementary row additions on the identity."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def pair_counts_reference(md: MData) -> dict[tuple[str, str], dict[tuple[int, int], int]]:
    """`nonabelian._pair_counts` element by element: for each pair of classes x, y, one pass
    over G counts the pairs (class of g y g^-1 in Z(x), class of g^-1 x g in Z(y)) over
    the g with g y g^-1 in Z(x)."""
    elements = md.group.elements
    at = {g: k for k, g in enumerate(elements)}
    inverse = [at[pinv(g)] for g in elements]
    forward = {lab: md.group.conjugates(md.reps[lab]) for lab in md.class_labels}
    counts = {}
    for xl in md.class_labels:
        in_zx = md.tables[xl].column
        backward = [forward[xl][k] for k in inverse]
        for yl in md.class_labels:
            in_zy = md.tables[yl].column
            c: dict[tuple[int, int], int] = {}
            for u, v in zip(forward[yl], backward):
                a = in_zx.get(u)
                if a is not None:
                    key = a, in_zy[v]
                    c[key] = c.get(key, 0) + 1
            counts[xl, yl] = c
    return counts


def product_group(a: PermGroup, b: PermGroup) -> PermGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    shift = len(a.elements[0])
    return PermGroup(tuple(ga + tuple(x + shift for x in gb) for ga in a.elements for gb in b.elements))


def _s2() -> MData:
    g = symmetric_group(2)
    swap = from_cycles(2, (0, 1))
    table = _cyclic_table(swap, [("1", 0), ("eps", 30)])  # S2 is <swap>, eps(swap) = -1 = z^30
    classes = [("1", identity_perm(2), table), ("g2", swap, table)]
    return _assemble("s2", g, classes)


def _product(a: MData, b: MData) -> MData:
    """Classes and centralizer characters of a x b: the products of the factors' pairs."""
    group = product_group(a.group, b.group)
    shift = len(a.group.elements[0])
    classes = []
    for la in a.class_labels:
        for lb in b.class_labels:
            rep = a.reps[la] + tuple(x + shift for x in b.reps[lb])
            ta, tb = a.tables[la], b.tables[lb]
            # the classes of Z_a x Z_b are the products of classes: (ca, cb) has index ca * width + cb
            width = len(tb.weights)
            column = {
                ga + tuple(x + shift for x in gb): ca * width + cb
                for ga, ca in ta.column.items()
                for gb, cb in tb.column.items()
            }
            labels = tuple(f"{ra}*{rb}" for ra in ta.labels for rb in tb.labels)
            x = [  # a product of algebraic integers: its denominator is 1
                [(Cyc(va) * Cyc(vb)).num for va in xa for vb in xb]
                for xa in ta.x
                for xb in tb.x
            ]
            classes.append((f"{la}*{lb}", rep, CharacterTable(column, labels, x)))
    return _assemble(f"{a.name}x{b.name}", group, classes)


@lru_cache(maxsize=None)
def group_data(name: str) -> MData:
    """s2, s3, s4, s5, or a direct product of them written "s3xs2"."""
    if "x" in name:
        left, _, right = name.partition("x")
        return _product(group_data(left), group_data(right))
    if name == "s2":
        return _s2()
    return mdata(name)


@lru_cache(maxsize=None)
def group_ft(name: str) -> FTMatrix:
    """The Fourier matrix of any `group_data` name; s3, s4 and s5 through `nonabelian_ft`."""
    if name in ("s3", "s4", "s5"):
        return nonabelian_ft(name)
    return _fourier_matrix(group_data(name))


def kron_ft(a: FTMatrix, b: FTMatrix) -> list[list[Cyc]]:
    """Kronecker product in the pair order of the corresponding product group."""
    na, nb = a.size, b.size
    out = [[Cyc.from_rational(0)] * (na * nb) for _ in range(na * nb)]
    md_prod = group_data(f"{a.mdata.name}x{b.mdata.name}")
    for ia, pa in enumerate(a.mdata.pairs):
        for ib, pb in enumerate(b.mdata.pairs):
            i = md_prod.index[MPair(f"{pa.x}*{pb.x}", f"{pa.rho}*{pb.rho}")]
            for ja, qa in enumerate(a.mdata.pairs):
                for jb, qb in enumerate(b.mdata.pairs):
                    j = md_prod.index[MPair(f"{qa.x}*{qb.x}", f"{qa.rho}*{qb.rho}")]
                    out[i][j] = a.matrix[ia][ja] * b.matrix[ib][jb]
    return out


def apply_columns(ft: FTMatrix, coeffs: list) -> list[Cyc]:
    """F times a column of rational basis coefficients (ints or Fractions), by the packed product."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    column = rational([[int(c * den)] for c in coeffs])
    return [Cyc(v, ft.den * den) for v, in matmul(ft.num, column)]


def sign_consistency_report() -> Report:
    """Replay of the trace bookkeeping pinning the first two piece signs.

    The piece sizes and signs from the stored data must reproduce the exact
    matrix trace for each group; for the largest group, subtracting the
    contribution of pieces three onward from the trace (13) leaves -2 for
    the two singleton pieces, forcing both signs to be -1.
    """
    rep = Report("sign-consistency")
    for name in ("s3", "s4", "s5"):
        tr = nonabelian_ft(name).trace()
        rep.require(f"{name} trace rational", tr.is_rational(), repr(tr))
        pieces = piece_partition(name)
        signed = sum(PIECE_SIGNS[name][k] * len(piece) for k, piece in enumerate(pieces))
        rep.require(
            f"{name} trace matches signed piece sizes",
            tr.is_rational() and tr.to_rational() == signed,
            f"trace={tr!r} signed={signed}",
        )
    tail = sum(PIECE_SIGNS["s5"][k] * len(piece) for k, piece in enumerate(piece_partition("s5")) if k >= 2)
    head = nonabelian_ft("s5").trace().to_rational() - tail
    rep.require("s5 head pieces sum to -2", head == -2, f"{head}")
    ft3, ft2 = nonabelian_ft("s3"), group_ft("s2")
    prod = group_ft("s3xs2")
    rep.require("product matrix is the tensor product", prod.matrix == kron_ft(ft3, ft2))
    rep.require(
        "product trace multiplies",
        prod.trace() == ft3.trace() * ft2.trace(),
        f"{prod.trace()!r} != {ft3.trace()!r}*{ft2.trace()!r}",
    )
    return rep


def new_basis_to_json(basis: NewBasis) -> dict:
    """The basis-file document of a basis, as `load_basis` reads it."""
    md = mdata(basis.group)
    expansions = []
    for j, p in enumerate(md.pairs):
        terms = [
            {"x": md.pairs[i].x, "rho": md.pairs[i].rho, "coeff_num": basis.matrix[i][j], "coeff_den": 1}
            for i in range(len(md.pairs))
            if basis.matrix[i][j]
        ]
        expansions.append({"label": {"x": p.x, "rho": p.rho}, "terms": terms})
    return {"group": basis.group, "variant": basis.variant, "expansions": expansions}
