"""Test-only GF(2) helpers: masks as coordinate tuples, functions on the
space as plain 0/1 value lists, the enumeration oracle for interval bases,
the paper's three-case formula for the embeddings tau_i, the row-space
forms of the family recursion (members as reduced rows, pushed through a
map's table of all source vectors and reduced per push), the orthogonal
complement by a general kernel solve, the change of basis by one peel
solve over all 2^D right-hand sides, and the dense products that check
B X = W, G G = 2^D I and G Z = 2 Z G' directly, the oracles for the
recursion's induction that `verify` runs; and the signed binomial sum, which
does not depend on D."""

from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from trifourier import taumaps
from trifourier.family import Family, FamilyStructureError, delta
from trifourier.fourier import CobMatrix, peel_order, sign_transform
from trifourier.gf2 import IntervalLabel, Subspace, SymplecticSpace, bits_of, make_space, rref, span_vectors
from trifourier.report import Report
from trifourier.taumaps import CircularMap, tau


def signed_binomial_sum(d: int) -> int:
    """Sum over k of delta(d-k) * C(2d+1, k) -- equals 2^d."""
    return sum(delta(d - k) * comb(2 * d + 1, k) for k in range(d + 1))


def coords_of(mask: int, dim: int) -> tuple[int, ...]:
    """Unpack a mask into its D coordinates with respect to (e_1,...,e_D)."""
    return tuple((mask >> i) & 1 for i in range(dim))


def characteristic(space: SymplecticSpace, subset) -> list[int]:
    """0/1 indicator vector of a Subspace or an iterable of vectors; [x] gives the point mass at x."""
    values = [0] * (1 << space.dim)
    if isinstance(subset, Subspace):
        subset = subset.vectors()
    for v in subset:
        values[v] = 1
    return values


def all_intervals(dim: int):
    """Every interval [a, b] inside [1, D], in (a, b) order."""
    for a in range(1, dim + 1):
        for b in range(a, dim + 1):
            yield IntervalLabel(a, b)


def interval_basis_by_enumeration(space: SymplecticSpace, sub: Subspace) -> tuple[IntervalLabel, ...]:
    """`interval_basis` (below) by listing all 2^dim elements of the subspace and
    looking each up among the interval vectors; the same result or error message."""
    label_of = {space.interval_vector(lab.a, lab.b): lab for lab in all_intervals(space.dim)}
    found = [label_of[v] for v in sub.vectors() if v in label_of]
    if len(found) != sub.dim:
        raise FamilyStructureError(
            f"subspace {sub.rows} contains {len(found)} interval vectors, dim={sub.dim}"
        )
    if len(rref(space.interval_vector(lab.a, lab.b) for lab in found)) != sub.dim:
        raise FamilyStructureError(f"interval vectors in {sub.rows} are dependent")
    return tuple(sorted(found))


def interval_basis(space: SymplecticSpace, sub: Subspace) -> tuple[IntervalLabel, ...]:
    """All interval vectors lying in the subspace; checked to form a basis.

    With the prefix sums p_k = e_1 + ... + e_k (p_0 = 0), the interval vector
    e_[a,b] is p_(a-1) + p_b, so it lies in E exactly when p_(a-1) and p_b lie
    in one coset of E.  For reduced echelon rows, p_k + (the sum of the rows
    whose pivot is below bit k) is that coset's element that is zero at every
    pivot, which names the coset.  One pass over k = 0..D sorts the D+1
    points into classes.  p_1..p_D are independent, so a class of n points
    holds C(n, 2) interval vectors of rank n - 1, and the classes' spans are
    independent.  Hence E holds exactly dim E interval vectors, all
    independent, when every class has at most 2 points and exactly dim E
    classes have 2: O(D) steps, with no vector of E listed.  Raises
    FamilyStructureError when the count differs from dim or the vectors are
    dependent, which signals a non-member.
    """
    classes: dict[int, list[int]] = {}  # coset name -> its points k, ascending
    stop = space.dim + 1
    acc = 0  # the sum of the rows whose pivot is below bit k
    k = 0
    for row in sub.rows:  # sorted by pivot, each pivot below bit D
        pivot_end = (row & -row).bit_length()
        while k < pivot_end:
            classes.setdefault(((1 << k) - 1) ^ acc, []).append(k)
            k += 1
        acc ^= row
    while k < stop:
        classes.setdefault(((1 << k) - 1) ^ acc, []).append(k)
        k += 1
    # dim E classes of 2 points and D+1 points in all leave no class larger than 2
    pairs = [c for c in classes.values() if len(c) > 1]
    if len(pairs) != sub.dim or len(classes) + sub.dim != stop:
        count = sum(len(c) * (len(c) - 1) // 2 for c in pairs)
        if count != sub.dim:
            raise FamilyStructureError(
                f"subspace {sub.rows} contains {count} interval vectors, dim={sub.dim}"
            )
        raise FamilyStructureError(f"interval vectors in {sub.rows} are dependent")
    # the classes come in the order of their first points, so the labels come sorted
    return tuple(IntervalLabel(c[0] + 1, c[1]) for c in pairs)


def kernel_of(constraints: Iterable[int], dim: int) -> Subspace:
    """Solution space of parity(x & c) = 0 for every constraint mask c."""
    rows = rref(constraints)
    pivots = [(row & -row).bit_length() - 1 for row in rows]
    pivot_set = set(pivots)
    basis = []
    for f in range(dim):
        if f in pivot_set:
            continue
        v = 1 << f
        for p, row in zip(pivots, rows):
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return Subspace.span(basis)


def perp(space: SymplecticSpace, sub: Subspace) -> Subspace:
    """The orthogonal complement {x : (x, u) = 0 for all u in sub}."""
    return kernel_of((space.forms[row] for row in sub.rows), space.dim)


def nested_interval_subspace(space: SymplecticSpace, k: int) -> Subspace:
    """E_k: span of the k nested interval vectors e_[1,D], e_[2,D-1], ..."""
    if not 0 <= k <= space.half:
        raise ValueError(f"k={k} out of range [0,{space.half}]")
    return Subspace.span(
        space.interval_vector(j, space.dim + 1 - j) for j in range(1, k + 1)
    )


def table(m: CircularMap) -> list[int]:
    """The images under m of all 2^src_dim source vectors, indexed by source mask."""
    return span_vectors(m.coordinate_images())


def push_rows(table: list[int], rows: Iterable[int], *extra: int) -> tuple[int, ...]:
    """The reduced rows of the image of span(rows) under a map, plus the vectors `extra`.

    `table` is the map's `table(m)`; the images and the extra
    vectors are reduced together, once.
    """
    return rref([table[r] for r in rows] + list(extra))


def close_rows(table: list[int], members: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The reduced row tuples `members`, closed under the map with this `table(m)`.

    Each round pushes only the subspaces the previous round added.
    """
    out = set(members)
    frontier = out
    while frontier:
        frontier = {push_rows(table, rows) for rows in frontier} - out
        out |= frontier
    return out


def tau_by_cases(space: SymplecticSpace, i: int) -> tuple[int, ...]:
    """The images of tau_i by the paper's three cases, i in [1, D+1], D >= 2.

    Image sequence of the D-1 circular vectors of the (D-2)-space:
      1 < i <= D : e_1,...,e_{i-2}, e_{i-1}+e_i+e_{i+1}, e_{i+2},...,e_{D+1}
      i = 1      : e_3,...,e_D, e_{D+1}+e_1+e_2
      i = D+1    : e_2,...,e_{D-1}, e_D+e_{D+1}+e_1
    For D = 2 the source is the zero space and the map is zero.
    """
    d_big, e = space.dim, space.circular
    if d_big == 2:
        return (0,)
    if i == 1:
        return (*(e(j + 2) for j in range(1, d_big - 1)), e(d_big + 1) ^ e(1) ^ e(2))
    if i == d_big + 1:
        return (*(e(j + 1) for j in range(1, d_big - 1)), e(d_big) ^ e(d_big + 1) ^ e(1))
    return (
        *(e(j) for j in range(1, i - 1)),
        e(i - 1) ^ e(i) ^ e(i + 1),
        *(e(j + 2) for j in range(i, d_big)),
    )


@lru_cache(maxsize=None)
def family_subspaces_by_rows(dim: int) -> frozenset[Subspace]:
    """`family.family_subspaces` in row space: each member as a Subspace."""
    if dim == 0:
        return frozenset({Subspace(())})
    space = make_space(dim)
    out = {nested_interval_subspace(space, k) for k in range(space.half + 1)}
    for i in range(1, dim + 1):
        t = table(tau(space, i))
        ei = space.circular(i)
        out.update(Subspace(push_rows(t, sub.rows, ei)) for sub in family_subspaces_by_rows(dim - 2))
    return frozenset(out)


def peel_solve(
    members: list[list[int]], rhs: list[dict[int, int]]
) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """X with B X = rhs exactly, B the 0/1 matrix of `peel_order`, and the peel order.

    Row v of rhs and row j of X are {column: value} for their nonzeros.
    Forward substitution in peel order keeps the residual rhs - B X: step
    (v, j) takes X[j] = residual[v], without its zeros, and subtracts it
    from the other rows of column j.
    """
    order = peel_order(members, len(rhs))
    residual = [dict(row) for row in rhs]
    x: list[dict[int, int]] = [{} for _ in members]
    for v, j in order:
        vals = x[j] = {c: val for c, val in residual[v].items() if val}
        for u in members[j]:
            if u != v:
                row = residual[u]
                get = row.get
                for c, val in vals.items():
                    row[c] = get(c, 0) - val
    return x, order


def change_of_basis_by_solve(family: Family) -> CobMatrix:
    """The change of basis by one peel solve of B X = W over all 2^D columns of W.

    Column r of W is 2^(dim E_r) on the orthogonal complement of member r;
    row r of the matrix is column r of X, over the denominator 2^d.
    """
    rhs: list[dict[int, int]] = [{} for _ in range(1 << family.dim)]
    for r, vectors, weight in w_columns(family):
        for v in vectors:
            rhs[v][r] = weight
    members = [list(e.subspace.vectors()) for e in family.entries]
    x, order = peel_solve(members, rhs)
    num: list[dict[int, int]] = [{} for _ in range(len(family))]
    for c, col in enumerate(x):
        for r, val in col.items():
            num[r][c] = val
    cob = CobMatrix(family, num, 1 << family.half)
    cob.peel = order
    return cob


# -- the dense products ----------------------------------------------------------
# The butterflies of `sign_transform` only add and subtract, so they transform a
# whole matrix at once when each of its rows is packed into one int by Kronecker
# substitution (`Fields`); each product states the bound on every field that sets
# the field width.


class Fields:
    """Rows of `count` integer fields, each row packed into one int.

    Field j holding c adds c * 2^(bits * j).  The width is the least whole
    number of bytes with 2^(bits - 1) > bound, for a bound on |c| over every
    field of every row compared: two fields then differ by less than
    2^bits, so two packed rows are equal exactly when every field is.
    """

    def __init__(self, bound: int, count: int):
        self.width = w = (bound.bit_length() + 8) // 8
        self.bits = 8 * w
        self._half = 1 << (self.bits - 1)
        # every field biased by 2^(bits - 1) is nonnegative; one subtraction per row takes it off
        self._zero = (bytes(w - 1) + b"\x80") * count
        self._bias = int.from_bytes(self._zero, "little")

    def unit(self, j: int) -> int:
        """The row with 1 in field j and 0 elsewhere."""
        return 1 << (self.bits * j)

    def rows(self, count: int, columns: Iterable[tuple[int, Iterable[int], int]]) -> list[int]:
        """`count` packed rows from (field, rows, value) triples: each of those rows holds
        value in that field, and every other field is 0.  Each (row, field) is given at most once.

        The rows are filled as bytearrays: adding a shifted value to a packed
        int would copy the whole row for every entry.
        """
        bufs = [bytearray(self._zero) for _ in range(count)]
        w = self.width
        for j, ks, c in columns:
            lo, piece = w * j, (c + self._half).to_bytes(w, "little")
            for k in ks:
                bufs[k][lo : lo + w] = piece
        return [int.from_bytes(buf, "little") - self._bias for buf in bufs]

    def first_difference(self, a: Sequence[int], b: Sequence[int]) -> int | None:
        """The lowest field in which some row of a differs from the same row of b.

        The lowest set bit of x ^ y is the lowest bit in which x and y differ,
        which lies in the lowest differing field.
        """
        diffs = [x ^ y for x, y in zip(a, b) if x != y]
        return min(((x & -x).bit_length() - 1) // self.bits for x in diffs) if diffs else None


def dense_involution(space: SymplecticSpace) -> bool:
    """G G == 2^D I, on the rows of I packed one int per row.

    G is +-1, so every field of G G I is at most 2^D in absolute value, as is
    every field of 2^D I.  At D = 12 each packed array holds 32 MB.
    """
    size = 1 << space.dim
    fields = Fields(size, size)
    ident = [fields.unit(j) for j in range(size)]
    return sign_transform(space, sign_transform(space, ident)) == [x << space.dim for x in ident]


def z_map(space: SymplecticSpace, i: int, f_prime: Sequence) -> list:
    """Z f' for the i-th push-up Z, on values that add: numbers, or packed rows.

    The image of a point mass at y is the sum of the point masses at
    tau_i(y) and tau_i(y) + e_i.  The map is read through `taumaps`, so a
    substituted tau_i reaches it.
    """
    size_small = 1 << (space.dim - 2)
    if len(f_prime) != size_small:
        raise ValueError(f"function vector must have length {size_small}")
    e = space.circular(i)
    out = [0] * (1 << space.dim)
    for t, value in zip(table(taumaps.tau(space, i)), f_prime):
        out[t] += value
        out[t ^ e] += value
    return out


def dense_z_commutation(dim: int) -> Report:
    """The push-up maps intertwine the two transforms: G Z = 2 Z G', on the packed rows of I'.

    Each column of Z holds two ones and, tau_i being injective, each row at
    most two; so every field of G Z I' is at most 2 in absolute value and
    every field of 2 Z G' I' at most 4.
    """
    rep = Report(f"z-commutation D={dim}")
    v = make_space(dim)
    vp = make_space(dim - 2)
    fields = Fields(4, 1 << vp.dim)
    ident = [fields.unit(j) for j in range(1 << vp.dim)]
    g_small = sign_transform(vp, ident)
    for i in range(1, dim + 2):
        lhs = sign_transform(v, z_map(v, i, ident))
        rep.require(f"i={i}", lhs == [2 * x for x in z_map(v, i, g_small)])
    return rep


def w_columns(family: Family) -> Iterator[tuple[int, list[int], int]]:
    """W by columns (r, vectors, value): column r is 2^(dim E_r) on the orthogonal
    complement of E_r, the closed form of G applied to member r.

    With s_k = x_k + x_(k+1) for k = 0..D (x_0 = x_(D+1) = 0), the pairing
    (x, e_[a,b]) is s_(a-1) + s_b, and the s of every x sums to 0.  So x is
    orthogonal to a member exactly when s agrees on the two points of each
    of its intervals.  The interval joining points p < q is the x of
    s = e_p + e_q, so the perp is spanned by the member and by the intervals
    joining the lowest point that no interval of the member touches to each
    other such point.
    """
    space = family.space
    by_ends = dict(zip(space.interval_ends, space.interval_vectors))
    points = (1 << (family.dim + 1)) - 1
    for r, e in enumerate(family.entries):
        touched = 0
        for k in bits_of(e.key):
            touched |= space.interval_ends[k]
        free = points & ~touched
        first = free & -free
        basis = list(e.subspace.rows)
        basis += (by_ends[first | (1 << p)] for p in bits_of(free ^ first))
        yield r, span_vectors(basis), 1 << e.dim


def dense_checks(cob: CobMatrix) -> list[tuple[str, bool, str]]:
    """The residual W - B X and the closed form G B = W, as (check, ok, details)."""
    fam = cob.family
    n = cob.size
    size = 1 << fam.dim
    # Packed over the members r.  Row v of B X sums, over the members c that
    # hold v, the rows X_c = column c of num, so each of its fields is at most
    # n max|num|; each field of G 1_{E_r} is at most |E_r| <= 2^d, and each of
    # W is 2^(dim E_r) <= 2^d.
    num_max = max((abs(v) for row in cob.num for v in row.values()), default=0)
    fields = Fields(max(n * num_max, 1 << fam.half), n)
    w = fields.rows(size, w_columns(fam))
    x = fields.rows(n, ((r, (c,), val) for r, row in enumerate(cob.num) for c, val in row.items()))
    bx = [0] * size
    for c, vs in enumerate(cob.members):
        for v in vs:
            bx[v] += x[c]
    residual = ("solve-residual", bx == w, "W - B X is not zero")
    del x, bx  # before the closed form packs another 2^D rows

    indicators = fields.rows(size, ((r, vs, 1) for r, vs in enumerate(cob.members)))
    bad_member = fields.first_difference(sign_transform(fam.space, indicators), w)
    return [residual, ("closed-form", bad_member is None, f"member {bad_member}")]
