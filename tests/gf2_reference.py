"""Test-only GF(2) helpers: masks as coordinate tuples, functions on the
space as plain 0/1 value lists, the enumeration oracle for interval bases,
the paper's three-case formula for the embeddings tau_i, the row-space
forms of the family recursion (members as reduced rows, pushed through a
map's table of all source vectors and reduced per push), the orthogonal
complement by a general kernel solve, and the change of basis by one peel
solve over all 2^D right-hand sides."""

from functools import lru_cache
from typing import Iterable

from trifourier.family import Family, FamilyStructureError
from trifourier.fourier import CobMatrix, _w_columns, peel_order
from trifourier.gf2 import IntervalLabel, Subspace, SymplecticSpace, make_space, rref
from trifourier.taumaps import tau


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


def push_rows(table: list[int], rows: Iterable[int], *extra: int) -> tuple[int, ...]:
    """The reduced rows of the image of span(rows) under a map, plus the vectors `extra`.

    `table` is the map's `CircularMap.table()`; the images and the extra
    vectors are reduced together, once.
    """
    return rref([table[r] for r in rows] + list(extra))


def close_rows(table: list[int], members: Iterable[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """The reduced row tuples `members`, closed under the map with this `table()`.

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
        t = tau(space, i).table()
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
    for r, vectors, weight in _w_columns(family):
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
