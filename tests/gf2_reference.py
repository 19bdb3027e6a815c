"""Test-only GF(2) helpers: masks as coordinate tuples, functions on the
space as plain 0/1 value lists, the enumeration oracle for interval bases,
and the row-space forms of the family recursion: members as reduced rows,
pushed through a map's table of all source vectors and reduced per push."""

from functools import lru_cache
from typing import Iterable

from trifourier.family import FamilyStructureError
from trifourier.gf2 import IntervalLabel, Subspace, SymplecticSpace, ZERO_SUBSPACE, make_space, rref
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


@lru_cache(maxsize=None)
def standard_paths_by_rows(dim: int) -> dict[Subspace, str]:
    """`family.standard_paths` in row space: each member as a Subspace, with its first path."""
    if dim == 0:
        return {ZERO_SUBSPACE: "zero"}
    space = make_space(dim)
    sub_space = make_space(dim - 2)
    paths = {nested_interval_subspace(space, k): f"E_{k}@D={dim}" for k in range(space.half + 1)}
    for i in range(1, dim + 1):
        t = tau(space, sub_space, i).table()
        ei = space.circular(i)
        for sub, path in standard_paths_by_rows(dim - 2).items():
            paths.setdefault(Subspace(push_rows(t, sub.rows, ei)), f"tau_{i}[{path}]")
    return paths
