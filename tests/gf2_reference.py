"""Test-only GF(2) helpers: masks as coordinate tuples, functions on the
space as plain 0/1 value lists, and the enumeration oracle for interval bases."""

from trifourier.family import FamilyStructureError
from trifourier.gf2 import IntervalLabel, Subspace, SymplecticSpace, rref


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
    """`family.interval_basis` by listing all 2^dim elements of the subspace and
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
