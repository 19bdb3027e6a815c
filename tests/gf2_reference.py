"""Test-only GF(2) helpers: masks as coordinate tuples, and functions on the
space as plain 0/1 value lists."""

from trifourier.gf2 import Subspace, SymplecticSpace


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
