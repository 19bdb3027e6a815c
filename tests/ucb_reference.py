"""The graph-invariant recursion as its plain all-pairs double loop: a
test-only reference that pushes every (D-2)-member through the embedding of
every vertex pair (gamma', gamma), sharing no closure or factorisation with
`trifourier.family.family_subspaces_ucb`."""

from functools import lru_cache

from trifourier.gf2 import Subspace, make_space
from trifourier.taumaps import generic_tau

from gf2_reference import push_rows, table


@lru_cache(maxsize=None)
def ucb_all_pairs(dim: int) -> frozenset[Subspace]:
    """{0} and tau_(gamma', gamma)(E') + F2.e_gamma over every pair and (D-2)-member E'."""
    if dim == 0:
        return frozenset({Subspace(())})
    if dim == 2:
        return frozenset(
            {Subspace(()), Subspace.span([1]), Subspace.span([2]), Subspace.span([3])}
        )
    space = make_space(dim)
    prev_rows = [sub.rows for sub in ucb_all_pairs(dim - 2)]
    out: set[tuple[int, ...]] = {()}
    for gamma_p in range(1, dim):
        for gamma in range(1, dim + 2):
            t = table(generic_tau(space, gamma_p, gamma))
            eg = space.circular(gamma)
            out.update(push_rows(t, rows, eg) for rows in prev_rows)
    return frozenset(map(Subspace, out))
