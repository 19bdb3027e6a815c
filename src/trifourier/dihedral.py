"""Rotation and reflection of the circular basis and their action on the family."""

from __future__ import annotations

from .family import Family
from .gf2 import SymplecticSpace, make_space
from .report import Report
from .taumaps import CircularMap, preserves_form, push_key, reflection, rotation, tau


def verify_relations(space: SymplecticSpace) -> Report:
    """R and S generate a dihedral action: R^(D+1)=1, S^2=1, SRS=R^-1."""
    rep = Report(f"dihedral-relations D={space.dim}")
    r = rotation(space)
    s = reflection(space)
    rep.require("R symplectic", preserves_form(space, r))
    rep.require("S symplectic", preserves_form(space, s))
    r_d = CircularMap(space.dim, space.dim, space.circular_vectors())  # R^D, built from R^0
    for _ in range(space.dim):
        r_d = r_d.compose(r)
    rep.require("R^(D+1)=1", r_d.compose(r).is_identity())
    rep.require("S^2=1", s.compose(s).is_identity())
    rep.require("SRS=R^-1", s.compose(r).compose(s) == r_d)
    return rep


def verify_embedding_equivariance(dim: int) -> Report:
    """How rotation and reflection intertwine the embeddings.

    R tau_i = tau_{i+1} R' for i in [1, D-1]; at the wrap-around indices the
    source twist disappears: R tau_D = tau_{D+1} and R tau_{D+1} = tau_1
    (checked plain, without R', which is what holds).
    S tau_i = tau_{D+1-i} S' for i in [1, D], and S tau_{D+1} = tau_{D+1} S'.
    """
    rep = Report(f"embedding-equivariance D={dim}")
    v = make_space(dim)
    vp = make_space(dim - 2)
    r, s = rotation(v), reflection(v)
    rp, sp = rotation(vp), reflection(vp)
    for i in range(1, dim + 2):
        t_i = tau(v, vp, i)
        t_next = tau(v, vp, i + 1 if i <= dim else 1)
        t_refl = tau(v, vp, dim + 1 - i if i <= dim else dim + 1)
        rep.require(f"R-tau i={i}", r.compose(t_i) == (t_next.compose(rp) if i <= dim - 1 else t_next))
        rep.require(f"S-tau i={i}", s.compose(t_i) == t_refl.compose(sp))
    return rep


def family_permutation(family: Family, auto: CircularMap) -> list[int]:
    """The permutation induced on family entries; raises if a member escapes."""
    table = auto.key_table()
    index_of = family.index_of_key
    perm = []
    for ent in family.entries:
        image = index_of.get(push_key(table, ent.key))
        if image is None:
            raise ValueError(f"image of entry {ent.index} is not a family member")
        perm.append(image)
    return perm


def orbits_of(perms: list[list[int]], size: int) -> list[list[int]]:
    seen = [False] * size
    orbits = []
    for start in range(size):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for perm in perms:
                    j = perm[i]
                    if not seen[j]:
                        seen[j] = True
                        orbit.append(j)
                        nxt.append(j)
            frontier = nxt
        orbits.append(sorted(orbit))
    return orbits


def generated_permutation_group(perms: list[list[int]]) -> set[tuple[int, ...]]:
    """Closure of the given permutations under composition."""
    if not perms:
        return set()
    group = {tuple(range(len(perms[0])))}
    frontier = [tuple(p) for p in perms]
    while frontier:
        nxt = []
        for p in frontier:
            if p in group:
                continue
            group.add(p)
            for g in perms:
                nxt.append(tuple(map(g.__getitem__, p)))
                nxt.append(tuple(map(p.__getitem__, g)))
        frontier = nxt
    return group


def verify_family_stability(family: Family) -> Report:
    """Both generators keep the family stable; the induced permutation group
    has order dividing 2(D+1), and so do all orbit sizes."""
    rep = Report(f"family-stability D={family.dim}")
    space = family.space
    try:
        perm_r = family_permutation(family, rotation(space))
        perm_s = family_permutation(family, reflection(space))
    except ValueError as exc:
        rep.add("stability", False, str(exc))
        return rep
    rep.add("stability", True)
    orbits = orbits_of([perm_r, perm_s], len(family))
    total = sum(len(o) for o in orbits)
    rep.require("orbits partition", total == len(family), f"{total} != {len(family)}")
    group_order = 2 * (family.dim + 1)
    bad = [o for o in orbits if group_order % len(o)]
    rep.require("orbit sizes divide 2(D+1)", not bad, f"sizes: {[len(o) for o in bad]}")
    induced = len(generated_permutation_group([perm_r, perm_s]))
    rep.require(
        "induced group order divides 2(D+1)",
        group_order % induced == 0,
        f"order {induced}",
    )
    sizes = sorted(len(o) for o in orbits)
    rep.add("orbit sizes", True, ",".join(map(str, sizes)))
    return rep
