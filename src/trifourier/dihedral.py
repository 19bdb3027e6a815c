"""Rotation and reflection of the circular basis and their action on the family."""

from __future__ import annotations

from . import taumaps
from .family import Family
from .gf2 import SymplecticSpace, make_space
from .report import Report
from .taumaps import CircularMap, preserves_form, push_key, reflection, rotation


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
    t = {i: taumaps.tau(v, i) for i in range(1, dim + 2)}
    t_next = {i: t[i + 1 if i <= dim else 1] for i in t}
    rotates = [r.compose(t[i]) == (t_next[i].compose(rp) if i <= dim - 1 else t_next[i]) for i in t]
    reflects = [s.compose(t[i]) == t[dim + 1 - i if i <= dim else dim + 1].compose(sp) for i in t]
    for check, holds in (("R-tau", rotates), ("S-tau", reflects)):
        bad = next((i for i, ok in enumerate(holds, 1) if not ok), None)
        rep.require(check, bad is None, f"i={bad}")
    return rep


def family_permutation(family: Family, auto: CircularMap) -> list[int]:
    """The permutation induced on the members, as positions in `family.keys`;
    raises if a member escapes, naming the first such entry in canonical order."""
    table = auto.key_table()
    position = {key: i for i, key in enumerate(family.keys)}
    perm = [position.get(push_key(table, key), -1) for key in family.keys]
    if -1 in perm:
        bad = next(e for e in family.entries if push_key(table, e.key) not in position)
        raise ValueError(f"image of entry {bad.index} is not a family member")
    return perm


def generated_permutation_group(perms: list[list[int]]) -> set[tuple[int, ...]]:
    """The group the permutations generate: the closure of the identity under
    composition with each generator, which for finitely many permutations is a group."""
    if not perms:
        return set()
    group = {tuple(range(len(perms[0])))}
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(map(p.__getitem__, g))
                if q not in group:
                    group.add(q)
                    nxt.append(q)
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
    group = generated_permutation_group([perm_r, perm_s])
    orbits, seen = [], set()
    for i in range(len(family)):
        if i not in seen:
            orbits.append({p[i] for p in group})
            seen |= orbits[-1]
    total = sum(len(o) for o in orbits)
    rep.require("orbits partition", total == len(family), f"{total} != {len(family)}")
    group_order = 2 * (family.dim + 1)
    bad = [o for o in orbits if group_order % len(o)]
    rep.require("orbit sizes divide 2(D+1)", not bad, f"sizes: {[len(o) for o in bad]}")
    rep.require("induced group order divides 2(D+1)", group_order % len(group) == 0, f"order {len(group)}")
    sizes = sorted(len(o) for o in orbits)
    rep.add("orbit sizes", True, ",".join(map(str, sizes)))
    return rep
