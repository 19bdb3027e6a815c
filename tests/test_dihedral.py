import pytest

from trifourier.dihedral import (
    family_permutation,
    generated_permutation_group,
    preserves_form,
    reflection,
    rotation,
    verify_embedding_equivariance,
    verify_family_stability,
    verify_relations,
)
from trifourier.family import Family, build_family
from trifourier.gf2 import Subspace, make_space


def test_rotation_d2_action():
    sp = make_space(2)
    r = rotation(sp)
    assert r.apply(sp.circular(1)) == sp.circular(2)
    assert r.apply(sp.circular(2)) == sp.circular(3)
    assert r.apply(sp.circular(3)) == sp.circular(1)


def test_reflection_values_d4():
    sp = make_space(4)
    s = reflection(sp)
    assert s.apply(sp.circular(2)) == sp.circular(3)
    assert s.apply(sp.circular(5)) == sp.circular(5)


@pytest.mark.parametrize("dim", [0, 2, 4, 6, 8, 10])
def test_relations(dim):
    rep = verify_relations(make_space(dim))
    assert rep.ok, rep.summary()


def test_form_preservation():
    for dim in (2, 4, 6, 8, 10):
        sp = make_space(dim)
        assert preserves_form(sp, rotation(sp))
        assert preserves_form(sp, reflection(sp))


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_equivariance(dim):
    rep = verify_embedding_equivariance(dim)
    assert rep.ok, rep.summary()


def test_stability_and_orbits_d2():
    fam = build_family(2)
    perm_r = family_permutation(fam, rotation(fam.space))
    index = {fam.space.interval_span(key): i for i, key in enumerate(fam.keys)}  # perms act on key positions
    zero_idx = index[Subspace(())]
    assert perm_r[zero_idx] == zero_idx
    lines = [index[Subspace.span([m])] for m in (1, 2, 3)]
    # rotation cycles the three lines
    assert sorted(perm_r[i] for i in lines) == sorted(lines)
    assert all(perm_r[i] != i for i in lines)
    assert sorted(map(len, _dihedral_orbits(fam))) == [1, 3]


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_stability(dim):
    rep = verify_family_stability(build_family(dim))
    assert rep.ok, rep.summary()


def test_induced_group_is_full_dihedral_d4():
    fam = build_family(4)
    perms = [
        family_permutation(fam, rotation(fam.space)),
        family_permutation(fam, reflection(fam.space)),
    ]
    assert len(generated_permutation_group(perms)) == 10


def _dihedral_orbits(fam):
    """The distinct orbits of the members, each read off the generated group."""
    perms = [family_permutation(fam, rotation(fam.space)), family_permutation(fam, reflection(fam.space))]
    group = generated_permutation_group(perms)
    return {frozenset(p[i] for p in group) for i in range(len(fam))}


def test_orbit_sizes_partition_d4():
    sizes = [len(o) for o in _dihedral_orbits(build_family(4))]
    assert sum(sizes) == 16
    assert all(10 % s == 0 for s in sizes)


def test_orbit_report_is_deterministic():
    first, second = (verify_family_stability(build_family(4)).summary() for _ in range(2))
    assert first == second and "[PASS] orbit sizes: 1,5,5,5" in first


def test_stability_failure_names_the_canonical_entry():
    # {0, <3>, <1>} passes the family's own checks (fibers "∅,<3>" and "<1>"), but
    # R sends <1> = <e_1> to <e_2>; in (dim, rows) order <1> is entry 1
    sp = make_space(2)
    keys = [sp.interval_keys[v] for v in (sp.circular(1), sp.circular(3))]
    fam = Family(2, [0, *keys])
    check = verify_family_stability(fam).checks[0]
    assert (check.check_id, check.ok, check.details) == ("stability", False, "image of entry 1 is not a family member")
