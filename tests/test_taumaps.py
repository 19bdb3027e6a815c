import pytest

from gf2_reference import close_rows, push_rows

from trifourier.family import family_subspaces
from trifourier.gf2 import Subspace, make_space, rref
from trifourier.taumaps import (
    CircularMap,
    _validate_embedding,
    check_complement,
    close_keys,
    generic_tau,
    numbered_pair,
    preserves_form,
    push_key,
    reflection,
    rotation,
    tau,
    verify_composition_identity,
)


def e(sp, i):
    return sp.circular(i)


def test_tau_d4_cases():
    v, vp = make_space(4), make_space(2)
    t2 = tau(v, vp, 2)
    assert t2.images == (e(v, 1) ^ e(v, 2) ^ e(v, 3), e(v, 4), e(v, 5))
    t1 = tau(v, vp, 1)
    assert t1.images == (e(v, 3), e(v, 4), e(v, 5) ^ e(v, 1) ^ e(v, 2))
    t5 = tau(v, vp, 5)
    assert t5.images == (e(v, 2), e(v, 3), e(v, 4) ^ e(v, 5) ^ e(v, 1))


def test_tau_d2_zero_map():
    v, vp = make_space(2), make_space(0)
    for i in (1, 2, 3):
        assert tau(v, vp, i).images == (0,)


def test_tau_rejects_bad_index():
    v, vp = make_space(4), make_space(2)
    with pytest.raises(ValueError):
        tau(v, vp, 0)
    with pytest.raises(ValueError):
        tau(v, vp, 6)


def test_tau_prime_d6():
    vp, vpp = make_space(4), make_space(2)
    t2 = tau(vp, vpp, 2)
    assert t2.images == (e(vp, 1) ^ e(vp, 2) ^ e(vp, 3), e(vp, 4), e(vp, 5))
    t1 = tau(vp, vpp, 1)
    assert t1.images == (e(vp, 3), e(vp, 4), e(vp, 5) ^ e(vp, 1) ^ e(vp, 2))


def test_tau_prime_d4_zero_map():
    vp, vpp = make_space(2), make_space(0)
    for i in (1, 2, 3):
        assert tau(vp, vpp, i).images == (0,)


def test_tau_injective_and_form_compatible():
    # the constructor validates; make sure it actually constructs everywhere
    for dim in (4, 6, 8):
        v, vp = make_space(dim), make_space(dim - 2)
        for i in range(1, dim + 2):
            emb = tau(v, vp, i)
            assert len(rref(emb.coordinate_images())) == dim - 2
            for a in range(dim - 2):
                for b in range(dim - 2):
                    assert v.pairing(emb.images[a], emb.images[b]) == vp.pairing(1 << a, 1 << b)


def test_form_predicate_rejects_swapped_pair():
    # swapping e_1 and e_2 is injective and keeps the circular sum zero,
    # but (e_1, e_3) = 0 while (e_2, e_3) = 1
    v = make_space(4)
    swap = CircularMap(4, 4, (e(v, 2), e(v, 1), e(v, 3), e(v, 4), e(v, 5)))
    assert not preserves_form(v, swap)
    with pytest.raises(AssertionError, match="embedding is not form compatible"):
        _validate_embedding(swap, v)


def test_complement_property():
    assert check_complement(make_space(2), 1)
    for dim in (4, 6, 8):
        sp = make_space(dim)
        for i in range(1, dim + 2):
            assert check_complement(sp, i)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_composition_identity(dim):
    rep = verify_composition_identity(dim)
    assert rep.ok, rep.summary()


def test_generic_tau_reproduces_numbered_maps():
    for dim in (4, 6):
        v, vp = make_space(dim), make_space(dim - 2)
        numbered = {tau(v, vp, i).images for i in range(1, dim + 2)}
        for orientation in (1, -1):
            produced = set()
            for i in range(1, dim + 2):
                gp, g = numbered_pair(dim, i)
                emb = generic_tau(v, vp, gp, g, orientation=orientation)
                assert emb.images == tau(v, vp, i).images
                produced.add(emb.images)
            assert produced == numbered and len(produced) == dim + 1


def test_generic_tau_orientation_independent():
    # walking both circles backwards gives the identical map, for every pair
    v, vp = make_space(6), make_space(4)
    for gp in range(1, 6):
        for g in range(1, 8):
            fwd = generic_tau(v, vp, gp, g, orientation=1)
            bwd = generic_tau(v, vp, gp, g, orientation=-1)
            assert fwd.images == bwd.images


def test_generic_tau_rejects_bad_vertices():
    v, vp = make_space(6), make_space(4)
    with pytest.raises(ValueError):
        generic_tau(v, vp, 0, 1)
    with pytest.raises(ValueError):
        generic_tau(v, vp, 1, 8)
    with pytest.raises(ValueError):
        generic_tau(v, vp, 1, 1, orientation=2)


def test_table_is_apply_on_every_source_vector():
    for dim in range(2, 9, 2):
        v, vp = make_space(dim), make_space(dim - 2)
        maps = [tau(v, vp, i) for i in range(1, dim + 2)] + [rotation(v), reflection(v)]
        if dim >= 4:
            maps += [generic_tau(v, vp, gp, g) for gp in range(1, dim) for g in range(1, dim + 2)]
        for m in maps:
            t = m.table()
            assert len(t) == 2**m.src_dim
            assert all(t[x] == m.apply(x) for x in range(2**m.src_dim)), m


def test_pushed_subspace_is_image_plus_line():
    for dim in (2, 4, 6, 8):
        v, vp = make_space(dim), make_space(dim - 2)
        for i in range(1, dim + 2):
            emb = tau(v, vp, i)
            for sub in map(vp.interval_span, family_subspaces(dim - 2)):
                two_step = Subspace.span(emb.apply(row) for row in sub.rows).extend(e(v, i))
                assert Subspace(push_rows(emb.table(), sub.rows, e(v, i))) == two_step


def test_rotation_powers():
    for dim in (2, 4, 6):
        v = make_space(dim)
        r = rotation(v)
        power = CircularMap(dim, dim, v.circular_vectors())
        for k in range(dim + 2):
            assert rotation(v, k) == power
            assert rotation(v, k - (dim + 1)) == power
            power = power.compose(r)
        assert rotation(v, dim + 1).is_identity()


def test_close_rows_is_the_orbit_union():
    v = make_space(6)
    t = rotation(v).table()
    line = push_rows(t, [0b1])  # <e_2>
    orbit = {(v.circular(i),) for i in range(1, 8)}
    assert close_rows(t, [line]) == orbit
    assert close_rows(t, []) == set()
    members = [v.interval_span(key).rows for key in family_subspaces(6)]
    assert close_rows(t, members) == set(members)
    plane = rref([v.circular(1), v.circular(3)])
    assert len(close_rows(t, [plane])) == 7
    assert close_rows(reflection(v).table(), [plane]) == {plane, rref([v.circular(6), v.circular(4)])}


def test_close_keys_is_the_orbit_union():
    v = make_space(6)
    table = rotation(v).key_table()
    keys = v.interval_keys
    line = push_key(table, keys[0b1])  # <e_2>
    assert line == keys[0b10]
    orbit = {keys[v.circular(i)] for i in range(1, 8)}
    assert close_keys(table, [line]) == orbit
    assert close_keys(table, []) == set()
    members = family_subspaces(6)
    assert close_keys(table, members) == set(members)
    plane = keys[v.circular(1)] | keys[v.circular(3)]
    assert len(close_keys(table, [plane])) == 7
    assert close_keys(reflection(v).key_table(), [plane]) == {plane, keys[v.circular(6)] | keys[v.circular(4)]}
