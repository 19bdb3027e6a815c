import pytest

from gf2_reference import close_rows, push_rows, table, tau_by_cases

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
    v = make_space(4)
    t2 = tau(v, 2)
    assert t2.images == (e(v, 1) ^ e(v, 2) ^ e(v, 3), e(v, 4), e(v, 5))
    t1 = tau(v, 1)
    assert t1.images == (e(v, 3), e(v, 4), e(v, 5) ^ e(v, 1) ^ e(v, 2))
    t5 = tau(v, 5)
    assert t5.images == (e(v, 2), e(v, 3), e(v, 4) ^ e(v, 5) ^ e(v, 1))


def test_tau_d2_zero_map():
    v = make_space(2)
    for i in (1, 2, 3):
        assert tau(v, i).images == (0,)


def test_tau_rejects_bad_index():
    v = make_space(4)
    with pytest.raises(ValueError):
        tau(v, 0)
    with pytest.raises(ValueError):
        tau(v, 6)
    with pytest.raises(ValueError):
        tau(make_space(0), 1)


def test_tau_prime_d6():
    vp = make_space(4)
    t2 = tau(vp, 2)
    assert t2.images == (e(vp, 1) ^ e(vp, 2) ^ e(vp, 3), e(vp, 4), e(vp, 5))
    t1 = tau(vp, 1)
    assert t1.images == (e(vp, 3), e(vp, 4), e(vp, 5) ^ e(vp, 1) ^ e(vp, 2))


def test_tau_prime_d4_zero_map():
    vp = make_space(2)
    for i in (1, 2, 3):
        assert tau(vp, i).images == (0,)


def test_tau_injective_and_form_compatible():
    # the constructor validates; make sure it actually constructs everywhere
    for dim in (4, 6, 8):
        v, vp = make_space(dim), make_space(dim - 2)
        for i in range(1, dim + 2):
            emb = tau(v, i)
            assert (emb.src_dim, emb.dst_dim) == (dim - 2, dim)
            assert len(rref(emb.coordinate_images())) == dim - 2
            for a in range(dim - 2):
                for b in range(dim - 2):
                    assert v.pairings((emb.images[a], emb.images[b]))[0] == vp.pairings((1 << a, 1 << b))[0]


def test_form_predicate_rejects_swapped_pair():
    # swapping e_1 and e_2 is injective and keeps the circular sum zero,
    # but (e_1, e_3) = 0 while (e_2, e_3) = 1
    v = make_space(4)
    swap = CircularMap(4, 4, (e(v, 2), e(v, 1), e(v, 3), e(v, 4), e(v, 5)))
    assert not preserves_form(v, swap)
    with pytest.raises(AssertionError, match="embedding is not form compatible"):
        _validate_embedding(swap, v)


def test_complement_property():
    sp = make_space(2)
    assert check_complement(sp, tau(sp, 1), 1)
    for dim in (4, 6, 8):
        sp = make_space(dim)
        for i in range(1, dim + 2):
            assert check_complement(sp, tau(sp, i), i)


def test_complement_check_matches_its_definition():
    for dim in (2, 4, 6, 8):
        sp = make_space(dim)
        for i in range(1, dim + 2):
            image = Subspace.span(tau(sp, i).coordinate_images())
            ei = sp.circular(i)
            perp_line = Subspace.span(x for x in range(1 << dim) if sp.pairings((x, ei))[0] == 0)
            extended = Subspace.span(image.rows + (ei,))
            assert extended != image and extended == perp_line
            assert check_complement(sp, tau(sp, i), i)
    # at D = 4 the perp of e_1 is {x : x_2 = 0}, spanned by e_1, e_3 and e_4
    sp = make_space(4)
    e = sp.circular
    for images, expected in (((e(3), e(4)), True), ((e(1), e(3)), False), ((e(2), e(3)), False)):
        fake = CircularMap(2, 4, (*images, images[0] ^ images[1]))
        assert check_complement(sp, fake, 1) is expected, images


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_composition_identity(dim):
    rep = verify_composition_identity(dim)
    assert rep.ok, rep.summary()


def test_generic_tau_reproduces_numbered_maps():
    for dim in (4, 6):
        v = make_space(dim)
        produced = set()
        for i in range(1, dim + 2):
            emb = generic_tau(v, *numbered_pair(dim, i))
            assert emb.images == tau(v, i).images
            produced.add(emb.images)
        assert len(produced) == dim + 1


@pytest.mark.parametrize("dim", range(2, 15, 2))
def test_tau_matches_the_three_case_formula(dim):
    v = make_space(dim)
    for i in range(1, dim + 2):
        assert tau(v, i).images == tau_by_cases(v, i), i


def _backward_walk(space, gamma_p, gamma):
    """The pair's embedding with both circles walked backwards from the chosen vertices."""
    n_src = space.dim - 1
    images = [0] * n_src
    images[gamma_p - 1] = space.circular(gamma - 1) ^ space.circular(gamma) ^ space.circular(gamma + 1)
    for k in range(1, n_src):
        images[(gamma_p - 1 - k) % n_src] = space.circular(gamma - 1 - k)
    return CircularMap(space.dim - 2, space.dim, tuple(images))


@pytest.mark.parametrize("dim", range(2, 15, 2))
def test_generic_tau_matches_the_backward_walk(dim):
    # walking both circles backwards gives the identical map, for every pair, and each
    # walk is an embedding: generic_tau itself does not validate what it returns
    v = make_space(dim)
    for gp in range(1, dim):
        for g in range(1, dim + 2):
            emb = generic_tau(v, gp, g)
            assert emb.images == _backward_walk(v, gp, g).images, (gp, g)
            _validate_embedding(emb, v)


def test_generic_tau_rejects_bad_vertices():
    v = make_space(6)
    with pytest.raises(ValueError):
        generic_tau(v, 0, 1)
    with pytest.raises(ValueError):
        generic_tau(v, 1, 8)
    with pytest.raises(ValueError):
        generic_tau(make_space(0), 1, 1)


def test_table_is_apply_on_every_source_vector():
    for dim in range(2, 9, 2):
        v = make_space(dim)
        maps = [tau(v, i) for i in range(1, dim + 2)] + [rotation(v), reflection(v)]
        maps += [generic_tau(v, gp, g) for gp in range(1, dim) for g in range(1, dim + 2)]
        for m in maps:
            t = table(m)
            assert len(t) == 2**m.src_dim
            assert all(t[x] == m.apply(x) for x in range(2**m.src_dim)), m


def test_pushed_subspace_is_image_plus_line():
    for dim in (2, 4, 6, 8):
        v, vp = make_space(dim), make_space(dim - 2)
        for i in range(1, dim + 2):
            emb = tau(v, i)
            for sub in map(vp.interval_span, family_subspaces(dim - 2)):
                two_step = Subspace.span([*(emb.apply(row) for row in sub.rows), e(v, i)])
                assert Subspace(push_rows(table(emb), sub.rows, e(v, i))) == two_step


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
    t = table(rotation(v))
    line = push_rows(t, [0b1])  # <e_2>
    orbit = {(v.circular(i),) for i in range(1, 8)}
    assert close_rows(t, [line]) == orbit
    assert close_rows(t, []) == set()
    members = [v.interval_span(key).rows for key in family_subspaces(6)]
    assert close_rows(t, members) == set(members)
    plane = rref([v.circular(1), v.circular(3)])
    assert len(close_rows(t, [plane])) == 7
    assert close_rows(table(reflection(v)), [plane]) == {plane, rref([v.circular(6), v.circular(4)])}


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
