import random

import pytest

from trifourier.gf2 import (
    IntervalLabel,
    Subspace,
    is_isotropic,
    make_space,
    rref,
    vector_from_coords,
)

from gf2_reference import all_intervals, coords_of, kernel_of, perp


def test_make_space_gram_d2():
    sp = make_space(2)
    assert [coords_of(row, 2) for row in sp.gram] == [(0, 1), (1, 0)]


def test_make_space_d0_is_zero_space():
    sp = make_space(0)
    assert sp.dim == 0 and sp.gram == ()
    assert sp.circular(1) == 0


def test_make_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_space(3)
    with pytest.raises(ValueError):
        make_space(-2)
    with pytest.raises(ValueError):
        make_space(16)


def test_pairing_adjacency_d2():
    sp = make_space(2)
    assert sp.pairings((1, 2))[0] == 1  # (e1, e2)


def test_pairing_nonadjacent_d4():
    sp = make_space(4)
    e = sp.circular
    assert sp.pairings((e(1), e(4)))[0] == 0
    # (e2, e5) by independent bilinear expansion: e5 = e1+e2+e3+e4
    expanded = sum(sp.pairings((e(2), e(j)))[0] for j in range(1, 5)) % 2
    assert sp.pairings((e(2), e(5)))[0] == expanded == 0


def test_pairing_alternating_exhaustive_d4():
    sp = make_space(4)
    for u in range(16):
        assert sp.pairings((u, u))[0] == 0


def test_pairing_bilinear_random():
    rng = random.Random(7)
    for dim in (2, 4, 6, 8):
        sp = make_space(dim)
        for _ in range(50):
            u, v, w = (rng.randrange(1 << dim) for _ in range(3))
            assert sp.pairings((u ^ v, w))[0] == (sp.pairings((u, w))[0] + sp.pairings((v, w))[0]) % 2
            assert sp.pairings((u, v))[0] == sp.pairings((v, u))[0]


def test_pairing_dimension_mismatch():
    sp = make_space(2)
    with pytest.raises(ValueError):
        sp.pairings((8, 1))[0]


def test_gram_invariants_up_to_12():
    for dim in range(0, 13, 2):
        sp = make_space(dim)
        for i in range(dim):
            assert (sp.gram[i] >> i) & 1 == 0
            for j in range(dim):
                assert (sp.gram[i] >> j) & 1 == (sp.gram[j] >> i) & 1
        assert len(rref(sp.gram)) == dim  # nondegenerate
        total = 0
        for i in range(1, dim + 1):
            total ^= sp.circular(i)
        assert total == sp.circular(dim + 1)


def test_forms_is_the_xor_of_gram_rows():
    for dim in range(0, 11, 2):
        sp = make_space(dim)
        for v in range(1 << dim):
            expect = 0
            for j in range(dim):
                if (v >> j) & 1:
                    expect ^= sp.gram[j]
            assert sp.forms[v] == expect, (dim, v)


def test_gram_inverse_inverts_forms():
    for dim in range(0, 15, 2):
        sp = make_space(dim)
        inverse = sp.gram_inverse
        assert sp.gram_inverse is inverse  # built once per space
        assert sorted(inverse) == list(range(1 << dim))
        assert all(sp.forms[inverse[x]] == x for x in range(1 << dim)), dim


def test_any_d_circular_vectors_form_basis():
    for dim in (2, 4, 6, 8, 10, 12):
        sp = make_space(dim)
        circ = sp.circular_vectors()
        for drop in range(dim + 1):
            kept = [v for k, v in enumerate(circ) if k != drop]
            assert len(rref(kept)) == dim


def test_interval_vector():
    sp2 = make_space(2)
    assert sp2.interval_vector(1, 2) == sp2.circular(3)
    assert sp2.interval_vector(2, 2) == sp2.circular(2)
    sp4 = make_space(4)
    assert sp4.interval_vector(1, 4) == sp4.circular(5)
    with pytest.raises(ValueError):
        sp4.interval_vector(0, 2)
    with pytest.raises(ValueError):
        sp4.interval_vector(2, 5)


def test_canonical_subspace_basics():
    assert Subspace.span([1, 1]) == Subspace((1,))
    assert Subspace.span([3, 2]) == Subspace.span([1, 2])
    assert Subspace.span([]) == Subspace(())


def test_canonical_subspace_retraction():
    rng = random.Random(11)
    for _ in range(100):
        dim = rng.choice((4, 6, 8))
        gens = [rng.randrange(1, 1 << dim) for _ in range(rng.randrange(1, 5))]
        sub = Subspace.span(gens)
        # random re-generating set of the same span
        vecs = list(sub.vectors())
        regen = [rng.choice(vecs[1:]) for _ in range(len(vecs))] if len(vecs) > 1 else []
        span2 = Subspace.span(regen + list(sub.rows))
        assert span2 == sub
        assert Subspace.span(sub.rows) == sub


def _gauss_jordan(vectors: list[int], dim: int) -> tuple[int, ...]:
    """Textbook elimination on coordinate lists, pivot columns taken from e_1 up."""
    rows = [list(coords_of(v, dim)) for v in vectors]
    rank = 0
    for col in range(dim):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                rows[k] = [a ^ b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return tuple(vector_from_coords(row) for row in rows[:rank])


def test_rref_matches_gauss_jordan():
    rng = random.Random(20240607)
    for _ in range(20000):
        dim = rng.randint(1, 14)
        vectors = [rng.getrandbits(dim) for _ in range(rng.randint(0, 9))]
        assert rref(vectors) == _gauss_jordan(vectors, dim), vectors


def test_subspace_contains_and_vectors():
    sub = Subspace.span([0b011, 0b110])
    assert sub.dim == 2
    assert sorted(sub.vectors()) == [0, 0b011, 0b101, 0b110]
    assert Subspace.span(sub.rows + (0b101,)) == sub and Subspace.span(sub.rows + (0b001,)) != sub


def test_subspace_membership_reduces_by_pivots():
    # the rows are (5, 6): membership is of the span, not of the tuple of rows
    sub = Subspace.span([0b011, 0b110])
    assert sub.rows == (0b101, 0b110)
    assert 0b101 in sub and 0b011 in sub and 0 in sub
    assert 0b100 not in sub and 0b001 not in sub
    rng = random.Random(25)
    for _ in range(500):
        dim = rng.randint(1, 10)
        sub = Subspace.span(rng.getrandbits(dim) for _ in range(rng.randint(0, 5)))
        members = set(sub.vectors())
        assert all((v in sub) == (v in members) for v in range(1 << dim)), sub.rows


def test_is_isotropic():
    sp = make_space(2)
    assert is_isotropic(sp, Subspace.span([1]))
    assert not is_isotropic(sp, Subspace.span([1, 2]))


def test_perp_dimensions_and_membership():
    for dim in (2, 4, 6):
        sp = make_space(dim)
        rng = random.Random(dim)
        for _ in range(20):
            gens = [rng.randrange(1 << dim) for _ in range(rng.randrange(3))]
            sub = Subspace.span(gens)
            comp = perp(sp, sub)
            assert comp.dim == dim - sub.dim
            for x in range(1 << dim):
                in_perp = all(sp.pairings((x, row))[0] == 0 for row in sub.rows)
                assert (Subspace.span(comp.rows + (x,)) == comp) == in_perp


def test_kernel_of_empty_constraints():
    assert kernel_of([], 3).dim == 3


def test_iprime_forms():
    # odd interval: printed as itself
    assert IntervalLabel(1, 1).iprime(4) == (1,)
    assert IntervalLabel(2, 4).iprime(6) == (2, 3, 4)
    # even interval: the complementary circular run
    assert IntervalLabel(3, 4).iprime(4) == (5, 1, 2)
    assert IntervalLabel(1, 4).iprime(4) == (5,)
    assert IntervalLabel(2, 5).iprime(6) == (6, 7, 1)


def test_iprime_always_odd_and_circular():
    for dim in (2, 4, 6, 8):
        for lab in all_intervals(dim):
            run = lab.iprime(dim)
            assert len(run) % 2 == 1
            for a, b in zip(run, run[1:]):
                assert b == a % (dim + 1) + 1


def test_vector_from_coords_roundtrip():
    assert vector_from_coords((1, 0, 1)) == 0b101
    assert coords_of(0b101, 3) == (1, 0, 1)
