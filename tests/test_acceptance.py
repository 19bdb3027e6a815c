"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import json
import time
from fractions import Fraction

from trifourier.cyclotomic import Cyc
from trifourier.dihedral import verify_embedding_equivariance, verify_family_stability, verify_relations
from trifourier.family import (
    build_family,
    family_subspaces,
    family_subspaces_prime,
    family_subspaces_ucb,
    fiber_lines,
    verify_counts,
)
from trifourier.fourier import (
    change_of_basis,
    phi,
    verify_change_of_basis,
    verify_z_commutation,
)
from trifourier.gf2 import Subspace, make_space, rref
from trifourier.nonabelian import (
    MPair,
    hyperplane_check,
    load_basis,
    mdata,
    nonabelian_ft,
    s3_new_basis,
    verify_triangular,
)
from trifourier.packed import conj_coeffs
from trifourier.taumaps import check_complement, tau, verify_composition_identity

from gf2_reference import characteristic, dense_z_commutation, signed_binomial_sum
from nonabelian_reference import apply_columns, new_basis_to_json
from test_family import REFERENCE_TABLE_D2, REFERENCE_TABLE_D4, REFERENCE_TABLE_D6, fiber_set

GOLDEN_D6_LINES = [
    "∅,<7>,<7,671>,<7,671,56712>",
    "<1>,<1,712>,<1,712,67123>",
    "<2>,<2,7>,<2,7,67123>",
    "<3>,<3,7>,<3,7,671>",
    "<4>,<4,7>,<4,7,671>",
    "<5>,<5,7>,<5,7,45671>",
    "<6>,<6,567>,<6,567,45671>",
    "<1,3>,<1,3,71234>",
    "<1,4>,<1,4,712>",
    "<1,5>,<1,5,712>",
    "<1,6>,<1,6,56712>",
    "<2,4>,<2,4,7>",
    "<2,5>,<2,5,7>",
    "<2,6>,<2,6,567>",
    "<3,5>,<3,5,7>",
    "<3,6>,<3,6,567>",
    "<2,123>,<2,123,71234>",
    "<4,6>,<4,6,34567>",
    "<3,234>,<3,7,234>",
    "<4,345>,<4,7,345>",
    "<5,456>,<5,456,34567>",
    "<1,3,5>",
    "<1,3,6>",
    "<1,4,6>",
    "<1,4,345>",
    "<1,5,456>",
    "<2,4,6>",
    "<2,5,456>",
    "<2,5,123>",
    "<2,6,123>",
    "<3,6,234>",
    "<3,234,12345>",
    "<2,4,12345>",
    "<4,345,23456>",
    "<3,5,23456>",
]


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num} [{text}]: PASS")


def test_criterion_1_worked_example_dim2():
    fam = build_family(2)
    cob = change_of_basis(fam)
    assert [cob.entry(i, i) for i in range(4)] == [Fraction(-1), Fraction(1), Fraction(1), Fraction(1)]
    # the two displayed images, recomputed from the raw transform
    sp = fam.space
    f0 = characteristic(sp, [0])
    pairs = {x: characteristic(sp, Subspace.span([x])) for x in (1, 2, 3)}
    for fx in pairs.values():
        assert phi(sp, fx) == [Fraction(v) for v in fx]
    image = phi(sp, f0)
    half_sum = [Fraction(sum(col), 2) for col in zip(*pairs.values())]
    assert image == [-Fraction(a) + b for a, b in zip(f0, half_sum)]
    # and as rows of the change-of-basis matrix
    assert [cob.entry(0, c) for c in range(4)] == [Fraction(-1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]
    for r in (1, 2, 3):
        assert [cob.entry(r, c) for c in range(4)] == [Fraction(int(r == c)) for c in range(4)]
    _ok(1, "dim-2 worked example, diagonal (-1,1,1,1)")


def test_criterion_2_tables():
    for dim, reference in ((2, REFERENCE_TABLE_D2), (4, REFERENCE_TABLE_D4), (6, REFERENCE_TABLE_D6)):
        lines = fiber_lines(build_family(dim))
        assert fiber_set(lines) == fiber_set(reference), f"fiber sets differ at D={dim}"
    assert fiber_lines(build_family(2)) == REFERENCE_TABLE_D2
    assert fiber_lines(build_family(4)) == REFERENCE_TABLE_D4
    assert fiber_lines(build_family(6)) == GOLDEN_D6_LINES
    _ok(2, "tables D=2,4,6 as fiber sets; compact rendering byte-exact")


def test_criterion_3_triangularity_and_signs():
    from trifourier.family import delta

    for dim in (2, 4, 6, 8, 10):
        start = time.time()
        fam = build_family(dim)
        cob = change_of_basis(fam)  # verify derives a complete peel order: det = +-1
        rep = verify_change_of_basis(cob)
        assert rep.ok, f"D={dim}: {rep.summary()}"
        d = fam.half
        dims = [e.dim for e in fam.entries]
        for i in range(len(fam)):
            assert cob.entry(i, i) == delta(d - dims[i])
            for j in cob.num[i]:
                if i != j:
                    assert dims[j] > dims[i]
        assert cob.trace() == 2**d
        plus = sum(1 for i in range(len(fam)) if cob.entry(i, i) == 1)
        assert plus == 2 ** (dim - 1) + 2 ** (d - 1)
        elapsed = time.time() - start
        limit = 600 if dim == 10 else 5
        assert elapsed < limit, f"D={dim} took {elapsed:.1f}s"
    _ok(3, "det=+-1, triangular, diagonal law, trace, eigenvalue count, D=2..10")


def test_criterion_4_counting_identities():
    from math import comb

    for dim in (0, 2, 4, 6, 8):
        fam = build_family(dim)
        d = dim // 2
        for k in range(d + 1):
            assert sum(e.dim == k for e in fam.entries) == comb(dim + 1, k)
            assert len(fam.by_n(k)) == comb(dim + 1, d - k)
        assert verify_counts(fam).ok
    for d in range(17):
        assert signed_binomial_sum(d) == 2**d
    _ok(4, "counting identities D<=8 and signed binomial identity d<=16")


def test_criterion_5_family_equivalences():
    for dim in (0, 2, 4, 6, 8):
        std = family_subspaces(dim)
        assert family_subspaces_prime(dim) == std, f"variant recursion differs at D={dim}"
        assert family_subspaces_ucb(dim) == std, f"graph recursion differs at D={dim}"
    _ok(5, "three family recursions agree, D=0..8")


def test_criterion_6_structural_maps():
    for dim in (4, 6, 8):
        v = make_space(dim)
        for i in range(1, dim + 2):
            emb = tau(v, i)  # constructor validates injectivity + form
            assert len(rref(emb.coordinate_images())) == dim - 2
    for dim in (2, 4, 6, 8):
        sp = make_space(dim)
        for i in range(1, dim + 2):
            assert check_complement(sp, tau(sp, i), i)
    for dim in (4, 6, 8):
        rep = verify_composition_identity(dim)
        assert rep.ok, rep.summary()
    for dim in (4, 6):
        # G Z = 2 Z G' by the dense product, and by the lemma on the maps and Gram tables
        for rep in (dense_z_commutation(dim), verify_z_commutation(dim)):
            assert rep.ok, rep.summary()
    for dim in (2, 4, 6, 8):
        assert verify_relations(make_space(dim)).ok
        assert verify_family_stability(build_family(dim)).ok
        assert verify_embedding_equivariance(dim).ok
    _ok(6, "embeddings, complements, compositions, z-commutation, dihedral action")


def test_criterion_7_smallest_group():
    ft = nonabelian_ft("s3")
    assert ft.is_involution() and ft.is_symmetric()
    row = dict(zip(ft.mdata.pairs, ft.matrix[ft.mdata.index[MPair("1", "1")]]))
    expect = {
        ("1", "1"): Fraction(1, 6), ("1", "r"): Fraction(1, 3), ("1", "eps"): Fraction(1, 6),
        ("g2", "1"): Fraction(1, 2), ("g2", "eps"): Fraction(1, 2),
        ("g3", "1"): Fraction(1, 3), ("g3", "theta"): Fraction(1, 3), ("g3", "theta2"): Fraction(1, 3),
    }
    assert {(p.x, p.rho): v.to_rational() for p, v in row.items()} == expect
    coeffs = [0] * 8
    coeffs[ft.mdata.index[MPair("1", "1")]] = 1
    coeffs[ft.mdata.index[MPair("1", "r")]] = 1
    image = apply_columns(ft, coeffs)
    got = {(p.x, p.rho): v.to_rational() for p, v in zip(ft.mdata.pairs, image)}
    assert got == {
        ("1", "1"): Fraction(1, 2), ("1", "r"): Fraction(1), ("1", "eps"): Fraction(1, 2),
        ("g2", "1"): Fraction(1, 2), ("g2", "eps"): Fraction(1, 2),
        ("g3", "1"): Fraction(0), ("g3", "theta"): Fraction(0), ("g3", "theta2"): Fraction(0),
    }
    for variant in ("g2", "e"):
        rep = verify_triangular(ft, s3_new_basis(variant))
        assert rep.ok, rep.summary()
    _ok(7, "rows match, both basis variants triangular with signs -1,-1,1")


def test_criterion_8_larger_groups():
    for name in ("s4", "s5"):
        mdata(name).validate_tables()
        ft = nonabelian_ft(name)
        assert ft.is_symmetric()
        assert ft.is_involution()
    ft5 = nonabelian_ft("s5")
    assert ft5.trace().is_rational() and ft5.trace().to_rational() == 13
    assert all(Cyc(conj_coeffs(v.num), v.den) == v for row in ft5.matrix for v in row)
    assert hyperplane_check(ft5).ok
    _ok(8, "larger groups: symmetric, involutive, trace 13, hyperplane, orthogonality")


def test_criterion_9_verify_basis_pathway():
    # a valid unimodular file round-trips to a certificate
    doc = new_basis_to_json(s3_new_basis("g2"))
    loaded = load_basis(json.loads(json.dumps(doc)))
    rep = verify_triangular(nonabelian_ft("s3"), loaded)
    assert rep.ok, rep.summary()
    # deliberately corrupted bases must fail with a pinpointed check
    broken = s3_new_basis("g2")
    broken.matrix[0] = [2 * v for v in broken.matrix[0]]
    rep_bad = verify_triangular(nonabelian_ft("s3"), broken)
    assert not rep_bad.ok
    assert any(c.check_id == "unimodular" and not c.ok for c in rep_bad.checks)
    md = nonabelian_ft("s3").mdata
    flat = s3_new_basis("g2")
    j = md.index[MPair("1", "eps")]
    for i in range(8):
        flat.matrix[i][j] = 1 if i == j else 0
    rep_flat = verify_triangular(nonabelian_ft("s3"), flat)
    assert not rep_flat.ok
    first = next(c for c in rep_flat.checks if not c.ok)
    assert first.check_id == "triangular" and "hat" in first.details
    _ok(9, "verify-basis pathway certifies good bases and pinpoints corrupted ones")
