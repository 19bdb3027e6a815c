import json
import random
import re

import pytest
from gf2_reference import (
    all_intervals,
    family_subspaces_by_rows,
    interval_basis,
    interval_basis_by_enumeration,
    nested_interval_subspace,
    push_rows,
    signed_binomial_sum,
    table as row_table,
)
from ucb_reference import ucb_all_pairs

import trifourier.family as family_module
from trifourier import taumaps
from trifourier.cli import run_suite
from trifourier.family import (
    Family,
    FamilyStructureError,
    build_family,
    delta,
    entry_compact,
    family_subspaces,
    family_subspaces_prime,
    family_subspaces_ucb,
    family_to_json,
    fiber_lines,
    is_interval_basis,
    pushes,
    verify_counts,
    verify_structure,
)
from trifourier.fourier import expansion_rows, push_up, zero_row_solve
from trifourier.gf2 import Subspace, back_substitute, bits_of, is_isotropic, make_space
from trifourier.taumaps import CircularMap, _validate_embedding, generic_tau, push_key, reflection, rotation, tau

# Known fiber decompositions, one line per fiber, members ordered by the
# even-interval count.  Line order is immaterial; each line is significant.
REFERENCE_TABLE_D2 = [
    "∅,<3>",
    "<1>",
    "<2>",
]

REFERENCE_TABLE_D4 = [
    "∅,<5>,<5,451>",
    "<1>,<1,512>",
    "<2>,<2,5>",
    "<3>,<3,5>",
    "<4>,<4,345>",
    "<1,3>",
    "<1,4>",
    "<2,4>",
    "<2,123>",
    "<3,234>",
]

REFERENCE_TABLE_D6 = [
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
    "<4,6>,<4,6,34567>",
    "<2,123>,<2,123,71234>",
    "<3,234>,<3,7,234>",
    "<4,345>,<4,7,345>",
    "<5,456>,<5,456,34567>",
    "<1,3,5>",
    "<1,3,6>",
    "<1,4,6>",
    "<2,4,6>",
    "<1,4,345>",
    "<1,5,456>",
    "<2,5,123>",
    "<2,5,456>",
    "<2,6,123>",
    "<3,6,234>",
    "<2,4,12345>",
    "<3,5,23456>",
    "<3,234,12345>",
    "<4,345,23456>",
]


def parse_member(token: str) -> frozenset:
    if token == "∅":
        return frozenset()
    assert token.startswith("<") and token.endswith(">")
    return frozenset(frozenset(int(ch) for ch in part) for part in token[1:-1].split(","))


def parse_line(line: str) -> tuple:
    out = []
    depth_token = ""
    for chunk in line.split(","):
        if depth_token:
            depth_token += "," + chunk
        else:
            depth_token = chunk
        if depth_token == "∅" or depth_token.endswith(">"):
            out.append(parse_member(depth_token))
            depth_token = ""
    assert not depth_token
    return tuple(out)


def fiber_set(lines) -> frozenset:
    return frozenset(parse_line(line) for line in lines)


def test_delta_values():
    assert [delta(n) for n in range(5)] == [1, -1, -1, 1, 1]
    with pytest.raises(ValueError):
        delta(-1)


def test_family_d0():
    fam = build_family(0)
    assert len(fam) == 1 and fam.entries[0].subspace == Subspace(())


def test_family_d2_members():
    fam = build_family(2)
    assert {e.subspace for e in fam.entries} == {
        Subspace(()),
        Subspace.span([0b01]),
        Subspace.span([0b10]),
        Subspace.span([0b11]),
    }


@pytest.mark.parametrize(
    "dim,reference",
    [(2, REFERENCE_TABLE_D2), (4, REFERENCE_TABLE_D4), (6, REFERENCE_TABLE_D6)],
)
def test_tables_match_reference(dim, reference):
    fam = build_family(dim)
    assert fiber_set(fiber_lines(fam)) == fiber_set(reference)


def test_fiber_lines_byte_golden_d2_d4():
    assert fiber_lines(build_family(2)) == REFERENCE_TABLE_D2
    assert fiber_lines(build_family(4)) == REFERENCE_TABLE_D4


def test_family_sizes():
    for dim in (0, 2, 4, 6, 8, 10, 12):
        assert len(family_subspaces(dim)) == 2**dim


def test_family_isotropic_bruteforce_d4():
    # independent oracle: the pairing vanishes on all element pairs
    fam = build_family(4)
    sp = fam.space
    for ent in fam.entries:
        vecs = list(ent.subspace.vectors())
        assert all(sp.pairings((u, v))[0] == 0 for u in vecs for v in vecs)


def test_interval_basis_examples():
    sp = make_space(4)
    sub = Subspace.span([0b00001, 0b01100])  # e1 and e3+e4
    labs = interval_basis(sp, sub)
    assert [(l.a, l.b) for l in labs] == [(1, 1), (3, 4)]
    assert interval_basis(sp, Subspace(())) == ()
    e2 = nested_interval_subspace(sp, 2)
    assert [(l.a, l.b) for l in interval_basis(sp, e2)] == [(1, 4), (2, 3)]


def test_interval_basis_rejects_non_member():
    sp = make_space(4)
    with pytest.raises(FamilyStructureError):
        interval_basis(sp, Subspace.span([0b0101]))  # e1+e3: no interval vectors
    # e_[1,1], e_[2,2] and e_[1,2] lie in one plane: its interval basis is not unique
    with pytest.raises(FamilyStructureError, match="contains 3 interval vectors, dim=2"):
        interval_basis(sp, Subspace.span([0b0001, 0b0010]))
    # at D = 6, e_[1,1], e_[2,2] and e_[1,2] are the only interval vectors of
    # <e1, e2, e3+e5>: as many as its dimension, but dependent
    with pytest.raises(FamilyStructureError, match="dependent"):
        interval_basis(make_space(6), Subspace.span([0b000001, 0b000010, 0b010100]))


def test_fibers_d4():
    fam = build_family(4)
    zero_fiber = fam.fibers[next(e for e in fam.entries if e.subspace == Subspace(())).fiber_index]
    labels = [entry_compact(fam.entries[m], 4) for m in zero_fiber.members]
    assert labels == ["∅", "<5>", "<5,451>"]
    assert [fam.entries[m].n_even for m in zero_fiber.members] == [0, 1, 2]
    e2 = Subspace.span([0b00010])
    fib = fam.fibers[next(e for e in fam.entries if e.subspace == e2).fiber_index]
    assert [entry_compact(fam.entries[m], 4) for m in fib.members] == ["<2>", "<2,5>"]


def test_fiber_singleton_d2():
    fam = build_family(2)
    ent = next(e for e in fam.entries if e.subspace == Subspace.span([0b01]))
    assert len(fam.fibers[ent.fiber_index].members) == 1
    assert ent.kappa_index == ent.index


def test_kappa_examples():
    fam2 = build_family(2)
    zero = next(e for e in fam2.entries if e.subspace == Subspace(()))
    line3 = next(e for e in fam2.entries if e.subspace == Subspace.span([0b11]))
    assert zero.kappa_index == line3.index
    assert line3.kappa_index == zero.index
    fam4 = build_family(4)
    e2 = Subspace.span([0b00010])
    e2_5 = Subspace.span([0b00010, 0b01111])
    assert fam4.entries[next(e for e in fam4.entries if e.subspace == e2_5).kappa_index].subspace == e2


def test_kappa_involution_and_grading():
    for dim in (2, 4, 6, 8):
        fam = build_family(dim)
        rep = verify_structure(fam)
        assert rep.ok, rep.summary()


@pytest.mark.parametrize("dim", [4, 8])
def test_isotropy_is_one_check_naming_the_first_failing_member(dim, monkeypatch):
    fam = build_family(dim)
    bad = fam.entries[len(fam) // 3]
    real = family_module.is_isotropic
    monkeypatch.setattr(family_module, "is_isotropic", lambda sp, sub: sub != bad.subspace and real(sp, sub))
    lines = run_suite(dim, "family").summary().splitlines()
    failing = [line for line in lines if line.startswith("[FAIL]")]
    assert failing == [f"[FAIL] structure D={dim}:isotropic: member {bad.index}: rows {bad.subspace.rows}"]
    assert not any("isotropic[" in line for line in lines)


def _replace_key(monkeypatch, fam, old, new):
    monkeypatch.setattr(fam, "keys", tuple(new if key == old else key for key in fam.keys))


def _first_interval(fam, even):
    return 1 << next(k for k, lab in enumerate(fam.space.intervals) if lab.is_even == even)


def _tally_dim(monkeypatch, fam):
    # the zero member's key read as one odd interval: no member of dimension 0
    _replace_key(monkeypatch, fam, 0, _first_interval(fam, even=False))


def _tally_ncount(monkeypatch, fam):
    # a line on an odd interval read as one on an even interval: the dimensions hold,
    # one fewer member has even count 0
    line = next(key for key in fam.keys if key.bit_count() == 1 and key & fam.odd)
    _replace_key(monkeypatch, fam, line, _first_interval(fam, even=True))


def _cross_kappa(monkeypatch, fam):
    # two kappa pairs crossed: still an involution, but the zero member now meets a
    # member of dimension d - 1
    a, b = fam.by_n(0)[0], fam.by_n(1)[0]
    x, y = fam.entries[a.kappa_index], fam.entries[b.kappa_index]
    for ent, image in ((a, y), (y, a), (b, x), (x, b)):
        monkeypatch.setattr(ent, "kappa_index", image.index)


def _fake_tau(module, dim, i, fake):
    """A breaker that makes `module.tau` give fake(real tau, space) for tau_i at D = dim."""

    def apply(monkeypatch, fam):
        real = module.tau
        monkeypatch.setattr(module, "tau", lambda sp, j: fake(real, sp) if (sp.dim, j) == (dim, i) else real(sp, j))

    return apply


def _off_last_image(j):
    """A fake: tau_j with e_1 added to its image of e'_(D-1), which the key table and
    the coordinate images do not read."""

    def fake(real, sp):
        t = real(sp, j)
        return CircularMap(t.src_dim, t.dst_dim, (*t.images[:-1], t.images[-1] ^ 1))

    return fake


# Each breaks one index of one grouped check at D = 8; the check is one line that names it.
# No tau map breaks S-tau alone: R tau_i = tau_(i+1) R' reads every image of every tau_i.
GROUPED_FAILURES = {
    "dim": ("counts", _tally_dim, [("counts D=8:dim", "k=0: 0 != C(9,0)")]),
    "ncount": ("counts", _tally_ncount, [("counts D=8:ncount", "n=0: 125 != C(9,4)")]),
    "kappa-dim": ("family", _cross_kappa, [("structure D=8:kappa-dim", "n=0 -> dim 4: dims seen: {3, 4}")]),
    # tau_1 is read only by the composition i = 1, j = 1
    "matrix": (
        "family",
        _fake_tau(taumaps, 8, 1, lambda real, sp: real(sp, 3)),
        [("composition-identity D=8:matrix", "i=1 j=1: lhs=(8, 16, 32, 64) rhs=(14, 16, 32, 64)")],
    ),
    # tau_1 and tau_2 agree on the image of tau'_7: the compositions hold, the subspaces do not
    "subspaces": (
        "family",
        _fake_tau(taumaps, 8, 2, lambda real, sp: real(sp, 1)),
        [("composition-identity D=8:subspaces", "i=1: 16 violating members, first=[Subspace(rows=())]")],
    ),
    # tau_9 S' still commutes with S as tau_9 does, but R tau_8 = tau_9 fails
    "R-tau": (
        "dihedral",
        _fake_tau(taumaps, 8, 9, lambda real, sp: real(sp, 9).compose(reflection(make_space(6)))),
        [("embedding-equivariance D=8:R-tau", "i=8")],
    ),
    "S-tau": (
        "dihedral",
        # R tau_3 and S tau_3 read the last image, the relations with tau_3 on the right
        # read only its coordinate images
        _fake_tau(taumaps, 8, 3, _off_last_image(3)),
        [("embedding-equivariance D=8:R-tau", "i=3"), ("embedding-equivariance D=8:S-tau", "i=3")],
    ),
}


@pytest.mark.parametrize("check", sorted(GROUPED_FAILURES))
def test_grouped_check_names_the_first_failing_index(check, monkeypatch):
    suite, breaker, expected = GROUPED_FAILURES[check]
    breaker(monkeypatch, build_family(8))
    assert [(c.check_id, c.details) for c in run_suite(8, suite).checks if not c.ok] == expected


# -- the recursion step: family.pushes -----------------------------------------------

RECURSION_CACHES = (
    pushes, family_subspaces, family_subspaces_prime, family_subspaces_ucb, build_family, expansion_rows, zero_row_solve
)


def _clear_recursion_caches():
    for cached in RECURSION_CACHES:
        cached.cache_clear()


@pytest.fixture
def cold_recursion():
    """Every cached recursion result cleared before the test and after it."""
    _clear_recursion_caches()
    yield
    _clear_recursion_caches()


def test_a_map_substituted_in_taumaps_reaches_every_check_and_no_recursion(monkeypatch, cold_recursion):
    # Every check that reads tau_3 at D = 8 reads taumaps.tau; the recursions read the
    # maps through family.pushes alone, so they build what they build unpatched.
    unpatched = [family_subspaces(8), family_subspaces_prime(8), [pushes(8, i) for i in range(1, 10)]]
    rows = {key: dict(row) for key, row in expansion_rows(8).items()}
    _clear_recursion_caches()
    # tau_2 off its last image in place of tau_3: its key table is tau_2's, its image
    # no complement of e_3, and the zero sum and the form are broken
    _fake_tau(taumaps, 8, 3, _off_last_image(2))(monkeypatch, None)
    assert [(c.check_id, c.details) for c in run_suite(8, "all").checks if not c.ok] == [
        ("composition-identity D=8:matrix", "i=2 j=3: lhs=(14, 16, 32, 64) rhs=(8, 16, 32, 64)"),
        ("composition-identity D=8:subspaces", "i=2: 10 violating members, first=[Subspace(rows=(1, 4))]"),
        ("embedding-equivariance D=8:R-tau", "i=2"),
        ("embedding-equivariance D=8:S-tau", "i=3"),
        ("change-of-basis D=8:lemma:preserves-form", "tau_3 D=8"),
        ("change-of-basis D=8:lemma:complement", "tau_3 D=8"),
    ]
    assert [family_subspaces(8), family_subspaces_prime(8), [pushes(8, i) for i in range(1, 10)]] == unpatched
    assert expansion_rows(8) == rows


@pytest.mark.parametrize("dim", range(2, 13, 2))
def test_pushes_are_the_direct_push(dim):
    space = make_space(dim)
    for i in range(1, dim + 2):
        table, ei = tau(space, i).key_table(), space.interval_keys[space.circular(i)]
        assert pushes(dim, i) == {key: push_key(table, key, ei) for key in family_subspaces(dim - 2)}, i


def test_each_push_is_made_once(cold_recursion):
    # the standard recursion, the prime recursion and the change of basis share one
    # push per level k = 2..8 and map i = 1..k+1
    run_suite(8, "all")
    assert pushes.cache_info().misses == 3 + 5 + 7 + 9


def _off_the_perp(real, sp):
    # tau_3 with e_4 added to its image of e'_1: (e_4, e_3) = 1
    t = real(sp, 3)
    return CircularMap(t.src_dim, t.dst_dim, (t.images[0] ^ sp.circular(4), *t.images[1:]))


def test_a_map_off_the_perp_stops_the_step(monkeypatch, cold_recursion):
    below = expansion_rows(4)
    _fake_tau(family_module, 6, 3, _off_the_perp)(monkeypatch, None)
    message = re.escape("the image of tau_3 at D=6 is not a complement of e_3 in its perp")
    with pytest.raises(FamilyStructureError, match=message):
        family_subspaces(6)
    with pytest.raises(FamilyStructureError, match=message):
        push_up(6, below)


def test_verify_all_reports_each_fact_once():
    # every per-index run is one line and no check depends on D alone: one report size
    sizes = set()
    for dim in range(4, 13, 2):
        ids = [c.check_id for c in run_suite(dim, "all").checks]
        assert len(set(ids)) == len(ids), ids
        sizes.add(len(ids))
    assert len(sizes) == 1, sizes


def test_shriek_properties():
    for dim in (2, 4, 6):
        fam = build_family(dim)
        for ent in fam.entries:
            sh = fam.entries[ent.shriek_index]
            assert sh.n_even == 0
            odd = [l for l in ent.intervals if not l.is_even]
            assert sh.dim == len(odd)


def test_counts():
    for dim in (2, 4, 6, 8):
        rep = verify_counts(build_family(dim))
        assert rep.ok, rep.summary()


def test_signed_binomial_values():
    # d=2: -1 - 5 + 10 = 4
    assert delta(2) * 1 + delta(1) * 5 + delta(0) * 10 == 4
    for d in range(17):
        assert signed_binomial_sum(d) == 2**d


def test_family_variants_agree():
    for dim in (0, 2, 4, 6, 8, 10, 12):
        std = family_subspaces(dim)
        assert family_subspaces_prime(dim) == std
        assert family_subspaces_ucb(dim) == std


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_ucb_matches_all_pairs_reference(dim):
    assert set(map(make_space(dim).interval_span, family_subspaces_ucb(dim))) == ucb_all_pairs(dim)


@pytest.mark.parametrize("dim", range(4, 13, 2))
def test_ucb_pair_factorisation(dim):
    # every pair's embedding is R^(gamma-1) . T_11 . rho^-(gamma'-1), and R^(gamma-1) e_1 = e_gamma
    space, sub_space = make_space(dim), make_space(dim - 2)
    t11 = generic_tau(space, 1, 1)
    for gamma_p in range(1, dim):
        for gamma in range(1, dim + 2):
            r = rotation(space, gamma - 1)
            factored = r.compose(t11).compose(rotation(sub_space, -(gamma_p - 1)))
            assert generic_tau(space, gamma_p, gamma) == factored, (gamma_p, gamma)
            assert r.apply(space.circular(1)) == space.circular(gamma)


def _opposite_walk(space, gamma_p, gamma):
    """The pair's embedding with the two circles walked in opposite directions."""
    n_src = space.dim - 1
    images = [0] * n_src
    images[gamma_p - 1] = space.circular(gamma - 1) ^ space.circular(gamma) ^ space.circular(gamma + 1)
    for k in range(1, n_src):
        images[(gamma_p - 1 + k) % n_src] = space.circular(gamma - 1 - k)
    return CircularMap(space.dim - 2, space.dim, tuple(images))


def _non_injective_walk(space, gamma_p, gamma):
    """The pair's walk with its second source coordinate sent where its first goes; zero sum kept."""
    coords = list(generic_tau(space, gamma_p, gamma).coordinate_images())
    coords[1] = coords[0]
    last = 0
    for img in coords:
        last ^= img
    return CircularMap(space.dim - 2, space.dim, (*coords, last))


def _ucb_with_pair_walk(monkeypatch, dim, bad, walk):
    """family_subspaces_ucb(dim) with the pair `bad`'s walk at D = dim replaced by walk(space, *bad)."""
    real = family_module.generic_tau

    def patched(space, gamma_p, gamma):
        if space.dim == dim and (gamma_p, gamma) == bad:
            return walk(space, gamma_p, gamma)
        return real(space, gamma_p, gamma)

    monkeypatch.setattr(family_module, "generic_tau", patched)
    family_subspaces_ucb.cache_clear()
    try:
        return family_subspaces_ucb(dim)
    finally:
        family_subspaces_ucb.cache_clear()


def test_ucb_guard_rejects_a_wrong_pair(monkeypatch):
    dim, bad = 8, (3, 5)
    space = make_space(dim)
    assert _opposite_walk(space, *bad) != generic_tau(space, *bad)
    with pytest.raises(FamilyStructureError, match=r"pair \(3, 5\)"):
        _ucb_with_pair_walk(monkeypatch, dim, bad, _opposite_walk)


def test_ucb_guard_rejects_a_non_injective_pair(monkeypatch):
    # the pair walks are not validated one by one; the factorisation guard proves them
    dim, bad = 8, (4, 2)
    space = make_space(dim)
    with pytest.raises(AssertionError, match="embedding is not injective"):
        _validate_embedding(_non_injective_walk(space, *bad), space)
    with pytest.raises(FamilyStructureError, match=r"pair \(4, 2\)"):
        _ucb_with_pair_walk(monkeypatch, dim, bad, _non_injective_walk)


def test_ucb_validates_at_most_2d_plus_1_maps_per_level(monkeypatch):
    # T_11 and the D+1 powers of R and D-1 of rho, against (D-1)(D+1) pair walks
    calls = []
    real = family_module._validate_embedding

    def counting(emb, dst):
        calls.append(emb)
        real(emb, dst)

    monkeypatch.setattr(family_module, "_validate_embedding", counting)
    try:
        for dim in range(2, 15, 2):
            family_subspaces_ucb.cache_clear()
            family_subspaces_ucb(dim - 2)
            calls.clear()
            assert family_subspaces_ucb(dim) == family_subspaces(dim)
            assert len(calls) <= 2 * dim + 1, (dim, len(calls))
            assert generic_tau(make_space(dim), 1, 1) in calls
    finally:
        family_subspaces_ucb.cache_clear()


def test_prime_recursion_contains_nested_line():
    # pushing the zero subspace through the top vertex gives the first nested member
    sp = make_space(4)
    fam = set(map(sp.interval_span, family_subspaces_prime(4)))
    assert Subspace.span([sp.circular(5)]) in fam
    assert Subspace.span([sp.circular(5)]) == nested_interval_subspace(sp, 1)


def test_decorated_variants_build():
    assert len(Family(6, family_subspaces_prime(6))) == 64
    assert len(Family(6, family_subspaces_ucb(6))) == 64


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_interval_basis_matches_scan(dim):
    # reference: test every interval vector of the space for membership
    space = make_space(dim)
    for sub in map(space.interval_span, family_subspaces(dim)):
        scan = sorted(
            lab for lab in all_intervals(dim) if Subspace.span(sub.rows + (space.interval_vector(lab.a, lab.b),)) == sub
        )
        assert interval_basis(space, sub) == tuple(scan), sub.rows


def _interval_basis_outcome(fn, space, sub):
    try:
        return fn(space, sub)
    except FamilyStructureError as exc:
        return str(exc)


def test_interval_basis_matches_enumeration_on_random_subspaces():
    # Spans of a few interval vectors and a few random vectors: members, subspaces with
    # too many interval vectors and subspaces with dependent ones all occur, and the
    # prefix-coset classes give the enumeration's basis or its error message.
    rng = random.Random(14)
    kinds = {"basis": 0, "contains": 0, "dependent": 0}
    for dim in range(2, 11, 2):
        space = make_space(dim)
        intervals = list(all_intervals(dim))
        for _ in range(300):
            gens = [space.interval_vector(lab.a, lab.b) for lab in rng.sample(intervals, rng.randint(0, min(4, len(intervals))))]
            gens += [rng.randrange(1 << dim) for _ in range(rng.randint(0, 2))]
            sub = Subspace.span(gens)
            got = _interval_basis_outcome(interval_basis, space, sub)
            assert got == _interval_basis_outcome(interval_basis_by_enumeration, space, sub), sub.rows
            kinds["basis" if isinstance(got, tuple) else "dependent" if "dependent" in got else "contains"] += 1
        members = sorted(map(space.interval_span, family_subspaces(dim)))
        for sub in rng.sample(members, min(20, len(members))):
            assert interval_basis(space, sub) == interval_basis_by_enumeration(space, sub)
    assert min(kinds.values()) >= 20, kinds


def _key(space, intervals):
    """The key of the intervals [a, b]."""
    return sum(space.interval_keys[space.interval_vector(a, b)] for a, b in intervals)


def test_endpoint_criterion_matches_enumeration_on_random_interval_sets():
    # A set of intervals is the unique interval basis of its span exactly when no two
    # of them share an endpoint; the enumeration lists every vector of the span.  On a
    # set of distinct intervals, sharing an endpoint is also exactly non-isotropy.
    rng = random.Random(15)
    kinds = {"basis": 0, "not": 0}
    for dim in range(2, 13, 2):
        space = make_space(dim)
        n = len(space.intervals)
        for _ in range(850):
            key = sum(1 << k for k in rng.sample(range(n), rng.randint(0, min(n, dim // 2 + 1))))
            bits = list(bits_of(key))
            span = space.interval_span(key)
            try:
                unique = interval_basis_by_enumeration(space, span) == tuple(space.intervals[k] for k in bits)
            except FamilyStructureError:
                unique = False
            assert is_interval_basis(space, bits) == unique, (dim, bits)
            # such a basis in key order has ascending pivots: back substitution reduces it
            assert not unique or back_substitute([space.interval_vectors[k] for k in bits]) == span.rows, (dim, bits)
            assert is_isotropic(space, span) == unique, (dim, bits)
            kinds["basis" if unique else "not"] += 1
    assert sum(kinds.values()) >= 5000 and min(kinds.values()) >= 1000, kinds


def _member_maps(dim):
    """Each map a member of the D-family is pushed through, with its extra circular vector."""
    space = make_space(dim)
    maps = [(tau(space, i), space.circular(i)) for i in range(1, dim + 2)]
    maps += [(generic_tau(space, gp, g), space.circular(g)) for gp in range(1, dim) for g in range(1, dim + 2)]
    return maps


@pytest.mark.parametrize("dim", range(2, 11, 2))
def test_key_push_matches_row_push(dim):
    # every tau_i, every generic_tau pair, R and S, pushed by key and by rows (reduced per push)
    space = make_space(dim)
    pushes = [(m, extra, dim - 2) for m, extra in _member_maps(dim)]
    pushes += [(rotation(space, k), 0, dim) for k in range(dim + 1)] + [(reflection(space), 0, dim)]
    for m, extra, src_dim in pushes:
        table, rows_table = m.key_table(), row_table(m)
        src = make_space(src_dim)
        extra_key = space.interval_keys[extra] if extra else 0
        for key in family_subspaces(src_dim):
            pushed = push_key(table, key, extra_key)
            by_rows = Subspace(push_rows(rows_table, src.interval_span(key).rows, *([extra] if extra else [])))
            assert space.interval_span(pushed) == by_rows, (m, key)
            # and the pushed key is the unique interval basis of its span
            bits = list(bits_of(pushed))
            assert is_interval_basis(space, bits), (m, key)
            assert back_substitute([space.interval_vectors[k] for k in bits]) == by_rows.rows, (m, key)


def test_key_table_rejects_a_map_that_breaks_an_interval():
    # e_1 -> e_1 + e_3 is no circular run
    bent = CircularMap(2, 4, (0b0101, 0b0010, 0b0111))
    with pytest.raises(AssertionError, match="not an interval vector"):
        bent.key_table()


@pytest.mark.parametrize("dim", range(0, 13, 2))
def test_standard_paths_match_row_recursion(dim):
    # the recursion over interval keys builds the same members as the recursion over rows
    space = make_space(dim)
    assert set(map(space.interval_span, family_subspaces(dim))) == family_subspaces_by_rows(dim)


def test_family_rejects_a_key_with_a_shared_endpoint():
    space = make_space(4)
    # [1,1] and [2,2] share the point 1, and with [1,2] they close a cycle; [1,2] and [3,4] share 2
    for intervals, rows in ([(1, 1), (2, 2)], (1, 2)), ([(1, 1), (1, 2), (2, 2)], (1, 2)), ([(1, 2), (3, 4)], (3, 12)):
        with pytest.raises(FamilyStructureError, match=re.escape(f"family member {rows} has no unique interval basis")):
            Family(4, [0, _key(space, intervals)])


def test_family_rejects_a_key_that_is_not_isotropic():
    # <e_1, e_2> is not isotropic; the endpoint check names it
    space = make_space(4)
    key = _key(space, [(1, 1), (2, 2)])
    assert not is_isotropic(space, space.interval_span(key))
    with pytest.raises(FamilyStructureError, match=re.escape("family member (1, 2)")):
        Family(4, [key])


def _canonical_index(space, keys, key):
    """The index of the member `key` among `keys` sorted by (dim, rows), from the spans."""
    spans = sorted((space.interval_span(k) for k in keys), key=lambda sub: (sub.dim, sub.rows))
    return spans.index(space.interval_span(key))


def test_family_rejects_a_member_whose_odd_part_escapes():
    # <2> is the odd part of <2,5> (the intervals [2,2] and [1,4]); without it, <2,5> escapes
    space = make_space(4)
    two, four = _key(space, [(2, 2)]), _key(space, [(1, 4)])
    keys = family_subspaces(4) - {two}
    index = _canonical_index(space, keys, two | four)
    with pytest.raises(FamilyStructureError, match=re.escape(f"odd-interval span of entry {index} escapes the family")):
        Family(4, keys)


@pytest.mark.parametrize("case", ["missing", "repeated"])
def test_family_rejects_a_malformed_fiber(case):
    # the fiber over <2> is <2>, <2,5>: without its top member, or with it twice, it is malformed
    space = make_space(4)
    two, four = _key(space, [(2, 2)]), _key(space, [(1, 4)])
    rest = sorted(family_subspaces(4) - {two | four})
    keys = rest if case == "missing" else rest + [two | four, two | four]
    shriek = _canonical_index(space, keys, two)
    top = case == "repeated" and _canonical_index(space, keys, two | four)  # the first of its copies
    members = [shriek] if case == "missing" else [shriek, top, top + 1]
    dims, n = ([1], [0]) if case == "missing" else ([1, 2, 2], [0, 1, 1])
    message = f"fiber over entry {shriek} is malformed: members={members}, dims={dims}, n={n}"
    with pytest.raises(FamilyStructureError, match=re.escape(message)):
        Family(4, keys)


def _view_built(fam):
    return bool({"_view", "entries", "index_of_key", "fibers"} & vars(fam).keys())


def test_counts_and_dihedral_suites_read_only_the_keys():
    build_family.cache_clear()
    try:
        for suite in ("counts", "dihedral"):
            assert run_suite(10, suite).ok
            assert not _view_built(build_family(10)), suite
        assert run_suite(10, "family").ok
        assert _view_built(build_family(10))
    finally:
        build_family.cache_clear()


@pytest.mark.parametrize("dim", range(2, 15, 2))
def test_interval_pairing_is_the_shared_endpoint_count(dim):
    # (e_[c,d], e_[a,b]) = [a-1 in {c-1, d}] + [b in {c-1, d}]: intervals with no
    # shared endpoint pair to 0, so the endpoint check in Family implies isotropy
    space = make_space(dim)
    for c, d in all_intervals(dim):
        for a, b in all_intervals(dim):
            ends = {c - 1, d}
            expected = ((a - 1 in ends) + (b in ends)) % 2
            assert space.pairings((space.interval_vector(c, d), space.interval_vector(a, b)))[0] == expected, (c, d, a, b)


def test_family_entries_carry_their_interval_keys():
    for dim in range(0, 11, 2):
        fam = build_family(dim)
        space = fam.space
        for ent in fam.entries:
            assert space.interval_span(ent.key) == ent.subspace
            assert ent.intervals == interval_basis(space, ent.subspace)
            assert fam.index_of_key[ent.key] == ent.index


def test_family_json_schema():
    fam = build_family(4)
    doc = family_to_json(fam)
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["dim"] == 4 and doc["size"] == 16
    assert len(doc["entries"]) == 16 and len(doc["fibers"]) == 10
    entry = doc["entries"][next(e for e in fam.entries if e.subspace == Subspace.span([0b00001])).index]
    assert entry["iprime"] == [[1]]
    for ent in doc["entries"]:
        assert set(ent) == {
            "index", "dim", "n", "iprime", "intervals", "basis_rows",
            "shriek", "fiber", "fiber_pos", "kappa",
        }


def test_entry_compact_large_dim_uses_separators():
    fam = build_family(10)
    labels = {entry_compact(e, 10) for e in fam.entries}
    assert "∅" in labels
    multi = [lab for lab in labels if ";" in lab]
    assert multi  # some member has several runs, comma-separated vertices inside


def test_compact_grammar_roundtrip_d8():
    # documented grammar at D <= 8: "<run,run,...>" with digit-concatenated
    # runs sorted by (length, start); each run a circular chain mod D+1
    fam = build_family(8)
    for ent in fam.entries:
        label = entry_compact(ent, 8)
        if label == "∅":
            assert ent.dim == 0
            continue
        assert label.startswith("<") and label.endswith(">")
        runs = [tuple(int(ch) for ch in tok) for tok in label[1:-1].split(",")]
        assert runs == sorted(runs, key=lambda r: (len(r), r[0]))
        assert len(runs) == ent.dim
        for run in runs:
            assert len(run) % 2 == 1
            assert all(b == a % 9 + 1 for a, b in zip(run, run[1:]))
        assert tuple(runs) == ent.iprime_runs(8)
