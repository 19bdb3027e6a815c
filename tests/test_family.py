import json
import random
import re

import pytest
from gf2_reference import (
    all_intervals,
    interval_basis,
    interval_basis_by_enumeration,
    nested_interval_subspace,
    push_rows,
    standard_paths_by_rows,
)
from ucb_reference import ucb_all_pairs

import trifourier.family as family_module
from trifourier.family import (
    Family,
    FamilyStructureError,
    build_family,
    build_family_prime,
    build_family_ucb,
    delta,
    entry_compact,
    family_subspaces,
    family_subspaces_prime,
    family_subspaces_ucb,
    family_to_json,
    fiber_lines,
    interval_basis_rows,
    signed_binomial_sum,
    standard_paths,
    verify_counts,
    verify_structure,
)
from trifourier.gf2 import Subspace, bits_of, canonical_subspace, is_isotropic, make_space, rref
from trifourier.taumaps import CircularMap, generic_tau, push_key, reflection, rotation, tau

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
        canonical_subspace([0b01]),
        canonical_subspace([0b10]),
        canonical_subspace([0b11]),
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
        assert all(sp.pairing(u, v) == 0 for u in vecs for v in vecs)


def test_interval_basis_examples():
    sp = make_space(4)
    sub = canonical_subspace([0b00001, 0b01100])  # e1 and e3+e4
    labs = interval_basis(sp, sub)
    assert [(l.a, l.b) for l in labs] == [(1, 1), (3, 4)]
    assert interval_basis(sp, Subspace(())) == ()
    e2 = nested_interval_subspace(sp, 2)
    assert [(l.a, l.b) for l in interval_basis(sp, e2)] == [(1, 4), (2, 3)]


def test_interval_basis_rejects_non_member():
    sp = make_space(4)
    with pytest.raises(FamilyStructureError):
        interval_basis(sp, canonical_subspace([0b0101]))  # e1+e3: no interval vectors
    # e_[1,1], e_[2,2] and e_[1,2] lie in one plane: its interval basis is not unique
    with pytest.raises(FamilyStructureError, match="contains 3 interval vectors, dim=2"):
        interval_basis(sp, canonical_subspace([0b0001, 0b0010]))
    # at D = 6, e_[1,1], e_[2,2] and e_[1,2] are the only interval vectors of
    # <e1, e2, e3+e5>: as many as its dimension, but dependent
    with pytest.raises(FamilyStructureError, match="dependent"):
        interval_basis(make_space(6), canonical_subspace([0b000001, 0b000010, 0b010100]))


def test_fibers_d4():
    fam = build_family(4)
    zero_fiber = fam.fibers[fam.entries[fam.index_of[Subspace(())]].fiber_index]
    labels = [entry_compact(fam.entries[m], 4) for m in zero_fiber.members]
    assert labels == ["∅", "<5>", "<5,451>"]
    assert [fam.entries[m].n_even for m in zero_fiber.members] == [0, 1, 2]
    e2 = canonical_subspace([0b00010])
    fib = fam.fibers[fam.entry(e2).fiber_index]
    assert [entry_compact(fam.entries[m], 4) for m in fib.members] == ["<2>", "<2,5>"]


def test_fiber_singleton_d2():
    fam = build_family(2)
    ent = fam.entry(canonical_subspace([0b01]))
    assert len(fam.fibers[ent.fiber_index].members) == 1
    assert ent.kappa_index == ent.index


def test_kappa_examples():
    fam2 = build_family(2)
    zero = fam2.entry(Subspace(()))
    line3 = fam2.entry(canonical_subspace([0b11]))
    assert fam2.kappa(zero).index == line3.index
    assert fam2.kappa(line3).index == zero.index
    fam4 = build_family(4)
    e2 = canonical_subspace([0b00010])
    e2_5 = canonical_subspace([0b00010, 0b01111])
    assert fam4.kappa(fam4.entry(e2_5)).subspace == e2


def test_kappa_involution_and_grading():
    for dim in (2, 4, 6, 8):
        fam = build_family(dim)
        rep = verify_structure(fam)
        assert rep.ok, rep.summary()


def test_shriek_properties():
    for dim in (2, 4, 6):
        fam = build_family(dim)
        for ent in fam.entries:
            sh = fam.shriek(ent)
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
    t11 = generic_tau(space, sub_space, 1, 1)
    for gamma_p in range(1, dim):
        for gamma in range(1, dim + 2):
            r = rotation(space, gamma - 1)
            factored = r.compose(t11).compose(rotation(sub_space, -(gamma_p - 1)))
            assert generic_tau(space, sub_space, gamma_p, gamma) == factored, (gamma_p, gamma)
            assert r.apply(space.circular(1)) == space.circular(gamma)


def _opposite_walk(space, sub_space, gamma_p, gamma):
    """The pair's embedding with the two circles walked in opposite directions."""
    n_src, n_dst = space.dim - 1, space.dim + 1
    images = [0] * n_src
    images[gamma_p - 1] = space.circular(gamma - 1) ^ space.circular(gamma) ^ space.circular(gamma + 1)
    for k in range(1, n_src):
        images[(gamma_p - 1 + k) % n_src] = space.circular(gamma - 1 - k)
    return CircularMap(space.dim - 2, space.dim, tuple(images))


def test_ucb_guard_rejects_a_wrong_pair(monkeypatch):
    dim, bad = 8, (3, 5)
    real = family_module.generic_tau
    space, sub_space = make_space(dim), make_space(dim - 2)
    assert _opposite_walk(space, sub_space, *bad) != real(space, sub_space, *bad)

    def patched(space, sub_space, gamma_p, gamma, orientation=1):
        if space.dim == dim and (gamma_p, gamma) == bad:
            return _opposite_walk(space, sub_space, gamma_p, gamma)
        return real(space, sub_space, gamma_p, gamma, orientation)

    monkeypatch.setattr(family_module, "generic_tau", patched)
    family_subspaces_ucb.cache_clear()
    try:
        with pytest.raises(FamilyStructureError, match=r"pair \(3, 5\)"):
            family_subspaces_ucb(dim)
    finally:
        family_subspaces_ucb.cache_clear()


def test_prime_recursion_contains_nested_line():
    # pushing the zero subspace through the top vertex gives the first nested member
    sp = make_space(4)
    fam = set(map(sp.interval_span, family_subspaces_prime(4)))
    assert canonical_subspace([sp.circular(5)]) in fam
    assert canonical_subspace([sp.circular(5)]) == nested_interval_subspace(sp, 1)


def test_decorated_variants_build():
    assert len(build_family_prime(6)) == 64
    assert len(build_family_ucb(6)) == 64


def test_provenance_present():
    fam = build_family(4)
    assert all(e.provenance for e in fam.entries)


def _replay(path: str, dim: int) -> Subspace:
    """Rebuild a member from its recorded path: zero, E_k@D=dim or tau_i[inner]."""
    if path == "zero":
        assert dim == 0
        return Subspace(())
    nested = re.fullmatch(r"E_(\d+)@D=(\d+)", path)
    if nested:
        assert int(nested[2]) == dim
        return nested_interval_subspace(make_space(dim), int(nested[1]))
    pushed = re.fullmatch(r"tau_(\d+)\[(.*)\]", path)
    assert pushed, path
    i = int(pushed[1])
    space = make_space(dim)
    inner = _replay(pushed[2], dim - 2)
    return Subspace(push_rows(tau(space, make_space(dim - 2), i).table(), inner.rows, space.circular(i)))


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_provenance_replays_to_member(dim):
    for ent in build_family(dim).entries:
        assert _replay(ent.provenance, dim) == ent.subspace, (ent.index, ent.provenance)


@pytest.mark.parametrize("dim", range(0, 11, 2))
def test_interval_basis_matches_scan(dim):
    # reference: test every interval vector of the space for membership
    space = make_space(dim)
    for sub in map(space.interval_span, family_subspaces(dim)):
        scan = sorted(lab for lab in all_intervals(dim) if sub.contains(space.interval_vector(lab.a, lab.b)))
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
            rows = interval_basis_rows(space, bits)
            assert (rows is not None) == unique, (dim, bits)
            assert rows is None or rows == span.rows, (dim, bits)
            assert is_isotropic(space, span) == unique, (dim, bits)
            kinds["basis" if unique else "not"] += 1
    assert sum(kinds.values()) >= 5000 and min(kinds.values()) >= 1000, kinds


def _member_maps(dim):
    """Each map a member of the D-family is pushed through, with its extra circular vector."""
    space, sub_space = make_space(dim), make_space(dim - 2)
    maps = [(tau(space, sub_space, i), space.circular(i)) for i in range(1, dim + 2)]
    if dim >= 4:
        maps += [
            (generic_tau(space, sub_space, gp, g), space.circular(g))
            for gp in range(1, dim) for g in range(1, dim + 2)
        ]
    return maps


@pytest.mark.parametrize("dim", range(2, 11, 2))
def test_key_push_matches_row_push(dim):
    # every tau_i, every generic_tau pair, R and S, pushed by key and by rows (reduced per push)
    space = make_space(dim)
    pushes = [(m, extra, dim - 2) for m, extra in _member_maps(dim)]
    pushes += [(rotation(space, k), 0, dim) for k in range(dim + 1)] + [(reflection(space), 0, dim)]
    for m, extra, src_dim in pushes:
        table, rows_table = m.key_table(), m.table()
        src = make_space(src_dim)
        extra_key = space.interval_keys[extra] if extra else 0
        for key in family_subspaces(src_dim):
            pushed = push_key(table, key, extra_key)
            by_rows = Subspace(push_rows(rows_table, src.interval_span(key).rows, *([extra] if extra else [])))
            assert space.interval_span(pushed) == by_rows, (m, key)
            # and the pushed key is the unique interval basis of its span
            assert interval_basis_rows(space, list(bits_of(pushed))) == by_rows.rows, (m, key)


def test_key_table_rejects_a_map_that_breaks_an_interval():
    # e_1 -> e_1 + e_3 is no circular run
    bent = CircularMap(2, 4, (0b0101, 0b0010, 0b0111))
    with pytest.raises(AssertionError, match="not an interval vector"):
        bent.key_table()


@pytest.mark.parametrize("dim", range(0, 13, 2))
def test_standard_paths_match_row_recursion(dim):
    # the same members in the same order, with the same first paths
    space = make_space(dim)
    by_keys = [(space.interval_span(key), path) for key, path in standard_paths(dim).items()]
    assert by_keys == list(standard_paths_by_rows(dim).items())


def test_family_rejects_a_key_with_a_shared_endpoint():
    space = make_space(4)
    # [1,1] and [2,2] share the point 1, and with [1,2] they close a cycle; [1,2] and [3,4] share 2
    for intervals, rows in ([(1, 1), (2, 2)], (1, 2)), ([(1, 1), (1, 2), (2, 2)], (1, 2)), ([(1, 2), (3, 4)], (3, 12)):
        with pytest.raises(FamilyStructureError, match=re.escape(f"family member {rows} has no unique interval basis")):
            Family(4, [0, _key(space, intervals)], {})


def test_family_rejects_a_key_that_is_not_isotropic(monkeypatch):
    # <e_1, e_2> is not isotropic; with the endpoint check bypassed, the isotropy check names it
    space = make_space(4)
    key = _key(space, [(1, 1), (2, 2)])
    assert not is_isotropic(space, space.interval_span(key))
    with pytest.raises(FamilyStructureError, match=re.escape("family member (1, 2)")):
        Family(4, [key], {})
    monkeypatch.setattr(
        family_module, "interval_basis_rows", lambda sp, bits: rref(sp.interval_vectors[k] for k in bits)
    )
    with pytest.raises(FamilyStructureError, match=re.escape("family member (1, 2) is not isotropic")):
        Family(4, [key], {})


def test_family_entries_carry_their_interval_keys():
    for dim in range(0, 11, 2):
        fam = build_family(dim)
        space = fam.space
        for ent in fam.entries:
            assert space.interval_span(ent.key) == ent.subspace
            assert ent.intervals == interval_basis(space, ent.subspace)
            assert fam.index_of_key[ent.key] == fam.index_of[ent.subspace] == ent.index


def test_family_json_schema():
    fam = build_family(4)
    doc = family_to_json(fam)
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["dim"] == 4 and doc["size"] == 16
    assert len(doc["entries"]) == 16 and len(doc["fibers"]) == 10
    entry = doc["entries"][fam.index_of[canonical_subspace([0b00001])]]
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
