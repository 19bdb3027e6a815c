import pytest

from trifourier.cyclotomic import Cyc
from trifourier.groups import (
    cycle_type,
    from_cycles,
    identity_perm,
    pconj,
    perm_order,
    pinv,
    pmul,
    restrict,
    symmetric_group,
)
from trifourier.nonabelian import mdata

from nonabelian_reference import group_data, product_group


def test_perm_composition_convention():
    a = from_cycles(3, (0, 1))
    b = from_cycles(3, (1, 2))
    # (a*b)(x) = a(b(x)): 2 -> 1 -> 0
    assert pmul(a, b)[2] == 0
    assert pmul(a, pinv(a)) == identity_perm(3)


def test_conjugation_moves_support():
    g = from_cycles(3, (0, 1, 2))
    x = from_cycles(3, (0, 1))
    assert pconj(g, x) == from_cycles(3, (1, 2))


def test_cycle_type_and_order():
    assert cycle_type(from_cycles(5, (0, 1, 2), (3, 4))) == (3, 2)
    assert perm_order(from_cycles(5, (0, 1, 2), (3, 4))) == 6
    assert perm_order(identity_perm(4)) == 1


def test_restrict():
    g = from_cycles(5, (0, 1, 2), (3, 4))
    assert restrict(g, (0, 1, 2)) == from_cycles(3, (0, 1, 2))
    assert restrict(g, (3, 4)) == from_cycles(2, (0, 1))


def test_symmetric_group_orders():
    for n, size in ((2, 2), (3, 6), (4, 24), (5, 120)):
        assert len(symmetric_group(n).elements) == size


def test_centralizer_orders_s5():
    md = mdata("s5")
    g = md.group
    expected = {"1": 120, "g2": 12, "g2'": 8, "g3": 6, "g6": 6, "g4": 4, "g5": 5}
    for label, size in expected.items():
        assert len(g.centralizer(md.reps[label])) == size


def test_class_sizes_s5():
    md = mdata("s5")
    total = sum(len({pconj(g, md.reps[lab]) for g in md.group.elements}) for lab in md.class_labels)
    assert total == 120


def test_all_tables_validate():
    for name in ("s2", "s3", "s4", "s5", "s2xs2", "s3xs2"):
        group_data(name).validate_tables()


def test_s5_irreducible_degrees():
    md = mdata("s5")
    table = md.tables["1"]
    degrees = sorted(int(table.values[lab][identity_perm(5)].to_rational()) for lab in table.labels)
    assert degrees == [1, 1, 4, 4, 5, 5, 6]


def test_nu_convention():
    # nu is the five-dimensional character taking +1 on transpositions
    md = mdata("s5")
    table = md.tables["1"]
    transposition = from_cycles(5, (0, 1))
    assert table.values["nu"][transposition] == Cyc.one()
    assert table.values["nu'"][transposition] == Cyc.from_rational(-1)


def test_klein_convention():
    # eps' detects the class element itself, eps'' the complementary transposition
    md = mdata("s4")
    g2 = md.reps["g2"]
    table = md.tables["g2"]
    comp = next(
        g for g in table.group_elements
        if cycle_type(g) == (2, 1, 1) and g != g2
    )
    assert table.values["eps'"][g2] == Cyc.from_rational(-1)
    assert table.values["eps'"][comp] == Cyc.one()
    assert table.values["eps''"][g2] == Cyc.one()
    assert table.values["eps''"][comp] == Cyc.from_rational(-1)
    assert table.values["eps"][pmul(g2, comp)] == Cyc.one()


def test_dihedral_convention():
    md = mdata("s4")
    table = md.tables["g2'"]
    center = md.reps["g2'"]
    four_cycle = next(g for g in table.group_elements if cycle_type(g) == (4,))
    transposition = next(g for g in table.group_elements if cycle_type(g) == (2, 1, 1))
    assert table.values["r"][center] == Cyc.from_rational(-2)
    assert table.values["r"][four_cycle] == Cyc.zero()
    assert table.values["eps'"][four_cycle] == Cyc.from_rational(-1)
    assert table.values["eps'"][transposition] == Cyc.one()
    assert table.values["eps''"][transposition] == Cyc.from_rational(-1)
    assert table.values["eps''"][four_cycle] == Cyc.one()


def test_g6_labels_are_values_at_the_generator():
    md = mdata("s5")
    g6 = md.reps["g6"]
    table = md.tables["g6"]
    th = Cyc.theta()
    for label, want in [
        ("1", Cyc.one()), ("-1", Cyc.from_rational(-1)),
        ("theta", th), ("theta2", th * th),
        ("-theta", -th), ("-theta2", -(th * th)),
    ]:
        assert table.values[label][g6] == want


def test_column_orthogonality():
    # complement to the row check inside validate(): on class representatives
    # of each centralizer, sum over characters of chi(g) conj(chi(h)) equals
    # the centralizer-in-centralizer order on the diagonal and 0 off it
    for name in ("s3", "s4", "s5"):
        md = mdata(name)
        for lab in md.class_labels:
            table = md.tables[lab]
            elems = list(table.group_elements)
            classes = []
            seen = set()
            for g in elems:
                if g in seen:
                    continue
                cls = {pconj(z, g) for z in elems}
                seen |= cls
                classes.append((g, len(cls)))
            assert sum(size for _, size in classes) == len(elems)
            for g, size_g in classes:
                for h, _ in classes:
                    acc = Cyc.zero()
                    for chl in table.labels:
                        acc = acc + table.values[chl][g] * table.values[chl][h].conj()
                    want = len(elems) // size_g if g == h else 0
                    assert acc.is_rational() and acc.to_rational() == want


def test_product_group():
    prod = product_group(symmetric_group(3), symmetric_group(2))
    assert len(prod.elements) == 12 and prod.degree == 5


def test_mdata_rejects_unknown():
    # the products and s2 are built only by the test-side `group_data`
    for name in ("s6", "s2", "s3xs2", "s5xs5", ""):
        with pytest.raises(ValueError, match="unsupported group"):
            mdata(name)


@pytest.mark.parametrize("name", ["s3", "s4", "s5", "s3xs2"])
def test_columns_are_the_conjugacy_classes(name):
    # the Fourier matrix contracts over the columns of character values; for a valid
    # table they are the orbits of conjugation inside the centralizer, one per character
    md = group_data(name)
    for lab in md.class_labels:
        table = md.tables[lab]
        elems = table.group_elements
        by_column = {}
        for g, c in zip(elems, table.column):
            by_column.setdefault(c, set()).add(g)
        orbits = {frozenset(pconj(z, g) for z in elems) for g in elems}
        assert set(map(frozenset, by_column.values())) == orbits, (name, lab)
        assert len(by_column) == len(table.labels), (name, lab)
        assert table.weights == [len(by_column[c]) for c in range(len(by_column))]
