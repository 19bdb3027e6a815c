import cmath
import random
import sys
from fractions import Fraction

import pytest

from trifourier.cyclotomic import Cyc
from trifourier.packed import DEGREE, N, POWERS, conj_coeffs


def to_complex(a: Cyc) -> complex:
    """The numeric shadow of a field element, at z = exp(2 pi i / 60): a float oracle, test-side only."""
    z = cmath.exp(2j * cmath.pi / N)
    return sum(c * z**j for j, c in enumerate(a.num)) / a.den


def test_base_root_has_order_sixty():
    z = Cyc(POWERS[1])
    assert z**60 == Cyc.one()
    for k in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30):
        assert z**k != Cyc.one()


def test_power_table_holds_the_powers_of_z():
    # the cyclic character tables read chi(gen^j) = z^(k j) straight from POWERS
    z = Cyc(POWERS[1])
    assert len(POWERS) == N + 1
    assert all(Cyc(POWERS[k]) == z**k for k in range(N + 1))


def test_theta_relation():
    th = Cyc(POWERS[20])
    assert (Cyc.one() + th + th * th).is_zero()
    assert th**3 == Cyc.one()


def test_imaginary_unit():
    i = Cyc(POWERS[15])
    assert i * i == Cyc.from_rational(-1)
    assert Cyc(conj_coeffs(i.num), i.den) == -i


def test_zeta5_relations():
    z = Cyc(POWERS[12])
    assert z + z**2 + z**3 + z**4 == Cyc.from_rational(-1)
    assert z.inverse() == z**4


def test_inverse_examples():
    assert Cyc.one().inverse() == Cyc.one()
    assert Cyc.from_rational(2).inverse().to_rational() == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        Cyc.from_rational(0).inverse()


def test_rationality():
    z = Cyc(POWERS[12])
    full = z + z**2 + z**3 + z**4
    assert full.is_rational() and full.to_rational() == -1
    assert Cyc.from_rational(0).is_rational() and Cyc.from_rational(0).to_rational() == 0
    golden = z + z**4
    assert not golden.is_rational()
    # numeric oracle: 2 cos(2 pi / 5) = (sqrt 5 - 1) / 2
    assert abs(to_complex(golden) - (5**0.5 - 1) / 2) < 1e-9
    with pytest.raises(ValueError):
        golden.to_rational()


def test_conj_is_complex_conjugation():
    rng = random.Random(13)
    for _ in range(50):
        a = Cyc(tuple(rng.randrange(-4, 5) for _ in range(DEGREE)), rng.randrange(1, 5))
        assert abs(to_complex(Cyc(conj_coeffs(a.num), a.den)) - to_complex(a).conjugate()) < 1e-9


def test_field_axioms_randomized():
    rng = random.Random(60)

    def sample():
        return Cyc(tuple(rng.randrange(-3, 4) for _ in range(DEGREE)), rng.randrange(1, 4))

    seen = 0
    while seen < 1000:
        a, b, c = sample(), sample(), sample()
        seen += 3
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == Cyc.one()


def test_numeric_shadow():
    rng = random.Random(61)
    for _ in range(100):
        a = Cyc(tuple(rng.randrange(-3, 4) for _ in range(DEGREE)), rng.randrange(1, 4))
        b = Cyc(tuple(rng.randrange(-3, 4) for _ in range(DEGREE)), rng.randrange(1, 4))
        exact = to_complex(a * b + a - b)
        approx = to_complex(a) * to_complex(b) + to_complex(a) - to_complex(b)
        assert abs(exact - approx) <= 1e-9 * (1 + abs(exact))


def test_powers_against_exponentials():
    z = Cyc(POWERS[1])
    for k in range(0, 75, 7):
        assert abs(to_complex(z**k) - cmath.exp(2j * cmath.pi * k / N)) < 1e-9


def test_mixed_arithmetic_with_ints_and_fractions():
    th = Cyc(POWERS[20])
    assert 1 + th == th + 1
    assert 2 * th == th + th
    assert th - th == Cyc.from_rational(0)
    assert (th * Fraction(1, 2)) * 2 == th
    assert (6 / Cyc.from_rational(3)).to_rational() == 2


def test_negative_power_and_div():
    z = Cyc(POWERS[12])
    assert z**-1 == z**4
    assert (z / z) == Cyc.one()


def test_hash_and_equality():
    assert hash(Cyc.from_rational(2)) == hash(Cyc.from_rational(2))
    assert Cyc.from_rational(2) == 2
    assert Cyc(POWERS[20]) != Cyc(POWERS[12])
    # a rational value hashes as the equal int or Fraction, so sets and dict keys mix them
    for q in (0, 1, -1, 2, 10**30, -(10**30), Fraction(1, 3), Fraction(-5, 2), Fraction(1, sys.hash_info.modulus)):
        c = Cyc.from_rational(q)
        assert c == q and hash(c) == hash(q), q
        assert len({c, q}) == 1 and {q: "x"}.get(c) == "x" and {c: "y"}.get(q) == "y", q
    th = Cyc(POWERS[20])
    assert hash(th) == hash(Cyc(POWERS[20])) and len({th, Cyc(POWERS[20]), Cyc(POWERS[12]), 1}) == 3


def test_json_form():
    # theta reduces to z^10 - 1 over the degree-16 power basis
    th = Cyc(POWERS[20]) * Fraction(3, 2)
    doc = th.to_json()
    assert doc == [{"num": -3, "den": 2, "exp": 0}, {"num": 3, "den": 2, "exp": 10}]
    assert abs(to_complex(th) - 1.5 * complex(-0.5, 3**0.5 / 2)) < 1e-9
    assert Cyc.from_rational(0).to_json() == []
