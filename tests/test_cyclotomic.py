import random
from fractions import Fraction

import pytest

from workbench.cyclotomic import cyclotomic_poly, reduce_mod2
from workbench.errors import ConductorOverflow, NotTwoIntegral
from workbench.gf2 import GF2Field

from oracles import Cyclotomic, exact_reduce_mod2, minimized


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_vanishing_root_sum():
    z = Cyclotomic.root(3)
    assert z + z * z == Cyclotomic.rational(-1)


def test_conjugation():
    z7 = Cyclotomic.root(7)
    assert z7.galois(-1) == Cyclotomic.root(7, 6)
    assert z7.galois(2) == Cyclotomic.root(7, 2)


def test_field_axioms_random():
    rng = random.Random(2)
    vals = [Cyclotomic.root(12, rng.randrange(12)) + Cyclotomic.rational(rng.randrange(-2, 3))
            for _ in range(6)]
    for a in vals[:3]:
        for b in vals[3:]:
            assert a * b == b * a
            assert (a + b) * vals[0] == a * vals[0] + b * vals[0]


def test_mixed_conductors():
    a = Cyclotomic.root(3)
    b = Cyclotomic.root(4)
    prod = a * b
    assert prod == Cyclotomic.root(12, 4 + 3 * 1) or prod == Cyclotomic.root(12, 7)
    assert (a * b).galois(5) == a.galois(5 % 3) * b.galois(5 % 4)


def test_minimized():
    z = Cyclotomic.root(12, 4)  # = zeta_3
    m = minimized(z)
    assert m.e == 3
    assert z.rewrite(3) == Cyclotomic.root(3)
    v = Cyclotomic.root(8) * Cyclotomic.root(8, 7) + Cyclotomic.rational(1)
    assert minimized(v).e == 1
    assert v.rational_value() == 2


def test_rational_detection():
    z = Cyclotomic.root(5)
    s = z + z.galois(2) + z.galois(3) + z.galois(4)
    assert s.is_rational() and s.rational_value() == -1


def test_conductor_cap():
    with pytest.raises(ConductorOverflow):
        Cyclotomic.root(1009)


def test_reduce_mod2_basics():
    assert exact_reduce_mod2(Cyclotomic.rational(3)).value == 1
    assert exact_reduce_mod2(Cyclotomic.rational(4)).value == 0
    # 2-power roots go to 1
    assert exact_reduce_mod2(Cyclotomic.root(4)).value == 1
    assert exact_reduce_mod2(Cyclotomic.root(8, 3)).value == 1
    # rational integers reduce to their parity
    assert exact_reduce_mod2(Cyclotomic.rational(Fraction(7, 3))).value == 1


def test_reduce_mod2_zeta7():
    img = exact_reduce_mod2(Cyclotomic.root(7))
    assert img.f == 3  # multiplicative order of 2 mod 7
    F = GF2Field(3)
    assert img.value != 1
    assert F.pow(img.value, 7) == 1


def test_reduce_mod2_not_two_integral():
    with pytest.raises(NotTwoIntegral):
        exact_reduce_mod2(Cyclotomic.rational(Fraction(1, 2)))


def test_reduce_mod2_is_ring_hom_small():
    # 10^4-pair bulk check of the package reducer lives in the acceptance suite
    rng = random.Random(4)
    for _ in range(200):
        e = rng.choice([1, 3, 4, 7, 8, 12, 21])
        a = Cyclotomic.root(e, rng.randrange(e)) + Cyclotomic.rational(rng.randrange(3))
        b = Cyclotomic.root(e, rng.randrange(e)) - Cyclotomic.rational(rng.randrange(3))
        f = 6  # common field for conductors dividing 84: lcm(ord 3, ord 7, ord 21) = 6
        assert exact_reduce_mod2(a * b, f) == exact_reduce_mod2(a, f) * exact_reduce_mod2(b, f)
        assert exact_reduce_mod2(a + b, f) == exact_reduce_mod2(a, f) + exact_reduce_mod2(b, f)


def test_reduce_mod2_consistent_across_conductors():
    # zeta_7 seen inside Q(zeta_28) must reduce compatibly with Q(zeta_7)
    lifted = Cyclotomic.root(28, 4)  # = zeta_7
    assert exact_reduce_mod2(lifted, 3) == exact_reduce_mod2(Cyclotomic.root(7), 3)


def test_integer_reduction_matches_oracle():
    # 2^shift * x reduced with that shift is x reduced by the exact oracle
    rng = random.Random(7)
    for _ in range(500):
        e = rng.choice([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 24])
        coords = [rng.randrange(-9, 10) for _ in Cyclotomic.root(e).coeffs]
        shift = rng.randrange(4)
        f = 12  # a multiple of ord_2 mod every odd part above
        got = reduce_mod2(e, [c << shift for c in coords], f, shift)
        assert got == exact_reduce_mod2(Cyclotomic(e, coords), f).value, (e, coords, shift)


def test_integer_reduction_needs_the_two_power():
    # (4 + 6 zeta_4) / 4 is not 2-integral; (4 + 8 zeta_4) / 4 = 1 + 2i is odd
    with pytest.raises(NotTwoIntegral):
        reduce_mod2(4, (4, 6), 1, 2)
    assert reduce_mod2(4, (4, 8), 1, 2) == 1
    with pytest.raises(NotTwoIntegral):
        reduce_mod2(3, (0, 3), 2, 1)
    assert reduce_mod2(3, (0, 3), 2) == reduce_mod2(3, (0, 1), 2) != 1
