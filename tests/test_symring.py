import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps.symring import (
    EulerClass,
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    divide_with_remainder,
    euler_class,
    expfactor,
    expfactors,
    quotient_sum,
    times_expfactors,
    to_polynomial,
)


def poly(d):
    return LaurentPoly(d)


class TestExpfactor:
    def test_negative_weight(self):
        assert expfactor(-10) == poly({0: 1, -10: -1})

    def test_zero_weight_is_zero(self):
        assert not expfactor(0)
        assert expfactor(0) == poly({})

    def test_positive_weight(self):
        assert expfactor(3) == poly({0: 1, 3: -1})

    def test_product_of_factors(self):
        assert expfactors((-6, -2)) == expfactor(-6) * expfactor(-2)
        assert expfactors(()) == LaurentPoly.one()


class TestLaurentPoly:
    def test_constant_hashes_like_its_integer(self):
        assert len({1, LaurentPoly.one()}) == 1
        assert hash(LaurentPoly.zero()) == hash(0)
        assert hash(poly({0: -7})) == hash(-7) and {poly({0: -7}): 1}[-7] == 1

    def test_no_zero_coefficients_stored(self):
        p = poly({2: 1}) - poly({2: 1})
        assert p.coeffs == {}

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})
        with pytest.raises(TypeError, match="integer"):
            LaurentPoly({0: Fraction(1, 2)})

    def test_product(self):
        got = expfactor(-6) * expfactor(-2)
        assert got == poly({0: 1, -2: -1, -6: -1, -8: 1})

    def test_render(self):
        assert str(poly({0: 1, 3: -1})) == "1 - mu^3"
        assert str(poly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1})) == (
            "mu^-11 - mu^-10 + mu^-7 - mu^-6 - mu^-2 + 1"
        )
        assert str(poly({2: 2})) == "2*mu^2"
        assert str(LaurentPoly()) == "0"

    def test_evaluate(self):
        p = expfactor(-2)
        assert p.evaluate(Fraction(2)) == Fraction(3, 4)
        with pytest.raises(ZeroDivisionError):
            p.evaluate(Fraction(0))

    def test_character_is_the_same_type(self):
        assert VirtualCharacter({0: 1, 3: -1}) == expfactor(3)
        assert VirtualCharacter({1: 2, 2: -1}).split() == (poly({1: 2}), poly({2: 1}))


class TestRatFn:
    """Rational functions of mu in the form N / prod (1 - mu^k)^e, k > 0."""

    def test_self_division(self):
        u = Quotient(expfactor(1), (1,))
        assert u == 1
        assert to_polynomial(u) == LaurentPoly.one()

    def test_two_summand_character(self):
        a = Quotient(expfactor(-10) * expfactor(3) * expfactor(-1), (4,))
        b = Quotient(expfactor(-6) * expfactor(-5) * expfactor(-1), (-4,))
        want = poly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1})
        assert a + b == want
        assert to_polynomial(a + b) == want

    def test_canonical_denominator_from_laurent(self):
        # 1 / (1 - mu^-3) = -mu^3 / (1 - mu^3): sign and monomial move up
        u = Quotient(1, (-3,))
        assert u.den == {3: 1}
        assert u.num == poly({3: -1})
        v = Quotient(expfactor(2), (-1, -1, 3))
        assert v.den == {1: 2, 3: 1}
        assert v.num == poly({2: 1, 4: -1})

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Quotient(1, (0,))
        with pytest.raises(ZeroDivisionError):
            Quotient(1, (2, 0))

    def test_render(self):
        assert str(Quotient(1, (1,))) == "(1) / (1 - mu^1)"
        assert str(Quotient(expfactor(2), (-1, -1, 3))) == "(mu^2 - mu^4) / (1 - mu^1)^2 * (1 - mu^3)"
        assert str(Quotient(expfactor(2))) == "1 - mu^2"

    def test_sum_over_largest_exponents(self):
        u = Quotient(1, (2,)) + Quotient(1, (2, 2, 3))
        assert u.den == {2: 2, 3: 1}
        assert u * expfactors((2, 2, 3)) == expfactor(2) * expfactor(3) + 1

    def test_equality_cross_multiplies(self):
        # different forms of the same function are equal
        assert Quotient(expfactor(2), (1,)) == poly({0: 1, 1: 1})
        assert Quotient(expfactor(1), (1, 2)) == Quotient(1, (2,))
        assert Quotient(1, (2,)) != Quotient(1, (1,))
        assert Quotient(expfactor(2), (1,)) != 1


class TestToPolynomial:
    def test_exact_division(self):
        u = Quotient(expfactor(-10), (-5,))
        assert to_polynomial(u) == VirtualCharacter({0: 1, -5: 1})

    def test_non_polynomial_rejected(self):
        with pytest.raises(ValueError, match="not a polynomial"):
            to_polynomial(Quotient(1, (1,)))
        # 1 - mu^6 is divisible by 1 - mu^2 and by 1 - mu^3, not by their product
        with pytest.raises(ValueError, match="not a polynomial"):
            to_polynomial(Quotient(expfactor(6), (2, 3)))

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            to_polynomial(Quotient(LaurentPoly({0: Fraction(1, 2)})))

    def test_embedding_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            p = LaurentPoly({rng.randrange(-12, 13): rng.randrange(-5, 6) for _ in range(4)})
            assert to_polynomial(Quotient(p)) == p
            ks = [rng.choice([-1, 1]) * rng.randrange(1, 7) for _ in range(rng.randrange(4))]
            assert to_polynomial(Quotient(p * expfactors(ks), ks)) == p


_LAURENT = st.dictionaries(st.integers(-15, 30), st.integers(-6, 6), max_size=8).map(LaurentPoly)
_DENOMINATORS = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_LAURENT, _LAURENT, _DENOMINATORS, st.integers(-3, 3))
def test_division_with_remainder(n, n2, den, scale):
    # N = P * D + R with R in [0, deg D), linear in N; R = 0 iff to_polynomial accepts N / D
    u = Quotient._raw(n.coeffs, den)
    d = u.den_poly()
    p, r = divide_with_remainder(u, den)
    assert p * d + r == n
    assert all(0 <= w < sum(k * e for k, e in den.items()) for w in r.coeffs)
    p2, r2 = divide_with_remainder(Quotient._raw(n2.coeffs, den), den)
    p3, r3 = divide_with_remainder(Quotient._raw((scale * n + n2).coeffs, den), den)
    assert (p3, r3) == (scale * p + p2, scale * r + r2)
    if r:
        with pytest.raises(ValueError, match="not a polynomial"):
            to_polynomial(u)
    else:
        assert to_polynomial(u) == p
    assert to_polynomial(Quotient._raw((n2 * d).coeffs, den)) == n2
    # unique: a numerator built as P * D + R, R in range, splits back into P and R
    assert divide_with_remainder(Quotient._raw((n2 * d + r2).coeffs, den), den) == (n2, r2)
    # a quotient over a smaller denominator is lifted to D first
    smaller = {k: e - 1 for k, e in den.items() if e > 1}
    pv, rv = divide_with_remainder(Quotient._raw(n.coeffs, smaller), den)
    assert pv * d + rv == n * to_polynomial(Quotient._raw(d.coeffs, smaller))


def test_division_needs_the_denominator_of_u():
    with pytest.raises(ValueError, match="does not contain"):
        divide_with_remainder(Quotient(1, (2, 2)), {2: 1})
    assert divide_with_remainder(Quotient(), {}) == (0, 0)


class TestDualize:
    def test_golden_character(self):
        ch = poly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1})
        assert ch.dual() == poly({0: 1, 2: -1, 6: -1, 7: 1, 10: -1, 11: 1})

    def test_unit_fixed(self):
        assert LaurentPoly.one().dual() == LaurentPoly.one()

    def test_involution_and_homomorphism(self):
        rng = random.Random(11)
        for _ in range(300):
            p = LaurentPoly({rng.randrange(-12, 13): rng.randrange(-4, 5) for _ in range(3)})
            q = LaurentPoly({rng.randrange(-12, 13): rng.randrange(-4, 5) for _ in range(3)})
            assert p.dual().dual() == p
            assert (p * q).dual() == p.dual() * q.dual()
            assert (p + q).dual() == p.dual() + q.dual()

    def test_ratfn_involution(self):
        u = Quotient(expfactor(-6) * expfactor(3), (4, -1))
        assert u.dual().dual() == u
        assert u.dual() == Quotient(expfactor(6) * expfactor(-3), (-4, 1))


class TestEulerClass:
    def test_double_weight_two(self):
        assert euler_class(VirtualCharacter({2: 2})) == EulerClass(4, 2)

    def test_empty_character(self):
        assert euler_class(VirtualCharacter()) == EulerClass(1, 0)

    def test_mixed_weights(self):
        assert euler_class(VirtualCharacter({1: 1, 3: 1})) == EulerClass(3, 2)

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            euler_class(VirtualCharacter({1: -1}))

    def test_weight_zero_rejected(self):
        with pytest.raises(ValueError, match="weight-0"):
            euler_class(VirtualCharacter({0: 1}))

    def test_render(self):
        assert str(EulerClass(4, 2)) == "4*t^2"
        assert str(EulerClass(1, 1)) == "t"
        assert str(EulerClass(1, 0)) == "1"


def random_poly(rng, terms=4, wmax=12, cmax=4):
    return LaurentPoly(
        [(rng.randrange(-wmax, wmax + 1), rng.randrange(-cmax, cmax + 1)) for _ in range(terms)]
    )


def random_weights(rng, most=3):
    return [rng.choice([-1, 1]) * rng.randrange(1, 7) for _ in range(rng.randrange(most + 1))]


def test_laurent_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p


def test_quotient_ring_axioms_randomized():
    rng = random.Random(99)
    for _ in range(400):
        u, v, w = (Quotient(random_poly(rng), random_weights(rng)) for _ in range(3))
        assert u + v == v + u
        assert (u + v) + w == u + (v + w)
        assert u * v == v * u
        assert (u * v) * w == u * (v * w)
        assert u * (v + w) == u * v + u * w
        assert u - u == 0
        assert (u * v).dual() == u.dual() * v.dual()
        assert (u + v).dual() == u.dual() + v.dual()
        ks = random_weights(rng)
        assert u * Quotient(1, ks) * expfactors(ks) == u


def test_ratfn_pointwise_evaluation_oracle():
    # Quotient arithmetic must agree with exact pointwise evaluation of its
    # inputs at rationals that avoid the poles (every pole is at +1 or -1).
    rng = random.Random(5)
    points = [Fraction(3, 2), Fraction(5, 3), Fraction(7, 2), Fraction(-4, 3)]

    def at(num, ks, x):
        out = num.evaluate(x)
        for k in ks:
            out /= 1 - x**k
        return out

    for _ in range(250):
        num, ks = expfactors(rng.randrange(-8, 9) for _ in range(2)), random_weights(rng)
        vnum, vks = random_poly(rng), random_weights(rng)
        u, v = Quotient(num, ks), Quotient(vnum, vks)
        expr = u * v + u
        for x in points:
            want = at(num, ks, x) * at(vnum, vks, x) + at(num, ks, x)
            assert expr.evaluate(x) == want
            assert expr.dual().evaluate(x) == expr.evaluate(1 / x)


def test_quotient_sum_equals_binary_fold():
    # the n-ary sum against the left fold of binary + and against exact
    # evaluation of every summand; zero summands and empty input included
    rng = random.Random(77)
    points = [Fraction(3, 2), Fraction(-5, 3)]
    for _ in range(300):
        terms = [Quotient(random_poly(rng), random_weights(rng, 4)) for _ in range(rng.randrange(6))]
        terms += [Quotient(0, random_weights(rng))] * rng.randrange(2)
        rng.shuffle(terms)
        fold = Quotient()
        for t in terms:
            fold = fold + t
        got = quotient_sum(terms)
        assert got == fold
        largest = {}  # the common denominator: the largest exponent of each factor
        for t in terms:
            for k, e in t.den.items():
                if t.num:
                    largest[k] = max(e, largest.get(k, 0))
        assert got.den == fold.den == largest
        for x in points:
            assert got.evaluate(x) == sum((t.evaluate(x) for t in terms), Fraction(0))
    assert quotient_sum([]) == 0 and not quotient_sum([]).den
    zero_den = Quotient(0, (2, 2))
    assert quotient_sum([zero_den]).den == {} and quotient_sum([zero_den, Quotient(1, (3,))]).den == {3: 1}


def test_times_expfactors_equals_the_product():
    # about half the weights are +-(a key of u.den), so factors cancel: the
    # den loses one power of |w| for each w that still matches, in order
    rng = random.Random(8)
    zeros = 0
    for _ in range(300):
        u = Quotient(random_poly(rng), random_weights(rng))
        keys = sorted(u.den)
        ws = [
            rng.choice([-1, 1]) * (rng.choice(keys) if keys and rng.random() < 0.5 else rng.randrange(8))
            for _ in range(rng.randrange(5))
        ]
        got = times_expfactors(u, ws)
        assert got == u * expfactors(ws)
        den = dict(u.den)
        for w in ws:
            if den.get(abs(w)):
                den[abs(w)] -= 1
        assert got.den == {k: e for k, e in den.items() if e}
        if 0 in ws:
            zeros += 1
            assert not got.num
    assert zeros > 20


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(-12, 12), st.integers(-4, 4)),
    st.lists(st.integers(-7, 7).filter(bool), max_size=5),
    st.lists(st.integers(-7, 7), max_size=5),
)
def test_times_expfactors_cancels_the_denominator(coeffs, ws, extra):
    # a full cancellation gives p back with an empty den, without any
    # division; no factor ever adds to the degree of the denominator
    p = LaurentPoly(coeffs)
    full = times_expfactors(Quotient(p, ws), ws)
    assert full.den == {} and full.num == p and to_polynomial(full) == p

    def degree(u):
        return sum(k * e for k, e in u.den.items())

    u = Quotient(p, ws)
    assert degree(times_expfactors(u, extra)) <= degree(u)
