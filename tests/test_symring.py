import operator
import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adebps.symring import (
    EulerClass,
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    _TERMS_MAXSIZE,
    _term,
    divide_with_remainder,
    euler_class,
    expfactor,
    quotient_sum,
    render_terms,
    times_expfactors,
)


def poly(d):
    return LaurentPoly(d)


def expfactors(weights):
    """The product of the factors 1 - mu^w over the weights."""
    return prod(map(expfactor, weights), start=LaurentPoly({0: 1}))


def polynomial_split(u):
    """(P, R) of u over its own denominator: u is the Laurent polynomial P exactly when R = 0."""
    return divide_with_remainder(u, u.den)


class TestExpfactor:
    def test_negative_weight(self):
        assert expfactor(-10) == poly({0: 1, -10: -1})

    def test_zero_weight_is_zero(self):
        assert not expfactor(0)
        assert expfactor(0) == poly({})

    def test_positive_weight(self):
        assert expfactor(3) == poly({0: 1, 3: -1})

    def test_coefficient(self):
        assert poly({1: 2, -3: -1}).coefficient(-3) == -1 and poly({1: 2}).coefficient(0) == 0

    def test_product_of_factors(self):
        # a denominator multiplied out is the product of its factors
        assert Quotient(1, (2, 3, 2)).den_poly() == expfactor(2) * expfactor(2) * expfactor(3)
        assert Quotient(1, (-6, -2)).den_poly() == expfactor(6) * expfactor(2)
        assert Quotient(1).den_poly() == LaurentPoly({0: 1})


class TestLaurentPoly:
    def test_constant_hashes_like_its_integer(self):
        assert len({1, LaurentPoly({0: 1})}) == 1
        assert hash(LaurentPoly()) == hash(0)
        assert hash(poly({0: -7})) == hash(-7) and {poly({0: -7}): 1}[-7] == 1
        assert len({poly({1: 2, 0: 1}), poly({0: 1, 1: 2}), poly({1: 2})}) == 2

    def test_no_zero_coefficients_stored(self):
        p = poly({2: 1}) - poly({2: 1})
        assert p.coeffs == {}
        assert LaurentPoly([(1, 2), (3, 1), (1, -2)]).coeffs == {3: 1}  # a weight that sums to 0 is dropped

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 0.5})
        with pytest.raises(TypeError, match="integer"):
            LaurentPoly({0: Fraction(1, 2)})
        for w in (0.5, Fraction(1), True):
            with pytest.raises(TypeError, match="weights must be integers"):
                LaurentPoly({w: 1})

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
        for q in (p, poly({-1: 1})):
            with pytest.raises(ZeroDivisionError, match="negative weight at x = 0"):
                q.evaluate(Fraction(0))
        assert expfactor(2).evaluate(0) == 1 and LaurentPoly({1: 3}).evaluate(0) == 0
        for x in (0.5, 2.0, True):
            with pytest.raises(TypeError, match="exact rational expected"):
                p.evaluate(x)

    def test_character_is_the_same_type(self):
        assert VirtualCharacter({0: 1, 3: -1}) == expfactor(3)


class TestRatFn:
    """Rational functions of mu in the form N / prod (1 - mu^k)^e, k > 0."""

    def test_self_division(self):
        u = Quotient(expfactor(1), (1,))
        assert u == 1
        assert polynomial_split(u) == (LaurentPoly({0: 1}), 0)

    def test_two_summand_character(self):
        a = Quotient(expfactor(-10) * expfactor(3) * expfactor(-1), (4,))
        b = Quotient(expfactor(-6) * expfactor(-5) * expfactor(-1), (-4,))
        want = poly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1})
        assert a + b == want
        assert polynomial_split(a + b) == (want, 0)

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
        # every pole is a root of unity: evaluation there raises, next to it is exact
        for x in (1, -1):
            with pytest.raises(ZeroDivisionError, match=f"denominator vanishes at {x}"):
                Quotient(1, (2,)).evaluate(x)
        assert Quotient(1, (1,)).evaluate(-1) == Fraction(1, 2)

    def test_render(self):
        assert str(Quotient(1, (1,))) == "(1) / (1 - mu^1)"
        assert str(Quotient(expfactor(2), (-1, -1, 3))) == "(mu^2 - mu^4) / (1 - mu^1)^2 * (1 - mu^3)"
        assert str(Quotient(expfactor(2))) == "1 - mu^2"

    def test_sum_over_largest_exponents(self):
        u = Quotient(1, (2,)) + Quotient(1, (2, 2, 3))
        assert u.den == {2: 2, 3: 1}
        assert u * expfactors((2, 2, 3)) == expfactor(2) * expfactor(3) + 1

    def test_truth_and_hash(self):
        # zero whatever the denominator; unhashable, since equal quotients may have different forms
        assert not Quotient() and not Quotient(0, (2, 2)) and Quotient(1, (2,))
        with pytest.raises(TypeError, match="unhashable"):
            hash(Quotient(1, (2,)))

    def test_equality_cross_multiplies(self):
        # different forms of the same function are equal
        assert Quotient(expfactor(2), (1,)) == poly({0: 1, 1: 1})
        assert Quotient(expfactor(1), (1, 2)) == Quotient(1, (2,))
        assert Quotient(1, (2,)) != Quotient(1, (1,))
        assert Quotient(expfactor(2), (1,)) != 1


class TestToPolynomial:
    """A quotient is a Laurent polynomial exactly when its remainder over its own denominator is 0."""

    def test_exact_division(self):
        u = Quotient(expfactor(-10), (-5,))
        assert polynomial_split(u) == (VirtualCharacter({0: 1, -5: 1}), 0)

    def test_non_polynomial_rejected(self):
        assert polynomial_split(Quotient(1, (1,))) == (0, 1)
        # 1 - mu^6 is divisible by 1 - mu^2 and by 1 - mu^3, not by their product
        assert polynomial_split(Quotient(expfactor(6), (2, 3)))[1]

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError, match="integer"):
            Quotient(LaurentPoly({0: Fraction(1, 2)}))
        for num in (Fraction(1, 2), 0.5, "1"):
            with pytest.raises(TypeError, match="LaurentPoly or integer numerator expected"):
                Quotient(num)

    def test_embedding_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            p = LaurentPoly({rng.randrange(-12, 13): rng.randrange(-5, 6) for _ in range(4)})
            assert polynomial_split(Quotient(p)) == (p, 0)
            ks = [rng.choice([-1, 1]) * rng.randrange(1, 7) for _ in range(rng.randrange(4))]
            assert polynomial_split(Quotient(p * expfactors(ks), ks)) == (p, 0)


_LAURENT = st.dictionaries(st.integers(-15, 30), st.integers(-6, 6), max_size=8).map(LaurentPoly)
_DENOMINATORS = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4)


def _rendered(coeffs):
    """``render_terms`` by its definition, term by term: ascending weights, each sign spelled out."""
    out = []
    for w in sorted(coeffs):
        c = coeffs[w]
        mag = abs(c)
        if w == 0:
            body = str(mag)
        elif mag == 1:
            body = f"mu^{w}"
        else:
            body = f"{mag}*mu^{w}"
        if not out:
            out.append("-" + body if c < 0 else body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


@st.composite
def _sparse_terms(draw):
    """A sparse weight -> nonzero coefficient dict, often with weight 0, coefficients +-1 and a negative lowest term."""
    coefficient = st.one_of(st.sampled_from([1, -1]), st.integers(-10**6, 10**6).filter(bool))
    coeffs = draw(st.dictionaries(st.integers(-10**4, 10**4), coefficient, max_size=12))
    if draw(st.booleans()):
        coeffs[0] = draw(coefficient)
    if coeffs and draw(st.booleans()):
        lowest = min(coeffs)
        coeffs[lowest] = -abs(coeffs[lowest])
    return coeffs


# more distinct terms than the memo holds, in one call: it evicts while it renders
@example({w: (1 if w % 2 else -1) * (1 + w % 3) for w in range(-_TERMS_MAXSIZE, 1)})
@settings(max_examples=100, deadline=None)
@given(_sparse_terms())
def test_render_terms_matches_its_definition(coeffs):
    assert render_terms(coeffs) == _rendered(coeffs)
    assert str(LaurentPoly(coeffs)) == _rendered(coeffs)
    assert _term.cache_info().currsize <= _TERMS_MAXSIZE


@settings(max_examples=200, deadline=None)
@given(_LAURENT, _LAURENT, _DENOMINATORS, st.integers(-3, 3))
def test_division_with_remainder(n, n2, den, scale):
    # N = P * D + R with R in [0, deg D), linear in N; N / D is a polynomial iff R = 0
    u = Quotient._raw(n.coeffs, den)
    d = u.den_poly()
    p, r = divide_with_remainder(u, den)
    assert p * d + r == n
    assert all(0 <= w < sum(k * e for k, e in den.items()) for w in r.coeffs)
    p2, r2 = divide_with_remainder(Quotient._raw(n2.coeffs, den), den)
    p3, r3 = divide_with_remainder(Quotient._raw((scale * n + n2).coeffs, den), den)
    assert (p3, r3) == (scale * p + p2, scale * r + r2)
    assert polynomial_split(Quotient._raw((n2 * d).coeffs, den)) == (n2, 0)
    # unique: a numerator built as P * D + R, R in range, divides back into P and R
    assert divide_with_remainder(Quotient._raw((n2 * d + r2).coeffs, den), den) == (n2, r2)
    # a quotient over a smaller denominator is lifted to D first
    smaller = {k: e - 1 for k, e in den.items() if e > 1}
    pv, rv = divide_with_remainder(Quotient._raw(n.coeffs, smaller), den)
    assert pv * d + rv == n * polynomial_split(Quotient._raw(d.coeffs, smaller))[0]


#: inputs the property above never draws: factors 1 - mu^k with k > 6 or e_k > 3,
#: weights outside [-15, 30] and coefficients beyond +-6
_EDGE_DIVISIONS = {
    "zero numerator": ({}, {7: 1, 9: 4}),
    "constant denominator": ({-40: 11, 0: -3, 55: 10**9}, {}),
    "inside [0, deg D)": ({0: 10**6, 5: 3, 41: -7}, {1: 4, 8: 2, 11: 2}),
    "below 0": ({-50: 3, -31: -1, -1: 8}, {1: 1, 7: 2}),
    "at or above deg D": ({15: 9, 100: -2}, {1: 1, 7: 2}),
}


@pytest.mark.parametrize("num, den", _EDGE_DIVISIONS.values(), ids=_EDGE_DIVISIONS)
def test_division_at_the_edges(num, den):
    u = Quotient._raw(num, den)
    deg = sum(k * e for k, e in den.items())
    p, r = divide_with_remainder(u, den)
    assert p * u.den_poly() + r == LaurentPoly(num)
    assert all(0 <= w < deg for w in r.coeffs)
    if not num:
        assert (p, r) == (0, 0)
    elif not den:
        assert (p, r) == (LaurentPoly(num), 0)
    elif 0 <= min(num) and max(num) < deg:
        assert (p, r) == (0, LaurentPoly(num))
    else:
        assert p


def test_division_needs_the_denominator_of_u():
    # each exponent one short, or a factor missing, of u's denominator
    for ks, den in (((2, 2), {2: 1}), ((3,), {}), ((3,), {2: 1}), ((1, 2, 2), {1: 1, 2: 1})):
        with pytest.raises(ValueError, match="does not contain"):
            divide_with_remainder(Quotient(1, ks), den)
    assert divide_with_remainder(Quotient(), {}) == (0, 0)


class TestDualize:
    def test_golden_character(self):
        ch = poly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1})
        assert ch.dual() == poly({0: 1, 2: -1, 6: -1, 7: 1, 10: -1, 11: 1})

    def test_unit_fixed(self):
        assert LaurentPoly({0: 1}).dual() == LaurentPoly({0: 1})

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


def test_operators_coerce_integers_on_either_side():
    # an integer operand becomes a constant on either side, a polynomial
    # meets a quotient through the quotient's reflected operators, and any
    # other operand is refused by both sides, so Python raises its own
    # TypeError for the operator and the two types, or compares unequal
    p, u = poly({1: 2, 0: -1}), Quotient(expfactor(2), (1,))
    assert 3 + p == p + 3 == poly({1: 2, 0: 2})
    assert 3 - p == -(p - 3) == poly({1: -2, 0: 4})
    assert 3 * p == p * 3 == poly({1: 6, 0: -3})
    assert 1 + u == u + 1 == Quotient(expfactor(2) + expfactor(1), (1,))
    assert 2 * u == u * 2 == u + u and u - 1 == Quotient(expfactor(2) - expfactor(1), (1,))
    assert p + u == u + p == Quotient(p * expfactor(1) + expfactor(2), (1,))
    assert p * u == u * p == Quotient(p * expfactor(2), (1,))
    assert 1 - u == -(u - 1) == Quotient(expfactor(1) - expfactor(2), (1,))
    assert p - u == -(u - p) == Quotient(p * expfactor(1) - expfactor(2), (1,))
    for x in (p, u):
        assert x != "x" and x != 0.5
        for op, sign in ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*")):
            for a, b in ((x, None), (None, x), (x, 0.5), (0.5, x)):
                message = f"unsupported operand type(s) for {sign}: '{type(a).__name__}' and '{type(b).__name__}'"
                with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                    op(a, b)


def test_laurent_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(1000):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LaurentPoly() == p
        assert p * LaurentPoly({0: 1}) == p


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
    assert full.den == {} and full.num == p and polynomial_split(full) == (p, 0)

    def degree(u):
        return sum(k * e for k, e in u.den.items())

    u = Quotient(p, ws)
    assert degree(times_expfactors(u, extra)) <= degree(u)
