"""Exact symbolic arithmetic in a single equivariant variable.

Everything lives in one integer domain.  A Laurent polynomial in ``mu``
(``mu`` plays the role of e^t, with t the torus parameter) has integer
coefficients; an integer character of a torus representation is the
same object.  A residue summand of the localization formula is a
``Quotient``: an integer Laurent numerator over a product of factors
1 - mu^k with k > 0.  Those are the only denominators localization ever
produces, because a factor 1 - mu^-k is -mu^-k * (1 - mu^k) and its
sign and monomial move into the numerator.  Summands multiply by adding
exponents and add through ``quotient_sum``: it takes the largest
exponent of each factor over all summands first, then lifts each
numerator to that common denominator exactly once, so a long sum never
re-lifts a growing accumulator; even one summand comes back as a new
quotient.  Every operator coerces an integer operand by one rule,
``_binary``.  No gcd is ever taken, but a factor known to cancel is
never multiplied in only to be divided back out:
``times_expfactors`` cancels each factor 1 - mu^w against a power of
1 - mu^|w| in the denominator where there is one (for w < 0 the
numerator takes the sign and the monomial of 1 - mu^w = -mu^w *
(1 - mu^-w)), and only a factor with no match is multiplied into the
numerator.  Localization keeps each threefold point's Euler factor out
of its residue sum and applies it afterwards with ``times_expfactors``.

Certification is division with remainder.  A denominator
D = prod (1 - mu^k)^e_k has end coefficients 1 and +-1, so every integer
Laurent numerator N is uniquely N = P * D + R with P and R
integer Laurent polynomials and R supported in [0, deg D): long division
clears each weight below 0 with mu^i * D and each weight at or above
deg D with mu^(i - deg D) * D.  The split is linear in N, so the
remainder of a sum is the sum of the remainders, and N / D is a Laurent
polynomial exactly when R = 0.  ``divide_with_remainder`` is that split,
and localization certifies its total with it.  Rationals appear only in
``evaluate`` at a point and in the final ratio of Euler classes.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Tuple


#: distinct (weight, coefficient) terms kept rendered; the whole [0,12]^4 box of
#: the benchmark's case renders 300, one seed-1 loc-sweep pass 247
_TERMS_MAXSIZE = 1024


@lru_cache(maxsize=_TERMS_MAXSIZE)
def _term(w: int, c: int) -> str:
    """``+ c*mu^w`` or ``- |c|*mu^w``: a term as it reads after the first."""
    mag = abs(c)
    body = str(mag) if w == 0 else f"mu^{w}" if mag == 1 else f"{mag}*mu^{w}"
    return f"- {body}" if c < 0 else f"+ {body}"


def render_terms(coeffs: Mapping[int, int]) -> str:
    """Render sorted by ascending weight with explicit signs, e.g. ``1 - mu^3``."""
    if not coeffs:
        return "0"
    text = " ".join([_term(w, coeffs[w]) for w in sorted(coeffs)])
    return text[2:] if text[0] == "+" else "-" + text[2:]  # the first term's sign, unspaced


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _point(x) -> Fraction:
    """An exact evaluation point; floats are rejected on purpose."""
    if _is_int(x) or isinstance(x, Fraction):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _as_poly(x) -> LaurentPoly | None:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly._raw({0: x} if x else {}) if _is_int(x) else None


def _as_quotient(x) -> Quotient | None:
    if isinstance(x, Quotient):
        return x
    p = _as_poly(x)
    return None if p is None else Quotient._raw(p.coeffs, {})


def _binary(coerce):
    """Run a binary operator on ``coerce(other)``, or return NotImplemented where that is None."""

    def wrap(op):
        def method(self, other):
            o = coerce(other)
            return NotImplemented if o is None else op(self, o)

        return method

    return wrap


class LaurentPoly:
    """Sparse integer Laurent polynomial; weight -> coefficient, no zeros stored.

    Also the integer character of a torus representation, under the
    name ``VirtualCharacter``: weight -> multiplicity.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for w, c in items:
            if not _is_int(w):
                raise TypeError("weights must be integers")
            if not _is_int(c):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
            s = acc.get(w, 0) + c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        self.coeffs = acc

    @classmethod
    def _raw(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        out = cls.__new__(cls)
        out.coeffs = coeffs
        return out

    def coefficient(self, w: int) -> int:
        return self.coeffs.get(w, 0)

    def dual(self) -> "LaurentPoly":
        """mu -> mu^-1; on characters this is the dual representation."""
        return LaurentPoly._raw({-w: c for w, c in self.coeffs.items()})

    def evaluate(self, x) -> Fraction:
        x = _point(x)
        if x == 0 and any(w < 0 for w in self.coeffs):
            raise ZeroDivisionError("negative weight at x = 0")
        return sum((c * x**w for w, c in self.coeffs.items()), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @_binary(_as_poly)
    def __eq__(self, o) -> bool:
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self.coeffs.keys() <= {0}:  # a constant hashes like the integer it equals
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({w: -c for w, c in self.coeffs.items()})

    @_binary(_as_poly)
    def __add__(self, o):
        return LaurentPoly._raw(_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    @_binary(_as_poly)
    def __sub__(self, o):
        return self + (-o)

    @_binary(_as_poly)
    def __rsub__(self, o):
        return o + (-self)

    @_binary(_as_poly)
    def __mul__(self, o):
        return LaurentPoly._raw(_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return render_terms(self.coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self.coeffs.items()))!r})"


#: An integer combination of torus weight spaces is an integer Laurent polynomial.
VirtualCharacter = LaurentPoly


def _add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    acc = dict(a)
    for w, c in b.items():
        s = acc.get(w, 0) + c
        if s:
            acc[w] = s
        else:
            del acc[w]
    return acc


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    acc: dict[int, int] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            acc[w] = acc.get(w, 0) + c1 * c2
    return {w: c for w, c in acc.items() if c}


def _times_expfactor(a: dict[int, int], k: int, e: int) -> dict[int, int]:
    """a * (1 - mu^k)^e."""
    for _ in range(e):
        acc = dict(a)
        for w, c in a.items():
            s = acc.get(w + k, 0) - c
            if s:
                acc[w + k] = s
            else:
                del acc[w + k]
        a = acc
    return a


def expfactor(w: int) -> LaurentPoly:
    """The two-term factor 1 - mu^w (the zero polynomial when w = 0)."""
    return LaurentPoly._raw({0: 1, w: -1} if w else {})


class Quotient:
    """An integer Laurent numerator over prod_k (1 - mu^k)^e_k with k > 0.

    ``den`` maps each k to its exponent e_k > 0.  The form is not unique
    (no gcd is taken), so equality cross-multiplies and there is no hash.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den: Iterable[int] = ()):
        """num / prod (1 - mu^a) over the weights a in ``den``, none of them 0."""
        n = _as_poly(num)
        if n is None:
            raise TypeError("LaurentPoly or integer numerator expected")
        exps: dict[int, int] = {}
        sign, shift = 1, 0
        for a in den:
            if a == 0:
                raise ZeroDivisionError("factor 1 - mu^0 is zero")
            if a < 0:  # 1 / (1 - mu^-k) = -mu^k / (1 - mu^k)
                a = -a
                sign = -sign
                shift += a
            exps[a] = exps.get(a, 0) + 1
        self.num = LaurentPoly._raw({w + shift: sign * c for w, c in n.coeffs.items()})
        self.den = exps

    @classmethod
    def _raw(cls, num: dict[int, int], den: dict[int, int]) -> "Quotient":
        out = cls.__new__(cls)
        out.num = LaurentPoly._raw(num)
        out.den = den
        return out

    def den_poly(self) -> LaurentPoly:
        """The denominator multiplied out."""
        return LaurentPoly._raw(_expand(self.den))

    def dual(self) -> "Quotient":
        """mu -> mu^-1, with each 1 - mu^-k turned back into -mu^-k * (1 - mu^k)."""
        shift = sum(k * e for k, e in self.den.items())
        sign = -1 if sum(self.den.values()) % 2 else 1
        return Quotient._raw({shift - w: sign * c for w, c in self.num.coeffs.items()}, dict(self.den))

    def evaluate(self, x) -> Fraction:
        d = self.den_poly().evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {x}")
        return self.num.evaluate(x) / d

    def __bool__(self) -> bool:
        return bool(self.num)

    @_binary(_as_quotient)
    def __eq__(self, o) -> bool:
        return self.num * o.den_poly() == o.num * self.den_poly()

    def __neg__(self) -> "Quotient":
        return Quotient._raw({w: -c for w, c in self.num.coeffs.items()}, dict(self.den))

    @_binary(_as_quotient)
    def __add__(self, o):
        return quotient_sum((self, o))

    __radd__ = __add__

    @_binary(_as_quotient)
    def __sub__(self, o):
        return self + (-o)

    @_binary(_as_quotient)
    def __rsub__(self, o):
        return o + (-self)

    @_binary(_as_quotient)
    def __mul__(self, o):
        den = dict(self.den)
        for k, e in o.den.items():
            den[k] = den.get(k, 0) + e
        return Quotient._raw(_mul(self.num.coeffs, o.num.coeffs), den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.den:
            return str(self.num)
        factors = " * ".join(
            f"(1 - mu^{k})" + (f"^{e}" if e > 1 else "") for k, e in sorted(self.den.items())
        )
        return f"({self.num}) / {factors}"

    def __repr__(self) -> str:
        return f"Quotient({self.num!r}, {self.den!r})"


def _expand(den: Mapping[int, int]) -> dict[int, int]:
    """prod_k (1 - mu^k)^e_k multiplied out."""
    a = {0: 1}
    for k, e in den.items():
        a = _times_expfactor(a, k, e)
    return a


def _lift(q: Quotient, den: Mapping[int, int]) -> dict[int, int]:
    """Numerator of q over the larger denominator ``den``."""
    a = q.num.coeffs
    for k, e in den.items():
        e -= q.den.get(k, 0)
        if e:
            a = _times_expfactor(a, k, e)
    return a


def quotient_sum(terms: Iterable[Quotient]) -> Quotient:
    """The sum of the quotients over the largest exponent of each factor.

    The common denominator is fixed before any numerator is touched, so
    each summand is lifted exactly once.  Zero summands are skipped and
    add nothing to the denominator; the empty sum is 0.
    """
    terms = [t for t in terms if t.num]
    den: dict[int, int] = {}
    for t in terms:
        for k, e in t.den.items():
            if e > den.get(k, 0):
                den[k] = e
    acc: dict[int, int] = {}
    for t in terms:
        for w, c in _lift(t, den).items():
            acc[w] = acc.get(w, 0) + c
    return Quotient._raw({w: c for w, c in acc.items() if c}, den)


def times_expfactors(u: Quotient, weights: Iterable[int]) -> Quotient:
    """u times the product of the factors 1 - mu^w, cancelled where it can be.

    A factor whose 1 - mu^|w| the denominator holds takes one from that
    exponent instead of touching the numerator, except that for w < 0,
    1 - mu^w = -mu^w * (1 - mu^-w) negates the numerator and shifts it by
    w.  Only a factor with no match costs a two-term pass.
    """
    a = u.num.coeffs
    den = dict(u.den)
    for w in weights:
        k = abs(w)
        e = den.get(k)
        if not e:
            a = _times_expfactor(a, w, 1)
            continue
        if e == 1:
            del den[k]
        else:
            den[k] = e - 1
        if w < 0:
            a = {v + w: -c for v, c in a.items()}
    return Quotient._raw(a, den)


def divide_with_remainder(u: Quotient, den: Mapping[int, int]) -> tuple[LaurentPoly, LaurentPoly]:
    """(P, R) with u = P + R / D and R supported in [0, deg D), D = prod (1 - mu^k)^e_k.

    ``den`` maps k to e_k and must hold every factor of u's denominator
    at least as often; u's numerator is lifted to D first, so N = P * D + R
    for that lifted numerator N.  The split is unique and linear in u.
    """
    if any(e > den.get(k, 0) for k, e in u.den.items()):
        raise ValueError(f"denominator {dict(den)} does not contain {u.den}")
    rem, quo = _lift(u, den), {}
    d = _expand(den)  # 1 at weight 0, +-1 at weight deg D
    n = max(d)
    while rem and (i := min(rem)) < 0:  # clear the lowest weight with c * mu^i * D
        quo[i] = c = rem[i]
        rem = _add(rem, _mul({i: -c}, d))
    while rem and (i := max(rem)) >= n:  # then the highest with c * mu^(i - deg D) * D
        quo[i - n] = c = rem[i] * d[n]
        rem = _add(rem, _mul({i - n: -c}, d))
    # a fresh copy drops the slots its deletions left, which every per-class sum would walk
    return LaurentPoly._raw(quo), LaurentPoly._raw(dict(rem))


class EulerClass(NamedTuple):
    """An exact equivariant Euler class scalar * t**degree."""

    scalar: int
    degree: int

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.scalar)
        t = "t" if self.degree == 1 else f"t^{self.degree}"
        return t if self.scalar == 1 else f"{self.scalar}*{t}"


def euler_class(c: VirtualCharacter) -> EulerClass:
    """Product of weights of an honest representation without fixed part."""
    scalar = 1
    degree = 0
    for w, a in c.coeffs.items():
        if a < 0:
            raise ValueError(f"negative multiplicity {a} at weight {w}")
        if w == 0:
            raise ValueError("weight-0 subspace has no equivariant Euler class")
        scalar *= w**a
        degree += a
    return EulerClass(scalar, degree)
