"""Equivariant localization over a fixed-point descriptor.

The data of a descriptor (see ``descriptor``) is enough to restrict the
structure sheaf of a lifted divisor to every fixed component, push it
down, and assemble the full equivariant Euler pairing as an exact
integer character; its positive/negative parts give the obstruction and
deformation spaces whose Euler-class ratio is the invariant.

The single geometric rule used throughout: the fiber weight of O(-Z) at
a fixed point is minus the sum, over divisors through the point, of
(multiplicity of the divisor in Z) times (tangent weight of the
direction normal to that divisor).  On a pointwise-fixed curve the fiber
weight is constant, the along-curve direction has weight 0, and the
restriction degree is minus the intersection number with the curve.

Localization runs in three steps.  ``_resolve`` resolves a descriptor
against a marking once and runs every hard check of
``descriptor._checked_components``.  Every entry point runs it, so bad
data raises DescriptorError before any class is localized;
``validate_descriptor`` runs the same checks, uncached, and adds only
the one soft warning.  ``_resolve`` also fixes one common denominator D
of all contributions, from the weights alone, and compiles each
threefold point p to a ``_Point`` found by name: a getter of its support
(the lift entries it reads) and a plan that turns those into p's key,
namely its tangent weights, (tangent weights, weight) per surface point,
(weight, degree, normal weight) per fixed curve over p, and D; no
self-intersection, as ``_resolve`` checks that each fixed curve is a
(-2)-curve.  Per class, a point is one getter call and one lookup in the
memo ``_point_record`` by (plan, support values), whose misses read
``_point_sums`` by key; both return the one shared ``PointRecord`` of a
key: ch_p, the contribution, its split N_p = P_p * D + R_p, and the
weight and residue summand of each surface point and the weight and
degree of each fixed curve over p.  The total is the sum of the P_p,
integral exactly when the R_p cancel.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .descriptor import GeometryDescriptor, YPoint, _checked_components
from .folding import CurveClass, LiftedDivisor, Marking, lift
from .symring import (
    EulerClass,
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    divide_with_remainder,
    euler_class,
    expfactor,
    quotient_sum,
    times_expfactors,
)

#: distinct point keys kept by the residue memo and (plan, support values)
#: pairs kept by the record memo; one loc-sweep pass needs 111 and 286
_POINT_SUMS_MAXSIZE, _POINT_RECORDS_MAXSIZE = 1024, 4096
#: (descriptor, marking) pairs kept resolved; a process usually holds one
_RESOLVE_MAXSIZE = 8


class _Point(NamedTuple):
    """A threefold point y compiled: ``plan(read(lft.full))`` is its key for a lift."""

    read: Callable  # the lift entries y reads: its support values
    plan: Callable  # support values -> the key of y for ``_point_sums``


@lru_cache(maxsize=_RESOLVE_MAXSIZE)
def _resolve(g: GeometryDescriptor, m: Marking) -> dict[str, _Point]:
    """Each threefold point compiled to a ``_Point``, by name, in descriptor order.

    Raises DescriptorError on every check that ``_checked_components``
    lists, in its order, before it compiles anything.
    """
    over = _checked_components(g, m)
    exps = Counter()  # D's exponents: the largest of each over the points
    for p, c in over.items():
        exps |= _point_exponents(p, *c)
    den = tuple(sorted(exps.items()))
    plans = {}
    for p, (points, curves) in over.items():
        support = sorted({j for _, form in points for j, _ in form}.union(*(nodes for _, nodes in curves)))
        at = support.index
        qs = tuple((q.weights, tuple((at(j), c) for j, c in form)) for q, form in points)
        es = tuple((tuple(map(at, nodes)), e.normal_weight) for e, nodes in curves)
        plans[p.name] = _Point(tuple_getter(tuple(support)), partial(_point_key, p.weights, qs, es, den))
    return plans


def tuple_getter(indices: tuple[int, ...]):
    """The entries at ``indices`` of a tuple, as a tuple, by one ``itemgetter``."""
    if not indices:
        return itemgetter(slice(0))
    if len(indices) == 1:  # itemgetter of one index returns a scalar, so read a one-entry slice
        (i,) = indices
        return itemgetter(slice(i, i + 1))
    return itemgetter(*indices)


def _point_exponents(p: YPoint, points, curves) -> Counter:
    """k -> e_k of p's share of D: the largest exponent of each 1 - mu^k over its residue
    denominators, doubled, less one per tangent weight of p, as ``_point_sums`` cancels it."""
    largest = Counter()
    for q, _ in points:
        largest |= Counter(map(abs, q.weights))
    for e, _ in curves:
        largest |= Counter({abs(e.normal_weight): 2})
    return largest + largest - Counter(map(abs, p.weights))


def _point_key(weights, points, curves, den, v: tuple[int, ...]) -> tuple:
    """The key of a threefold point for ``_point_sums``, from its support values ``v``."""
    return (weights, tuple((t, sum([v[i] * c for i, c in form])) for t, form in points),
            tuple((-n * v[i], 2 * v[i] - sum([v[j] for j in nbs]), n) for (i, *nbs), n in curves), den)


# Every residue summand over a threefold point p carries the same
# prefactor E_p = e(N)/td of p, the product of 1 - mu^-w over its tangent
# weights w.  The kernel keeps it out: S_p sums the residues without it,
# so ch_p = E_p * S_p, and the contribution ch_p^dual * ch_p / E_p is
# E_p^dual * S_p^dual * S_p, in which E_p never has to be divided back out.


def _point_residue(w: int, weights: tuple[int, int]) -> Quotient:
    """Residue of one isolated surface point, without its image's prefactor."""
    return Quotient(expfactor(w), (-weights[0], -weights[1]))


def _curve_residue(w: int, d: int, n: int) -> Quotient:
    """Push-down of a pointwise-fixed (-2)-curve, without its image's prefactor.

    Over the curve, with x its point class (x^2 = 0), the restriction is
    A + A'x with A = 1 - mu^w, A' = -d*mu^w; the tangent line has weight
    0 and degree 2 (Todd factor 1 + x); the normal line, of weight n and
    degree -2, gives B + B'x with B = 1 - mu^-n, B' = -2*mu^-n.  The
    push-down is the x-coefficient of (A + A'x)(1 + x)/(B + B'x), that is
    ((A + A')B - AB')/B^2.
    """
    a = expfactor(w)
    a1 = LaurentPoly._raw({w: -d} if d else {})
    b = expfactor(-n)
    b1 = LaurentPoly._raw({-n: -2})
    return Quotient((a + a1) * b - a * b1, (-n, -n))


class PointRecord(NamedTuple):
    """A threefold point p's share of one class; equal keys share one record, so it is read-only.

    ``contribution`` = quo + rem / D with rem in [0, deg D).  ``surface`` holds
    (w_q, residue summand with p's prefactor) per surface point over p and
    ``curves`` (w_e, d_e) per fixed curve over p, each in descriptor order;
    the record carries no names, so read them from the descriptor.
    """

    ch: Quotient
    contribution: Quotient
    quo: LaurentPoly
    rem: LaurentPoly
    surface: tuple[tuple[int, Quotient], ...]
    curves: tuple[tuple[int, int], ...]


@lru_cache(maxsize=_POINT_SUMS_MAXSIZE)
def _point_sums(weights, points, curves, den) -> PointRecord:
    """The record of a threefold point, from its key.

    ch_p = E_p * S_p, and each surface point's summand is its residue
    times E_p.  Each factor 1 - mu^w of E_p and of E_p^dual cancels a
    power of 1 - mu^|w| in the denominator where there is one.
    """
    residues = [_point_residue(w, tangent) for tangent, w in points]
    s = quotient_sum([*residues, *(_curve_residue(*c) for c in curves)])
    c = times_expfactors(s.dual() * s, weights) if s else s
    prefactor = [-w for w in weights]  # E_p's factors are 1 - mu^-w
    return PointRecord(times_expfactors(s, prefactor), c, *divide_with_remainder(c, dict(den)),
                       tuple((w, times_expfactors(r, prefactor)) for (_, w), r in zip(points, residues)),
                       tuple((w, d) for w, d, _ in curves))


@lru_cache(maxsize=_POINT_RECORDS_MAXSIZE)
def _point_record(plan, vals: tuple[int, ...]) -> PointRecord:
    """The shared record of the point compiled to ``plan`` (an identity key) at support values ``vals``."""
    return _point_sums(*plan(vals))


def _point_records(lft: LiftedDivisor, g: GeometryDescriptor, m: Marking) -> dict[str, PointRecord]:
    """The shared record of each threefold point, by name, in descriptor order."""
    full = lft.full
    return {name: _point_record(pt.plan, pt.read(full)) for name, pt in _resolve(g, m).items()}


def _certified_sum(records) -> VirtualCharacter:
    """The sum of the point records' contributions, certified integral.

    Each record holds its split P_p + R_p / D over the one D of its
    resolution, a common multiple of the contributions' denominators (one
    short of a factor raises in ``divide_with_remainder``).  The split is
    unique and linear, so the total is the sum of the P_p, and D divides
    the sum of the numerators exactly when the R_p cancel.
    """
    first, *others = records
    total, rest = dict(first.quo.coeffs), dict(first.rem.coeffs)  # the sums of the P_p and of the R_p
    get_total, get_rest = total.get, rest.get
    for r in others:
        for w, c in r.quo.coeffs.items():
            total[w] = get_total(w, 0) + c
        for w, c in r.rem.coeffs.items():
            rest[w] = get_rest(w, 0) + c
    if any(rest.values()):
        raise ValueError("not a polynomial: the remainders over the common denominator do not cancel")
    return LaurentPoly._raw({w: c for w, c in total.items() if c})


def total_chi(lft: LiftedDivisor, g: GeometryDescriptor, m: Marking) -> VirtualCharacter:
    """Full equivariant Euler pairing as an integer character.

    Sums ch^dual * ch / (e(N)/td) over the threefold fixed points; the
    result must divide out to an honest Laurent polynomial with integer
    coefficients, otherwise the descriptor and the lift are inconsistent.
    """
    full = lft.full
    return _certified_sum([_point_record(pt.plan, pt.read(full)) for pt in _resolve(g, m).values()])


class ExtDecomposition(NamedTuple):
    """Splitting 1 - ext1 + ext2 - mu^serre of an Euler pairing character."""

    ext1: VirtualCharacter
    ext2: VirtualCharacter


def ext_decompose(chi: VirtualCharacter, serre_weight: int) -> ExtDecomposition:
    """Split off the unit and Serre-dual parts and separate the rest by sign.

    ``serre_weight`` is minus the descriptor's canonical weight, so no one
    value can be its default.  A weight-0 remainder or a dimension mismatch
    means the splitting assumption fails; that is an error, never a silent
    cancellation.
    """
    if chi.coefficient(0) != 1:
        raise ValueError(f"weight-0 part of chi is {chi.coefficient(0)}, expected 1")
    if serre_weight == 0:  # the Serre part lands on weight 0, where the unit part was removed
        raise ValueError("weight-0 residue after removing unit and Serre parts")
    ext1, ext2 = {}, ({} if serre_weight in chi.coeffs else {serre_weight: 1})  # chi - 1 + mu^serre
    for w, c in chi.coeffs.items():  # one pass, split by sign
        if w == serre_weight:
            c += 1
        if c > 0 and w:
            ext2[w] = c
        elif c < 0:
            ext1[w] = -c
    dim1, dim2 = sum(ext1.values()), sum(ext2.values())
    if dim1 != dim2:
        raise ValueError(f"dimension mismatch: dim ext1 {dim1} != dim ext2 {dim2}")
    return ExtDecomposition(LaurentPoly._raw(ext1), LaurentPoly._raw(ext2))


class LocalizationResult(NamedTuple):
    """Every stage of the localization of one class, from the lift to n."""

    lift: LiftedDivisor
    points: dict[str, PointRecord]  # each threefold point's record, by name, in descriptor order
    chi: VirtualCharacter
    ext: ExtDecomposition
    euler_ext1: EulerClass
    euler_ext2: EulerClass
    n: Fraction  # the invariant e(ext2) / e(ext1)


def localize_class(cls: CurveClass, m: Marking, g: GeometryDescriptor) -> LocalizationResult:
    """Localize a root class: lift, point records, chi, Ext split, Euler classes, n."""
    lft = lift(cls, m)
    if lft.self_pairing != -2:
        raise ValueError(f"class {','.join(map(str, cls))} does not come from a positive root")
    points = _point_records(lft, g, m)
    chi = _certified_sum(points.values())
    ext = ext_decompose(chi, serre_weight=-g.canonical_weight)
    e1, e2 = euler_class(ext.ext1), euler_class(ext.ext2)
    return LocalizationResult(lft, points, chi, ext, e1, e2, Fraction(e2.scalar, e1.scalar))


def bps_from_localization(cls: CurveClass, m: Marking, g: GeometryDescriptor) -> Fraction:
    """Invariant of a class as the Euler-class ratio at its fixed sheaf."""
    return localize_class(cls, m, g).n

