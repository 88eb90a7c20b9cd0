"""Fixed-point geometry descriptors and equivariant localization.

A descriptor records the torus-fixed points of the threefold, the fixed
points and pointwise-fixed rational curves of the surface over them,
tangent weights, and which divisors pass through each fixed point with
which normal-direction weight.  That data is enough to restrict the
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
against a marking once and runs every hard check its docstring lists.
Every entry point runs it, so bad data raises DescriptorError before any
class is localized; ``validate_descriptor`` runs the same checks,
uncached, and adds only the one soft warning.  ``_resolve`` also fixes
one common denominator D of all contributions, from the weights alone,
and compiles each threefold point p to a ``_Point`` found by name: a
getter of its support (the lift entries it reads) and a plan that turns
those into p's key, namely its tangent weights, (tangent weights,
weight) per surface point, (weight, degree, normal weight) per fixed
curve over p, and D; no self-intersection, as ``_resolve`` checks that
each fixed curve is a (-2)-curve.  Per class, a point is one getter
call and one lookup in the memo ``_point_record`` by (plan, support
values), whose misses read ``_point_sums`` by key; both return the one
shared ``PointRecord`` of a key: ch_p, the contribution, its split
N_p = P_p * D + R_p, and the weight and residue summand of each surface
point and the weight and degree of each fixed curve over p.  The total
is the sum of the P_p, integral exactly when the R_p cancel.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, NamedTuple

from .folding import CurveClass, LiftedDivisor, Marking, divisor_labels, lift
from .rootsys import parse_int
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


class DescriptorError(ValueError):
    """Malformed or inconsistent fixed-point data."""


class Incidence(NamedTuple):
    divisor: str  # label of a marked-diagram node, e.g. "F2" or "E1"
    weight: int


class YPoint(NamedTuple):
    name: str
    weights: tuple[int, int, int]


class SPoint(NamedTuple):
    name: str
    weights: tuple[int, int]
    image: str
    incidences: tuple[Incidence, ...]


class SCurve(NamedTuple):
    """A pointwise-fixed rational curve; its name is its divisor label."""

    name: str
    image: str
    normal_weight: int
    self_intersection: int
    incidences: tuple[Incidence, ...]  # crossing divisors with transverse weight


class GeometryDescriptor(NamedTuple):
    y_points: tuple[YPoint, ...]
    s_points: tuple[SPoint, ...]
    s_curves: tuple[SCurve, ...]
    canonical_weight: int = -3

    def y_point(self, name: str) -> YPoint:
        for y in self.y_points:
            if y.name == name:
                return y
        raise DescriptorError(f"unknown fixed point {name!r}")


def _node_of(label: str, labels: dict[str, int]) -> int:
    try:
        return labels[label]
    except KeyError:
        raise DescriptorError(f"unknown divisor label {label!r}") from None


def _checked_components(g: GeometryDescriptor, m: Marking) -> dict[YPoint, tuple[list, list]]:
    """The check walk of :func:`_resolve`, whose docstring lists its checks.

    Returns, per threefold point, its surface points with their forms
    (node, coefficient) and its fixed curves with (node, *neighbours).
    """
    labels = divisor_labels(m)
    names = [x.name for x in (*g.y_points, *g.s_points, *g.s_curves)]
    if len(set(names)) != len(names):
        raise DescriptorError("component names are not unique")
    for y in g.y_points:
        if sum(y.weights) != -g.canonical_weight:
            raise DescriptorError(
                f"tangent weights of {y.name} sum to {sum(y.weights)}, expected {-g.canonical_weight}"
            )
    over: dict[YPoint, tuple[list, list]] = {p: ([], []) for p in g.y_points}
    ends: dict[str, list[int]] = {}  # along-curve weight at each fixed end, by divisor label
    for q in g.s_points:
        p = g.y_point(q.image)
        if len(q.incidences) > 2:
            raise DescriptorError(f"{q.name}: more than two divisors through a surface point")
        pool = list(q.weights)
        for inc in q.incidences:
            _node_of(inc.divisor, labels)
            if inc.weight not in pool:
                raise DescriptorError(
                    f"{q.name}: incidence weight {inc.weight} not among tangent weights {q.weights}"
                )
            pool.remove(inc.weight)
            ends.setdefault(inc.divisor, []).append(sum(q.weights) - inc.weight)
        over[p][0].append((q, tuple((labels[inc.divisor], -inc.weight) for inc in q.incidences)))
    for e in g.s_curves:
        g.y_point(e.image)
        _node_of(e.name, labels)
        for inc in e.incidences:
            _node_of(inc.divisor, labels)
            ends.setdefault(inc.divisor, []).append(inc.weight)
        if e.normal_weight == 0:
            raise DescriptorError(f"curve {e.name!r} has normal weight 0: not invertible")
        if e.self_intersection != -2:  # every node of an ADE diagram is a (-2)-curve
            raise DescriptorError(f"curve {e.name!r} has self-intersection {e.self_intersection}, not -2")
    curve_labels = {e.name for e in g.s_curves}
    for label in labels:
        got = ends.get(label, [])
        if label in curve_labels:
            if got:
                raise DescriptorError(f"fixed curve {label} also appears in incidence data")
        elif len(got) != 2:
            raise DescriptorError(f"divisor {label} has {len(got)} fixed ends, expected 2")
        elif sum(got) != 0:
            raise DescriptorError(f"divisor {label}: end weights {got} do not cancel")
    for e in g.s_curves:
        crossings = {inc.weight for inc in e.incidences} | {e.normal_weight}
        if len(crossings) > 1:
            raise DescriptorError(f"inconsistent crossing weights on {e.name!r}: {sorted(crossings)}")
        node = labels[e.name]
        over[g.y_point(e.image)][1].append((e, (node, *m.diagram.neighbors(node))))
    for x in [*g.s_points, *(p for p, (points, curves) in over.items() if points or curves)]:
        if 0 in x.weights:
            raise DescriptorError(f"{x.name}: tangent weight 0: degenerate fixed point")
    return over


class _Point(NamedTuple):
    """A threefold point y compiled: ``plan(read(lft.full))`` is its key for a lift."""

    read: Callable  # the lift entries y reads: its support values
    plan: Callable  # support values -> the key of y for ``_point_sums``


@lru_cache(maxsize=_RESOLVE_MAXSIZE)
def _resolve(g: GeometryDescriptor, m: Marking) -> dict[str, _Point]:
    """Each threefold point compiled to a ``_Point``, by name, in descriptor order.

    Raises DescriptorError, in this order, on: names that are not
    unique across all components; threefold tangent triples not summing
    to minus the canonical weight; unknown images and labels; more than
    two divisors through a surface point, or an incidence weight not
    among its tangent weights; normal weight 0; a fixed curve's
    self-intersection other than -2; a divisor other than a fixed curve
    without exactly two fixed ends whose along-curve weights cancel, or a
    fixed curve in incidence data; a crossing weight other than the
    curve's normal weight; and a degenerate fixed point with something
    over it.
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


# -- descriptor validation -------------------------------------------------


def validate_descriptor(g: GeometryDescriptor, m: Marking) -> list[str]:
    """The hard checks of ``_resolve`` (raise DescriptorError) plus one soft
    warning, returned: surface tangent weights not summing to 1.
    """
    _checked_components(g, m)
    return [f"{q.name}: tangent weights sum to {sum(q.weights)}, not 1"
            for q in g.s_points if sum(q.weights) != 1]


# -- descriptor file format --------------------------------------------------
#
# Versioned header, three sections, '#' starts a comment:
#
#   DESCRIPTOR-VERSION 1
#   CANONICAL-WEIGHT -3
#   Y-POINTS
#   <name> <w1> <w2> <w3>
#   S-POINTS
#   <name> <w1> <w2> <image> [<divisor>:<normal weight> ...]
#   S-CURVES
#   <name> <image> <normal weight> <self-intersection> [<divisor>:<weight> ...]
#
# Divisors are referred to by their marked-diagram labels F1..Fr, E1..Es;
# the name of an S-CURVES entry is the label of the curve itself.


def _int(tok: str, lineno: int) -> int:
    try:
        return parse_int(tok)
    except ValueError:
        raise DescriptorError(f"line {lineno}: expected an integer, got {tok!r}") from None


def _incidences(tokens: list[str], lineno: int) -> tuple[Incidence, ...]:
    out = []
    for tok in tokens:
        div, _, w = tok.partition(":")
        if not div or not w:
            raise DescriptorError(f"line {lineno}: bad incidence {tok!r}")
        out.append(Incidence(div, _int(w, lineno)))
    return tuple(out)


def _y_point(tokens: list[str], lineno: int) -> YPoint:
    if len(tokens) != 4:
        raise DescriptorError(f"line {lineno}: Y point needs name and 3 weights")
    return YPoint(tokens[0], tuple(_int(t, lineno) for t in tokens[1:]))


def _s_point(tokens: list[str], lineno: int) -> SPoint:
    if len(tokens) < 4:
        raise DescriptorError(f"line {lineno}: S point needs name, 2 weights, image")
    name, w1, w2, image, *incs = tokens
    return SPoint(name, (_int(w1, lineno), _int(w2, lineno)), image, _incidences(incs, lineno))


def _s_curve(tokens: list[str], lineno: int) -> SCurve:
    if len(tokens) < 4:
        raise DescriptorError(f"line {lineno}: S curve needs name, image, normal weight, self-intersection")
    name, image, normal, self_int, *incs = tokens
    return SCurve(name, image, _int(normal, lineno), _int(self_int, lineno), _incidences(incs, lineno))


_HEADERS = ("DESCRIPTOR-VERSION", "CANONICAL-WEIGHT")
#: each section, in file and GeometryDescriptor field order, with the reader of its rows
_SECTIONS = {"Y-POINTS": _y_point, "S-POINTS": _s_point, "S-CURVES": _s_curve}


def parse_descriptor(text: str) -> GeometryDescriptor:
    headers: dict[str, int] = {}
    section: str | None = None
    rows: dict[str, list] = {head: [] for head in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0].upper()
        if head in _HEADERS and len(tokens) == 2:
            if head in headers:
                raise DescriptorError(f"line {lineno}: repeated {head}")
            headers[head] = value = _int(tokens[1], lineno)
            if head == "DESCRIPTOR-VERSION" and value != 1:
                raise DescriptorError(f"unsupported descriptor version {value}")
        elif head in _SECTIONS and len(tokens) == 1:
            section = head
        elif head in _HEADERS or head in _SECTIONS:  # a reserved word, never a name
            wanted = "one value" if head in _HEADERS else "no value"
            raise DescriptorError(f"line {lineno}: {head} takes {wanted}, got {len(tokens) - 1}")
        elif "DESCRIPTOR-VERSION" not in headers:
            raise DescriptorError("descriptor must start with DESCRIPTOR-VERSION")
        elif section is None:
            raise DescriptorError(f"line {lineno}: data outside of a section")
        else:
            rows[section].append(_SECTIONS[section](tokens, lineno))
    for head in _HEADERS:
        if head not in headers:
            raise DescriptorError(f"missing {head} header")
    if not rows["Y-POINTS"]:
        raise DescriptorError("no Y-POINTS given")
    return GeometryDescriptor(*map(tuple, rows.values()), headers["CANONICAL-WEIGHT"])


def _row(record) -> str:
    """A record's file row: its fields in order, tuples spread, an incidence as divisor:weight."""
    spread = (x for field in record for x in (field if isinstance(field, tuple) else (field,)))
    return " ".join(f"{x.divisor}:{x.weight}" if isinstance(x, Incidence) else str(x) for x in spread)


def format_descriptor(g: GeometryDescriptor) -> str:
    lines = ["DESCRIPTOR-VERSION 1", f"CANONICAL-WEIGHT {g.canonical_weight}"]
    for head, records in zip(_SECTIONS, g):
        lines += ["", head, *map(_row, records)]
    return "\n".join(lines) + "\n"
