"""Fixed-point geometry descriptors: the records, their checks and the file format.

A descriptor records the torus-fixed points of the threefold, the fixed
points and pointwise-fixed rational curves of the surface over them,
tangent weights, and which divisors pass through each fixed point with
which normal-direction weight.  This module reads, writes and checks
descriptors against a marking, and loads no arithmetic: a case is loaded,
parsed and validated without the localization engine.
"""

from typing import NamedTuple

from .folding import Marking, divisor_labels
from .rootsys import parse_int


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
    """Every hard check of a descriptor against a marking, one walk.

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


# -- descriptor validation -------------------------------------------------


def validate_descriptor(g: GeometryDescriptor, m: Marking) -> list[str]:
    """The hard checks of ``_checked_components`` (raise DescriptorError) plus
    one soft warning, returned: surface tangent weights not summing to 1.
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
