"""Black/white markings of a Dynkin diagram, root folding, divisor lifts.

White nodes label curve classes F_1..F_r that survive on the threefold;
black nodes label curves E_1..E_s contracted by the resolution of the
surface.  A positive root folds to its white part.  Conversely a curve
class lifts to a divisor upstairs by giving each black node the ceiling
of half the sum of its white neighbours' multiplicities; the class comes
from a positive root exactly when the lift has square -2.
"""

from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import and_
from typing import NamedTuple

from .rootsys import (
    _Checked,
    DynkinDiagram,
    RootVector,
    _flat,
    _positive_roots,
    build_diagram,
    is_positive_root,
    node_index,
    parse_int,
)

CurveClass = tuple[int, ...]


class _MarkingFields(NamedTuple):
    diagram: DynkinDiagram
    black: frozenset[int]
    white_order: tuple[int, ...]


class Marking(_Checked, _MarkingFields):
    """A partition of the nodes into black (contracted) and ordered white.

    A named tuple, checked whenever one is built: by the constructor, ``_replace``, a copy or a pickle,
    which also stores :func:`lift`'s plan: (rank, (black node, neighbours) in black order, white-white
    edges as positions in the white order) or None.
    """

    def __new__(cls, diagram: DynkinDiagram, black: frozenset[int], white_order: tuple[int, ...]):
        self = super().__new__(cls, diagram, frozenset(black), tuple(white_order))
        black, white_order, nodes = self.black, self.white_order, set(range(diagram.rank))
        if not black <= nodes:
            raise ValueError("black nodes out of range")
        if len(set(white_order)) != len(white_order):
            raise ValueError("duplicate node in white order")
        if set(white_order) & black:
            raise ValueError("black and white overlap")
        if set(white_order) | black != nodes:
            raise ValueError("black and white must cover all nodes")
        blacks = tuple((b, diagram.neighbors(b)) for b in self.black_order)
        at = {node: i for i, node in enumerate(white_order)}
        whites = tuple((at[i], at[j]) for i, j in diagram.edges if i in at and j in at)
        self._lift_plan = (diagram.rank, blacks, whites) if self.black_is_independent() else None
        return self

    @property
    def black_order(self) -> tuple[int, ...]:
        """Black nodes in node order, fixing the labels E_1..E_s."""
        return tuple(sorted(self.black))

    def black_is_independent(self) -> bool:
        return not any(i in self.black and j in self.black for i, j in self.diagram.edges)


def divisor_labels(m: Marking) -> dict[str, int]:
    """Label -> node map: F1..Fr for white in order, E1..Es for black."""
    labels = {f"F{i + 1}": node for i, node in enumerate(m.white_order)}
    labels.update({f"E{j + 1}": node for j, node in enumerate(m.black_order)})
    return labels


def project(root: RootVector, m: Marking) -> CurveClass | None:
    """White part of a positive root; None when it is supported on black."""
    if not is_positive_root(m.diagram, root):
        raise ValueError(f"not a positive root: {root!r}")
    white = tuple(root[i] for i in m.white_order)
    return white if any(white) else None


class BPSRecord(NamedTuple):
    cls: CurveClass
    fiber_count: int
    invariant: Fraction


def bps_table(m: Marking) -> list[BPSRecord]:
    """Fold all positive roots and count fibers; n = count/2 per class.

    Masks the black bytes out of the closure's packed roots, so roots with one
    white part are one integer, and reads the distinct fibers' white columns;
    the closure yields only roots, so none needs :func:`project`'s check.  The
    sorted (class, count, half) triples become records by ``BPSRecord._make``.
    """
    rank = m.diagram.rank
    white_mask = sum(0xFF << 8 * (rank - 1 - i) for i in m.white_order)
    fibers = Counter(map(and_, _positive_roots(m.diagram), repeat(white_mask)))
    fibers.pop(0, None)
    flat = _flat(fibers, rank)
    classes = zip(*[flat[i::rank] for i in m.white_order])  # one column slice per white node
    counts = fibers.values()
    halves = {n: Fraction(n, 2) for n in set(counts)}  # a fiber count takes few values
    return list(map(BPSRecord._make, sorted(zip(classes, counts, map(halves.__getitem__, counts)))))


class LiftedDivisor(NamedTuple):
    """Completion of a curve class to a divisor on the resolved surface."""

    full: tuple[int, ...]  # coefficient per diagram node
    k: tuple[int, ...]     # white-neighbour multiplicity sums, per black_order
    delta: tuple[int, ...]  # pairing with each contracted curve, per black_order
    self_pairing: int      # square under the curve-intersection form (-Cartan)


def lift(cls: CurveClass, m: Marking) -> LiftedDivisor:
    """Assign each black node ceil(k/2) of its white-neighbour sum k.

    Each delta entry is then k - 2*ceil(k/2), i.e. 0 or -1; this needs the
    black set to be pairwise non-adjacent.  Reads the marking's lift plan.

    The square -C(v, v) = 2 * (sum over edges of v_i v_j - sum of v_i^2)
    splits by node colour, since every edge meets a white node: a black
    node b adds 2 * ceil(k_b/2) * (k_b - ceil(k_b/2)) = floor(k_b^2/2), and
    the white part is summed over the white-white edges alone.
    """
    if len(cls) != len(m.white_order):
        raise ValueError("class length does not match the number of white nodes")
    if not any(cls):  # a zero class has no negative entry: checked first, it raises as if checked after
        raise ValueError("zero class has no lift")
    if min(cls) < 0:
        raise ValueError("class must be effective")
    if m._lift_plan is None:
        raise ValueError("adjacent black nodes: lift is not defined")
    rank, blacks, whites = m._lift_plan
    full = [None] * rank  # a marking covers every node, so each entry is written below
    for node, mult in zip(m.white_order, cls):
        full[node] = mult
    ks = []
    for b, nbs in blacks:  # neighbours of black are white
        kj = sum(map(full.__getitem__, nbs))
        full[b] = (kj + 1) >> 1
        ks.append(kj)
    white = sum([cls[i] * cls[j] for i, j in whites]) - sum([c * c for c in cls])
    square = sum([kj * kj >> 1 for kj in ks]) + 2 * white  # -C(v, v)
    return LiftedDivisor(tuple(full), tuple(ks), tuple([-(kj & 1) for kj in ks]), square)


# -- marking file format -------------------------------------------------
#
# Key/value lines, '#' starts a comment:
#
#   kind  E
#   rank  8
#   black n1 n3 n5 n7
#   white n2 n4 n6 n8
#
# 'white' lists the white nodes in order (F1, F2, ...); 'black' may be
# empty.  Together they must cover every node exactly once.


def parse_marking(text: str) -> Marking:
    fields: dict[str, tuple[int, list[str]]] = {}  # key -> (line number, values)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, *values = line.split()
        key = key.lower()
        if key not in ("kind", "rank", "black", "white") or (key in ("kind", "rank") and len(values) != 1):
            raise ValueError(f"marking line {lineno}: cannot parse {raw!r}")
        if key in fields:
            raise ValueError(f"marking line {lineno}: repeated {key!r} line")
        fields[key] = lineno, values
    if len(fields) != 4:
        raise ValueError("marking needs kind, rank, black and white lines")
    lineno, (rank_text,) = fields["rank"]
    try:
        rank = parse_int(rank_text)
    except ValueError:
        raise ValueError(f"marking line {lineno}: bad rank {rank_text!r}") from None
    _, (kind,) = fields["kind"]
    d = build_diagram(kind, rank)

    def nodes(key: str) -> list[int]:
        lineno, names = fields[key]
        out = [node_index(n, rank) for n in names]
        if len(set(out)) != len(out):
            raise ValueError(f"marking line {lineno}: a node is listed twice in {key!r}")
        return out

    return Marking(d, frozenset(nodes("black")), tuple(nodes("white")))
