"""Itemized self-checks behind the command-line ``verify`` command.

The quick subset exercises the four reference classes of the built-in
case; the full run adds enumeration oracles, whole-table consistency,
the fold count on every bipartite ADE marking up to rank 8, the non-root
scan, the invariants of every total on the class box [0,3]^4 and the
blackening uniqueness search.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from . import catalog
from .descriptor import validate_descriptor
from .folding import Marking, bps_table, lift, project
from .localize import localize_class, total_chi
from .rootsys import (
    build_diagram,
    cartan_pairing,
    enumerate_positive_roots,
    enumerate_positive_roots_bruteforce,
    highest_root,
)
from .symring import LaurentPoly, Quotient, VirtualCharacter, expfactor

# The four reference classes of the built-in case with their known
# character totals, Euler-class rows (scalar, degree) and invariants.
REFERENCE_CLASSES = (
    ((3, 5, 4, 3), {0: 1, 3: -1}, (Fraction(1), 0), (Fraction(1), 0), Fraction(1)),
    ((2, 4, 4, 2), {0: 1, 1: 1, 2: -1, 3: -1}, (Fraction(1), 1), (Fraction(2), 1), Fraction(1, 2)),
    ((2, 4, 3, 2), {0: 1, 1: -1, 2: 1, 3: -1}, (Fraction(2), 1), (Fraction(1), 1), Fraction(2)),
    ((1, 2, 2, 1), {0: 1, 1: -2, 2: 2, 3: -1}, (Fraction(4), 2), (Fraction(1), 2), Fraction(4)),
)

# Known statistics of the built-in folded table: (roots, classes, invariant).
TABLE_GROUPS = ((32, 16, Fraction(1)), (4, 4, Fraction(1, 2)), (48, 12, Fraction(2)), (32, 4, Fraction(4)))

# Golden data for the longest-root lift: restriction weights at the
# seven isolated surface points and characters at the five threefold points.
GOLDEN_POINT_WEIGHTS = {"Q1": -10, "Q1'": -6, "Q2": -6, "Q2'": -6, "Q3": -6, "Q3'": -6, "Q4": -6}
GOLDEN_CH = {
    "P1": LaurentPoly({-11: 1, -10: -1, -7: 1, -6: -1, -2: -1, 0: 1}),
    "P2": LaurentPoly({-8: 1, -6: -1, -2: -1, 0: 1}),
    "P3": LaurentPoly({-8: 1, -6: -1, -2: -1, 0: 1}),
    "P4": LaurentPoly({-8: 1, -6: -1, -2: -1, 0: 1}),
    "P": LaurentPoly({-8: 1, -6: -1, -2: -1, 0: 1}),
}
GOLDEN_CONTRIBUTIONS = {
    "P1": LaurentPoly({-5: 1, -3: -1, -2: 1, -1: 1, 1: -1, 2: 1, 4: -1, 5: -1, 6: 1, 8: -1}),
    "P2": LaurentPoly(
        {-4: 1, -3: 2, -2: 1, -1: 1, 0: 2, 1: 1, 2: -1, 3: -2, 4: -1, 5: -1, 6: -2, 7: -1}
    ),
    "P3": LaurentPoly(
        {-4: 1, -3: 2, -2: 1, -1: 1, 0: 2, 1: 1, 2: -1, 3: -2, 4: -1, 5: -1, 6: -2, 7: -1}
    ),
    "P4": LaurentPoly(
        {-4: 1, -3: 1, -2: 1, -1: 1, 0: 1, 1: 1, 2: -1, 3: -1, 4: -1, 5: -1, 6: -1, 7: -1}
    ),
    "P": LaurentPoly(
        {-5: -1, -4: -3, -3: -4, -2: -4, -1: -4, 0: -4, 1: -2, 2: 2, 3: 4, 4: 4, 5: 4, 6: 4, 7: 3, 8: 1}
    ),
}
GOLDEN_SUMMANDS = {
    "Q1": Quotient(expfactor(-10) * expfactor(3) * expfactor(-1), (4,)),
    "Q1'": Quotient(expfactor(-6) * expfactor(-5) * expfactor(-1), (-4,)),
    "Q2": Quotient(
        expfactor(-6) * expfactor(-1) * expfactor(1) * expfactor(-3),
        (2, -3),
    ),
    "Q2'": Quotient(
        expfactor(-6) * expfactor(-1) * expfactor(1) * expfactor(-3),
        (-2, 1),
    ),
    "Q3": Quotient(
        expfactor(-6) * expfactor(-1) * expfactor(1) * expfactor(-3),
        (-2, 1),
    ),
    "Q3'": Quotient(
        expfactor(-6) * expfactor(1) * expfactor(-1) * expfactor(-3),
        (2, -3),
    ),
    "Q4": Quotient(expfactor(-6) * expfactor(-2)),
}


#: every ADE diagram up to rank 8
ADE_UP_TO_8 = (*(("A", n) for n in range(1, 9)), *(("D", n) for n in range(4, 9)), ("E", 6), ("E", 7), ("E", 8))


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _expect(ok: bool, message: str = "") -> None:
    # an explicit raise, not ``assert``: ``python -O`` must not pass every check
    if not ok:
        raise AssertionError(message)


def _root_counts(_m, _g) -> str:
    for kind, rank in ADE_UP_TO_8:
        want = {"A": rank * (rank + 1) // 2, "D": rank * (rank - 1), "E": {6: 36, 7: 63, 8: 120}.get(rank)}[kind]
        got = len(enumerate_positive_roots(build_diagram(kind, rank)))
        _expect(got == want, f"{kind}{rank}: {got} roots, expected {want}")
    return f"{len(ADE_UP_TO_8)} diagrams"


def _closure_equals_bruteforce(_m, _g) -> str:
    for kind, rank in ADE_UP_TO_8:
        d = build_diagram(kind, rank)
        _expect(enumerate_positive_roots(d) == enumerate_positive_roots_bruteforce(d), f"{kind}{rank}")
    return f"{len(ADE_UP_TO_8)} diagrams"


def _highest_root(m, _g) -> str:
    h = highest_root(m.diagram)
    _expect(h == (2, 3, 4, 5, 6, 4, 2, 3), f"highest root {h}")
    white = project(h, m)
    _expect(white == (3, 5, 4, 3), f"white part {white}")
    return str(h)


def _table_statistics(m, _g) -> str:
    table = bps_table(m)
    _expect(len(table) == 36, f"{len(table)} classes")
    mapped = sum(r.fiber_count for r in table)
    dropped = len(enumerate_positive_roots(m.diagram)) - mapped
    _expect(mapped == 116 and dropped == 4, f"{mapped} mapped, {dropped} dropped")
    groups = {}
    for r in table:
        roots, classes = groups.get(r.invariant, (0, 0))
        groups[r.invariant] = (roots + r.fiber_count, classes + 1)
    for roots, classes, inv in TABLE_GROUPS:
        _expect(groups.get(inv) == (roots, classes), f"group n={inv}: {groups.get(inv)}")
    return "36 classes, 116 roots, 4 dropped"


def _lift_validity(m, _g) -> str:
    d = m.diagram
    simple = [tuple(int(i == b) for i in range(d.rank)) for b in m.black_order]
    for rec in bps_table(m):
        lft = lift(rec.cls, m)
        _expect(lft.self_pairing == -2, f"{rec.cls}: square {lft.self_pairing}")
        # delta_j is the intersection of the lift with the contracted curve E_j: minus the Cartan form
        pairings = tuple(-cartan_pairing(d, lft.full, e) for e in simple)
        _expect(lft.delta == pairings, f"{rec.cls}: delta {lft.delta}, curve pairings {pairings}")
    top = lift((3, 5, 4, 3), m)
    blacks = tuple(top.full[b] for b in m.black_order)
    _expect(blacks == (2, 4, 6, 2), f"black coefficients {blacks}")
    return "36 lifts, longest root gives (2, 4, 6, 2)"


def _bipartite_markings():
    """Each colour class of every ADE diagram up to rank 8 as the black set, white in node order."""
    for kind, rank in ADE_UP_TO_8:
        d = build_diagram(kind, rank)
        colour = d.colouring()
        for black in (0, 1):
            white = tuple(i for i in range(rank) if colour[i] != black)
            if white:  # A1 with n1 black has no class
                yield Marking(d, frozenset(i for i in range(rank) if colour[i] == black), white)


def _fold_counts(_m, _g) -> str:
    # a class is the white part of 2^m roots, m the number of odd white-neighbour sums of its lift
    markings = classes = 0
    for mk in _bipartite_markings():
        where = f"{mk.diagram.kind}{mk.diagram.rank} with black {mk.black_order}"
        for rec in bps_table(mk):
            lft = lift(rec.cls, mk)
            _expect(lft.self_pairing == -2, f"{where}, {rec.cls}: square {lft.self_pairing}")
            odd = sum([k & 1 for k in lft.k])
            _expect(rec.fiber_count == 1 << odd, f"{where}, {rec.cls}: {rec.fiber_count} roots, not 2^{odd}")
            classes += 1
        markings += 1
    return f"{markings} bipartite markings of A1-A8, D4-D8 and E6-E8, {classes} classes: each has 2^m roots"


def _nonroot_classes_scan(m, _g) -> str:
    image = {rec.cls for rec in bps_table(m)}
    seen = 0
    for cls in product(range(7), repeat=4):
        if not any(cls) or cls in image:
            continue
        sq = lift(cls, m).self_pairing
        _expect(sq <= -4, f"{cls}: square {sq}")
        seen += 1
    return f"{seen} non-root classes all have square <= -4"


def _descriptor_lints(m, g) -> str:
    warnings = validate_descriptor(g, m)
    _expect(not warnings, "; ".join(warnings))
    return "hard checks pass, no warnings"


def _golden_intermediates(m, g) -> str:
    top = localize_class((3, 5, 4, 3), m, g)
    count = 0
    for name, r in top.points.items():
        for q, (w, summand) in zip([q for q in g.s_points if q.image == name], r.surface, strict=True):
            _expect(w == GOLDEN_POINT_WEIGHTS[q.name], f"restriction weight at {q.name}")
            _expect(summand == GOLDEN_SUMMANDS[q.name], f"summand at {q.name}")
            count += 2
        _expect(r.ch == GOLDEN_CH[name], f"character at {name}")
        _expect(r.contribution == GOLDEN_CONTRIBUTIONS[name], f"contribution of {name}")
        count += 2
    dual = top.points["P1"].ch.dual()
    _expect(dual == LaurentPoly({0: 1, 2: -1, 6: -1, 7: 1, 10: -1, 11: 1}), f"dual of the character at P1: {dual}")
    return f"{count + 1} golden values reproduced"


def _reference_totals(m, g) -> str:
    for cls, total, _, _, _ in REFERENCE_CLASSES:
        chi = localize_class(cls, m, g).chi
        _expect(chi == VirtualCharacter(total), f"{cls}: chi = {chi}")
    return "4 character totals"


def _reference_euler_rows(m, g) -> str:
    for cls, _, row2, row1, n in REFERENCE_CLASSES:
        r = localize_class(cls, m, g)
        e2, e1 = r.euler_ext2, r.euler_ext1
        _expect((e2.scalar, e2.degree) == row2, f"{cls}: e(ext2) = {e2}")
        _expect((e1.scalar, e1.degree) == row1, f"{cls}: e(ext1) = {e1}")
        _expect(r.n == n, f"{cls}: n = {r.n}")
    return "4 Euler-class rows"


def _cross_pipeline_reference(m, g) -> str:
    fibers = {rec.cls: rec.invariant for rec in bps_table(m)}
    for cls, _, _, _, n in REFERENCE_CLASSES:
        loc = localize_class(cls, m, g).n
        _expect(loc == fibers[cls] == n, f"{cls}: localization {loc}, folding {fibers[cls]}")
    return "4 classes agree"


def _totals_unit_ends(m, g) -> str:
    for cls, _, _, _, _ in REFERENCE_CLASSES:
        chi = localize_class(cls, m, g).chi
        _expect(chi.evaluate(Fraction(1)) == 0, f"{cls}: chi(1) != 0")
        _expect(chi.coefficient(0) == 1 and chi.coefficient(3) == -1, f"{cls}: ends of {chi}")
    return "4 totals vanish at mu=1 with coefficients +1/-1 at weights 0/3"


def _box_invariants(m, g) -> str:
    # total_chi raises unless the total divides out to an integer polynomial
    serre = VirtualCharacter({-g.canonical_weight: 1})
    count = 0
    for cls in product(range(4), repeat=4):
        if not any(cls):
            continue
        chi = total_chi(lift(cls, m), g, m)
        _expect(chi.evaluate(Fraction(1)) == 0, f"{cls}: chi(1) != 0")
        _expect(serre * chi.dual() == -chi, f"{cls}: no Serre antisymmetry in {chi}")
        count += 1
    return (
        f"{count} classes of [0,3]^4, root and non-root: integral, chi(1) = 0, Serre antisymmetric"
        " (checks that do not rest on the fitted e8-a5 weights)"
    )


def _cross_pipeline_full(m, g) -> str:
    for rec in bps_table(m):
        loc = localize_class(rec.cls, m, g).n
        _expect(loc == rec.invariant, f"{rec.cls}: localization {loc}, folding {rec.invariant}")
    return "36 classes agree"


def _blackening_unique(m, _g) -> str:
    d = m.diagram
    roots = enumerate_positive_roots(d)
    h = highest_root(d)
    target = sorted((3, 5, 4, 3))
    faults = {}  # per 4-subset of black nodes: adjacent ones, another white part, another count of dropped roots
    for black in combinations(range(d.rank), 4):
        white = [i for i in range(d.rank) if i not in black]
        faults[black] = (any(i in black and j in black for i, j in d.edges),
                         sorted(h[i] for i in white) != target,
                         sum(1 for r in roots if all(r[i] == 0 for i in white)) != 4)
    survivors = [set(black) for black, bad in faults.items() if not any(bad)]
    _expect(survivors == [set(m.black)], f"survivors {survivors}")
    adjacent, other_white, other_dropped = map(sum, zip(*faults.values()))
    return (f"unique among {len(faults)} subsets; {adjacent} have adjacent black nodes, {other_white}"
            f" another white part, {other_dropped} another number of dropped roots")


QUICK_CHECKS = (
    ("fixed-point data passes structural lints", _descriptor_lints),
    ("golden fixed-point intermediates reproduced", _golden_intermediates),
    ("character totals for the four reference classes", _reference_totals),
    ("Euler-class rows and invariants for the reference classes", _reference_euler_rows),
    ("folding and localization agree on the reference classes", _cross_pipeline_reference),
    ("totals vanish at mu=1 with unit ends", _totals_unit_ends),
)
FULL_CHECKS = (
    ("positive-root counts match the closed forms", _root_counts),
    ("closure enumeration equals the brute-force scan", _closure_equals_bruteforce),
    ("highest root and its white part", _highest_root),
    ("folded table statistics", _table_statistics),
    ("lift validity across the table image", _lift_validity),
    ("fiber counts are 2^m on the bipartite markings up to rank 8", _fold_counts),
    ("square of the lift rejects non-root classes", _nonroot_classes_scan),
    ("totals on the class box [0,3]^4 are integral and Serre antisymmetric", _box_invariants),
    ("folding and localization agree on every table class", _cross_pipeline_full),
    ("the blackening is the unique valid one", _blackening_unique),
)


def run_checks(case: str = "e8-a5", quick: bool = False) -> list[CheckResult]:
    m, g = catalog.load_case(case)
    results: list[CheckResult] = []
    for name, check in QUICK_CHECKS if quick else QUICK_CHECKS + FULL_CHECKS:
        try:
            results.append(CheckResult(name, True, check(m, g) or ""))
        except Exception as exc:  # a failed check must report, not crash the run
            results.append(CheckResult(name, False, str(exc)))
    return results
