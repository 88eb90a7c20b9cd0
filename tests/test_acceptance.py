"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact arithmetic, so every comparison here is equality;
there are no tolerances to tune.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import prod

from adebps.catalog import e8_a5_descriptor, e8_a5_marking
from adebps.descriptor import validate_descriptor
from adebps.folding import bps_table, lift, project
from adebps.localize import (
    bps_from_localization,
    ext_decompose,
    localize_class,
    total_chi,
)
from adebps.rootsys import (
    build_diagram,
    enumerate_positive_roots,
    enumerate_positive_roots_bruteforce,
    highest_root,
)
from adebps.symring import (
    LaurentPoly,
    Quotient,
    VirtualCharacter,
    euler_class,
    expfactor,
)
from adebps.verify import (
    GOLDEN_CH,
    GOLDEN_CONTRIBUTIONS,
    GOLDEN_SUMMANDS,
    REFERENCE_CLASSES,
    TABLE_GROUPS,
)

M = e8_a5_marking()
G = e8_a5_descriptor()


def test_criterion_1_root_counts_and_oracle():
    expected = {("A", n): n * (n + 1) // 2 for n in range(1, 9)}
    expected.update({("D", 4): 12, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120})
    for (kind, rank), want in sorted(expected.items()):
        assert len(enumerate_positive_roots(build_diagram(kind, rank))) == want
    all_types = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    all_types += [("E", 6), ("E", 7), ("E", 8)]
    for kind, rank in all_types:
        d = build_diagram(kind, rank)
        assert enumerate_positive_roots(d) == enumerate_positive_roots_bruteforce(d)
    print("PASS criterion 1: root counts and closure/brute-force agreement")


def test_criterion_2_bps_table():
    table = bps_table(M)
    assert len(table) == 36
    groups: dict[Fraction, tuple[int, int]] = {}
    for rec in table:
        roots, classes = groups.get(rec.invariant, (0, 0))
        groups[rec.invariant] = (roots + rec.fiber_count, classes + 1)
    assert groups == {inv: (roots, classes) for roots, classes, inv in TABLE_GROUPS}
    mapped = sum(rec.fiber_count for rec in table)
    roots = enumerate_positive_roots(M.diagram)
    assert mapped == 116
    assert sum(1 for r in roots if project(r, M) is None) == 4
    assert len(roots) == 120
    print("PASS criterion 2: 36 classes, group rows, 116 mapped + 4 dropped roots")


def test_criterion_3_lift_correctness():
    table = bps_table(M)
    for rec in table:
        lft = lift(rec.cls, M)
        assert all(d in (0, -1) for d in lft.delta)
        assert lft.self_pairing == -2
    top = lift((3, 5, 4, 3), M)
    assert tuple(top.full[b] for b in M.black_order) == (2, 4, 6, 2)
    image = {rec.cls for rec in table}
    for cls in product(range(7), repeat=4):
        if not any(cls) or cls in image:
            continue
        assert lift(cls, M).self_pairing <= -4
    print("PASS criterion 3: lift deltas/squares, longest-root coefficients, non-image scan")


def test_criterion_4_localization_goldens():
    r = localize_class((3, 5, 4, 3), M, G)
    top, points = r.lift, r.points
    for p in G.y_points:
        over = [q for q in G.s_points if q.image == p.name]
        assert [summand for _, summand in points[p.name].surface] == [GOLDEN_SUMMANDS[q.name] for q in over]
        ch = points[p.name].ch
        assert ch == GOLDEN_CH[p.name]
        pref = prod((expfactor(-w) for w in p.weights), start=LaurentPoly({0: 1}))
        assert ch.dual() * ch == GOLDEN_CONTRIBUTIONS[p.name] * pref
    assert sum(len(points[p.name].surface) for p in G.y_points) == len(G.s_points)
    ch1 = points["P1"].ch
    assert ch1.dual() == LaurentPoly({0: 1, 2: -1, 6: -1, 7: 1, 10: -1, 11: 1})
    assert total_chi(top, G, M) == VirtualCharacter({0: 1, 3: -1})
    print("PASS criterion 4: all longest-root golden intermediates match")


def test_criterion_5_reference_totals():
    for cls, total, _, _, _ in REFERENCE_CLASSES:
        assert total_chi(lift(cls, M), G, M) == VirtualCharacter(total)
    print("PASS criterion 5: character totals for the four reference classes")


def test_criterion_6_euler_class_rows():
    for cls, _, row2, row1, n in REFERENCE_CLASSES:
        dec = ext_decompose(total_chi(lift(cls, M), G, M), serre_weight=3)
        e2, e1 = euler_class(dec.ext2), euler_class(dec.ext1)
        assert (e2.scalar, e2.degree) == row2
        assert (e1.scalar, e1.degree) == row1
        assert Fraction(e2.scalar, e1.scalar) == n
    print("PASS criterion 6: Euler-class rows (1,1,1), (t,2t,1/2), (2t,t,2), ((2t)^2,t^2,4)")


def test_criterion_7_cross_pipeline():
    fibers = {rec.cls: rec.invariant for rec in bps_table(M)}
    for cls, _, _, _, n in REFERENCE_CLASSES:
        assert bps_from_localization(cls, M, G) == fibers[cls] == n
    print("PASS criterion 7: folding and localization agree on the reference classes")


def test_criterion_8_property_suites():
    rng = random.Random(20240801)

    def rand_poly():
        return LaurentPoly(
            [(rng.randrange(-9, 10), rng.randrange(-4, 5)) for _ in range(3)]
        )

    checked = 0
    for _ in range(700):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p.dual().dual() == p
        assert (p * q).dual() == p.dual() * q.dual()
        checked += 3
    for _ in range(150):
        ks = [rng.choice([-1, 1]) * rng.randrange(1, 7) for _ in range(rng.randrange(1, 4))]
        u = Quotient(rand_poly(), ks)
        v = Quotient(rand_poly(), (rng.randrange(1, 7),))
        assert u + v == v + u
        assert u * v == v * u
        assert v * Quotient(1, ks) * prod(map(expfactor, ks), start=LaurentPoly({0: 1})) == v
        assert u.dual().dual() == u
        checked += 2
    assert checked >= 1000
    for cls, _, _, _, _ in REFERENCE_CLASSES:
        chi = total_chi(lift(cls, M), G, M)
        assert chi.evaluate(Fraction(1)) == 0
        assert chi.coefficient(0) == 1 and chi.coefficient(3) == -1
    assert validate_descriptor(G, M) == []
    print(f"PASS criterion 8: ring/field/dual laws on {checked} random inputs, "
          "mu=1 vanishing, descriptor lints")


def test_criterion_9_marking_uniqueness():
    d = M.diagram
    roots = enumerate_positive_roots(d)
    h = highest_root(d)
    target = sorted((3, 5, 4, 3))
    survivors = []
    for black in combinations(range(8), 4):
        blackset = set(black)
        if any(i in blackset and j in blackset for i, j in d.edges):
            continue
        white = [i for i in range(8) if i not in blackset]
        if sorted(h[i] for i in white) != target:
            continue
        if sum(1 for r in roots if all(r[i] == 0 for i in white)) != 4:
            continue
        survivors.append(blackset)
    assert survivors == [set(M.black)]
    print("PASS criterion 9: blackening unique among all 70 four-node subsets")


def test_extended_full_table_cross_pipeline():
    # beyond the stated criteria: the two pipelines agree on all 36 classes
    for rec in bps_table(M):
        assert bps_from_localization(rec.cls, M, G) == rec.invariant
    print("PASS extended: full-table cross-pipeline agreement (36 classes)")
