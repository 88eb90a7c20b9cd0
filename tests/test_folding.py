import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps.catalog import e8_a5_marking
from adebps.folding import (
    BPSRecord,
    Marking,
    bps_table,
    divisor_labels,
    lift,
    parse_marking,
    project,
)
from adebps.rootsys import build_diagram, cartan_pairing, enumerate_positive_roots, highest_root


@pytest.fixture(scope="module")
def m():
    return e8_a5_marking()


@pytest.fixture(scope="module")
def table(m):
    return bps_table(m)


class TestMarking:
    def test_catalog_entry(self, m):
        assert m.black_order == (0, 2, 4, 6)
        assert m.white_order == (1, 3, 5, 7)
        assert m.black_is_independent()

    def test_labels(self, m):
        labels = divisor_labels(m)
        assert labels == {"F1": 1, "F2": 3, "F3": 5, "F4": 7, "E1": 0, "E2": 2, "E3": 4, "E4": 6}

    def test_partition_enforced(self):
        d = build_diagram("A", 3)
        for black, white, fault in (
            ({0}, (0, 1, 2), "overlap"),
            ({0}, (1,), "cover all nodes"),
            ({5}, (0, 1, 2), "out of range"),
            ({0}, (1, 2, 2), "duplicate node in white order"),
        ):
            with pytest.raises(ValueError, match=fault):
                Marking(d, frozenset(black), white)

    def test_fields_stored_as_frozenset_and_tuple(self):
        # any iterables are accepted, so the record hashes and survives the file format
        mk = Marking(build_diagram("A", 3), {1}, iter([0, 2]))
        assert type(mk.black) is frozenset and mk.white_order == (0, 2)
        assert parse_marking(format_marking(mk)) == mk and hash(mk) == hash(parse_marking(format_marking(mk)))


class TestProject:
    def test_highest_root(self, m):
        assert project(highest_root(m.diagram), m) == (3, 5, 4, 3)

    def test_black_simple_root_drops(self, m):
        e1 = (1, 0, 0, 0, 0, 0, 0, 0)
        assert project(e1, m) is None

    def test_white_simple_root(self, m):
        e2 = (0, 1, 0, 0, 0, 0, 0, 0)
        assert project(e2, m) == (1, 0, 0, 0)

    def test_non_root_rejected(self, m):
        # not a root; a negative root, of square 2 too; zero; the wrong length
        for v in ((2, 0, 0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8, (0, 1)):
            with pytest.raises(ValueError, match="not a positive root"):
                project(v, m)


class TestTable:
    def test_class_count(self, table):
        assert len(table) == 36

    def test_group_statistics(self, table):
        groups = Counter()
        roots = Counter()
        for rec in table:
            groups[rec.invariant] += 1
            roots[rec.invariant] += rec.fiber_count
        assert groups == {Fraction(1): 16, Fraction(1, 2): 4, Fraction(2): 12, Fraction(4): 4}
        assert roots == {Fraction(1): 32, Fraction(1, 2): 4, Fraction(2): 48, Fraction(4): 32}

    def test_partition_of_roots(self, m, table):
        mapped = sum(rec.fiber_count for rec in table)
        assert mapped == 116
        assert len(enumerate_positive_roots(m.diagram)) - mapped == 4

    def test_specific_fibers(self, table):
        by_cls = {rec.cls: rec for rec in table}
        for cls, fibers, n in [
            ((3, 5, 4, 3), 2, Fraction(1)),
            ((2, 4, 4, 2), 1, Fraction(1, 2)),
            ((2, 4, 3, 2), 4, Fraction(2)),
            ((1, 2, 2, 1), 8, Fraction(4)),
        ]:
            assert by_cls[cls].fiber_count == fibers
            assert by_cls[cls].invariant == n

    def test_oracle_recount(self, m, table):
        # independent recount straight from the root list
        fibers = Counter()
        for root in enumerate_positive_roots(m.diagram):
            white = tuple(root[i] for i in m.white_order)
            if any(white):
                fibers[white] += 1
        assert {rec.cls: rec.fiber_count for rec in table} == dict(fibers)

    def test_records_are_bps_records_with_fraction_invariants(self, table):
        assert type(table) is list
        assert all(type(rec) is BPSRecord and type(rec.invariant) is Fraction for rec in table)

    def test_sorted_lexicographically(self, table):
        classes = [rec.cls for rec in table]
        assert classes == sorted(classes)

    def test_dropped_roots_are_black_subdiagram_roots(self, m):
        # with an independent black set the dropped roots are the black simples
        dropped = [
            r
            for r in enumerate_positive_roots(m.diagram)
            if project(r, m) is None
        ]
        assert len(dropped) == len(m.black)
        for r in dropped:
            assert sum(r) == 1 and all(r[i] == 0 for i in m.white_order)

    def test_dropped_roots_with_adjacent_black(self):
        # black {n1, n2} in D5 spans a rank-2 chain: three roots drop
        d = build_diagram("D", 5)
        mk = Marking(d, frozenset({0, 1}), (2, 3, 4))
        dropped = [r for r in enumerate_positive_roots(d) if project(r, mk) is None]
        assert len(dropped) == 3

    def test_a1_all_white(self):
        mk = Marking(build_diagram("A", 1), frozenset(), (0,))
        table = bps_table(mk)
        assert len(table) == 1
        assert table[0].cls == (1,) and table[0].fiber_count == 1
        assert table[0].invariant == Fraction(1, 2)

    def test_invariant_under_white_relabeling(self):
        # reversing the white order of a symmetric marking permutes classes
        d = build_diagram("A", 3)
        t1 = bps_table(Marking(d, frozenset({1}), (0, 2)))
        t2 = bps_table(Marking(d, frozenset({1}), (2, 0)))
        flipped = sorted((tuple(reversed(r.cls)), r.fiber_count) for r in t2)
        assert sorted((r.cls, r.fiber_count) for r in t1) == flipped


class TestLift:
    def test_longest_root(self, m):
        lft = lift((3, 5, 4, 3), m)
        assert tuple(lft.full[b] for b in m.black_order) == (2, 4, 6, 2)
        assert lft.full == (2, 3, 4, 5, 6, 4, 2, 3)
        assert lft.self_pairing == -2

    def test_smallest_reference_class(self, m):
        lft = lift((1, 2, 2, 1), m)
        assert tuple(lft.full[b] for b in m.black_order) == (1, 2, 3, 1)
        assert lft.self_pairing == -2
        assert all(d in (0, -1) for d in lft.delta)

    def test_single_white_curve(self, m):
        lft = lift((1, 0, 0, 0), m)
        assert lft.k == (1, 1, 0, 0)
        assert tuple(lft.full[b] for b in m.black_order) == (1, 1, 0, 0)
        assert lft.self_pairing == -2
        assert lft.full in set(enumerate_positive_roots(m.diagram))

    def test_square_is_minus_the_cartan_form(self, m):
        # the square is summed as floor(k_b^2 / 2) per black node plus the white-white edges;
        # pinned where those parts differ: no black node, white nodes adjacent next to black
        # ones, and e8-a5, whose white nodes are pairwise apart
        from itertools import product

        no_black = Marking(build_diagram("D", 5), frozenset(), (4, 2, 0, 3, 1))
        mixed = Marking(build_diagram("E", 7), frozenset({0, 3}), (6, 2, 4, 1, 5))
        for mk, has_black, adjacent_white in ((no_black, False, True), (mixed, True, True), (m, True, False)):
            white = set(mk.white_order)
            assert bool(mk.black) == has_black
            assert any(i in white and j in white for i, j in mk.diagram.edges) == adjacent_white
            for cls in product(range(3), repeat=len(white)):
                if any(cls):
                    lft = lift(cls, mk)
                    assert lft.self_pairing == -cartan_pairing(mk.diagram, lft.full, lft.full)

    def test_zero_class_rejected(self, m):
        with pytest.raises(ValueError, match="zero class"):
            lift((0, 0, 0, 0), m)

    def test_negative_class_rejected(self, m):
        with pytest.raises(ValueError, match="effective"):
            lift((1, -1, 0, 0), m)

    def test_adjacent_black_rejected(self):
        d = build_diagram("A", 3)
        mk = Marking(d, frozenset({0, 1}), (2,))
        with pytest.raises(ValueError, match="adjacent black"):
            lift((1,), mk)

    def test_errors_keep_their_order(self):
        # length, then negative entries, then the zero class, then adjacent
        # black nodes: each input breaks every later rule as well
        adjacent = Marking(build_diagram("A", 4), frozenset({0, 1}), (2, 3))
        for cls, fault in (((0, -1, 0), "class length"), ((0, -1), "effective"),
                           ((0, 0), "zero class"), ((1, 0), "adjacent black")):
            with pytest.raises(ValueError, match=fault):
                lift(cls, adjacent)
        assert adjacent._lift_plan is None and not adjacent.black_is_independent()
        # a copy, a pickle and _replace rebuild the plan with the marking
        m = e8_a5_marking()
        for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), m._replace()):
            assert other._lift_plan == m._lift_plan and lift((3, 5, 4, 3), other) == lift((3, 5, 4, 3), m)
        # and a marking rebuilt with adjacent black nodes n1, n2 has none
        with pytest.raises(ValueError, match="adjacent black"):
            lift((1, 0, 0), m._replace(black=frozenset({0, 1, 2, 4, 6}), white_order=(3, 5, 7)))

    def test_table_image_lifts(self, m, table):
        for rec in table:
            lft = lift(rec.cls, m)
            assert lft.self_pairing == -2
            assert all(d in (0, -1) for d in lft.delta)

    def test_root_fiber_relation(self, m, table):
        # for every root over a class, the black coefficients differ from the
        # lift's by (root's pairing defect - lift's)/2, and both squares are -2
        classes = {rec.cls for rec in table}
        fibers = {cls: [] for cls in classes}
        for root in enumerate_positive_roots(m.diagram):
            cls = project(root, m)
            if cls is not None:
                fibers[cls].append(root)
        d = m.diagram
        for cls, roots in fibers.items():
            lft = lift(cls, m)
            for root in roots:
                assert -cartan_pairing(d, root, root) == -2
                for j, b in enumerate(m.black_order):
                    e = tuple(int(i == b) for i in range(d.rank))
                    delta_tilde = -cartan_pairing(d, root, e)
                    assert delta_tilde in (-1, 0, 1)
                    assert lft.full[b] - root[b] == Fraction(delta_tilde - lft.delta[j], 2)


class TestCorrespondsToRoot:
    # a class is the white part of a positive root exactly when its lift has square -2
    def test_reference_classes(self, m):
        assert lift((3, 5, 4, 3), m).self_pairing == -2
        assert lift((1, 1, 1, 1), m).self_pairing == -2

    def test_matches_table_membership(self, m, table):
        from itertools import product

        image = {rec.cls for rec in table}
        for cls in product(range(4), repeat=4):
            if not any(cls):
                continue
            assert (lift(cls, m).self_pairing == -2) == (cls in image)

    def test_zero_class_rejected(self, m):
        with pytest.raises(ValueError):
            lift((0, 0, 0, 0), m)


class TestMarkingFormat:
    def test_roundtrip(self, m):
        assert parse_marking(format_marking(m)) == m

    def test_parse(self):
        text = "# comment\nkind A\nrank 2\nblack n2\nwhite n1\n"
        mk = parse_marking(text)
        assert mk.diagram.kind == "A" and mk.black == frozenset({1})
        assert parse_marking("KIND a\nRank 2\nBLACK n2\nWhite n1\n") == mk  # keys and kind in any case

    def test_empty_black(self):
        mk = parse_marking("kind A\nrank 1\nblack\nwhite n1\n")
        assert mk.black == frozenset()

    @pytest.mark.parametrize(
        "text",
        [
            "kind A\nrank 2\nblack n1\n",  # missing white
            "kind A\nrank 2\nblack n3\nwhite n1 n2\n",  # node out of range
            "kind D\nrank 3\nblack\nwhite n1 n2 n3\n",  # illegal rank
            "kind A\nrank 2\nblack n1\nwhite n1 n2\n",  # overlap
            "bogus line\n",
        ],
    )
    def test_bad_inputs(self, text):
        with pytest.raises(ValueError):
            parse_marking(text)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("kind A\nrank 3\nblack n1 n1\nwhite n2 n3\n", 3),  # black node listed twice
            ("kind A\nrank 3\nblack n1 n01\nwhite n2 n3\n", 3),  # same node, another spelling
            ("kind A\nrank 3\nblack n1\nwhite n2 n3 n2\n", 4),
            ("kind A\nkind D\nrank 3\nblack n1\nwhite n2 n3\n", 2),  # repeated lines
            ("kind A\nrank 3\nrank 4\nblack n1\nwhite n2 n3\n", 3),
            ("kind A\nrank 3\nblack n1\n# comment\nblack n2\nwhite n2 n3\n", 5),
            ("kind A\nrank 3\nblack n1\nwhite n2 n3\nwhite n3 n2\n", 5),
            ("kind A\nrank three\nblack n1\nwhite n2 n3\n", 2),  # bad rank
            ("kind A\nrank +3\nblack n1\nwhite n2 n3\n", 2),  # int() reads each of these as 3
            ("kind A\nrank \u0663\nblack n1\nwhite n2 n3\n", 2),
            ("kind A\nrank 0_3\nblack n1\nwhite n2 n3\n", 2),
        ],
    )
    def test_overriding_input_rejected(self, text, lineno):
        with pytest.raises(ValueError, match=f"line {lineno}:"):
            parse_marking(text)


_DIAGRAMS = [("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)] + [("E", r) for r in (6, 7, 8)]


@st.composite
def _markings(draw):
    kind, rank = draw(st.sampled_from(_DIAGRAMS))
    black = draw(st.sets(st.integers(0, rank - 1), max_size=rank))
    white = draw(st.permutations([i for i in range(rank) if i not in black]))
    return Marking(build_diagram(kind, rank), frozenset(black), tuple(white))


def _lift_from_definition(cls, mk):
    """The lift by its definition: the Cartan pairing and each black node's neighbours, read afresh."""
    d = mk.diagram
    full = [0] * d.rank
    for node, mult in zip(mk.white_order, cls):
        full[node] = mult
    ks = [sum(full[nb] for nb in d.neighbors(b)) for b in mk.black_order]
    for b, kj in zip(mk.black_order, ks):
        full[b] = -(-kj // 2)
    delta = tuple(kj - 2 * full[b] for kj, b in zip(ks, mk.black_order))
    return tuple(full), tuple(ks), delta, -cartan_pairing(d, tuple(full), tuple(full))


@st.composite
def _independent_markings(draw):
    """A diagram, a pairwise non-adjacent black set and a shuffled white order."""
    d = build_diagram(*draw(st.sampled_from(_DIAGRAMS)))
    black: set[int] = set()
    for node in draw(st.permutations(range(d.rank))):
        if draw(st.booleans()) and not any(nb in black for nb in d.neighbors(node)) and len(black) < d.rank - 1:
            black.add(node)
    white = draw(st.permutations([i for i in range(d.rank) if i not in black]))
    return Marking(d, frozenset(black), tuple(white))


@st.composite
def _markings_and_classes(draw):
    """An independent marking and a nonzero class."""
    mk = draw(_independent_markings())
    return mk, draw(st.tuples(*[st.integers(0, 9)] * len(mk.white_order)).filter(any))


@settings(max_examples=60, deadline=None)
@given(_markings_and_classes())
def test_lift_matches_its_definition(marking_and_class):
    mk, cls = marking_and_class
    assert tuple(lift(cls, mk)) == _lift_from_definition(cls, mk)


@st.composite
def _markings_and_box_classes(draw):
    """An independent marking and a nonzero class in the box one past the highest root, over its white nodes."""
    mk = draw(_independent_markings())
    h = highest_root(mk.diagram)
    return mk, draw(st.tuples(*[st.integers(0, h[i] + 1) for i in mk.white_order]).filter(any))


@settings(max_examples=60, deadline=None)
@given(_markings_and_box_classes())
def test_fiber_count_is_two_to_the_odd_neighbour_sums(marking_and_class):
    # each black coordinate of a root over c minimizes 2 v_b^2 - 2 v_b k_b: once for k_b even,
    # twice for k_b odd; so c has 2^m roots, m = #{j : k_j odd}, when its lift has square -2, else none
    mk, cls = marking_and_class
    lft = lift(cls, mk)
    counts = {r.cls: r.fiber_count for r in bps_table(mk)}
    assert counts.get(cls) == (2 ** sum(k & 1 for k in lft.k) if lft.self_pairing == -2 else None)


def format_marking(m: Marking) -> str:
    """The marking file of m, which ``parse_marking`` reads back; the program writes none."""
    names = m.diagram.node_names()
    return (
        f"kind {m.diagram.kind}\n"
        f"rank {m.diagram.rank}\n"
        f"black {' '.join(names[i] for i in m.black_order)}\n"
        f"white {' '.join(names[i] for i in m.white_order)}\n"
    )


# Ranks stay small: a marking of rank r builds a diagram with r nodes.
_MARKING_TOKENS = st.sampled_from([
    "kind", "rank", "black", "white", "KIND", "A", "D", "E", "F", "e", "0", "1", "3", "4", "6", "8", "-1",
    "n1", "n2", "n3", "n4", "n8", "n9", "n0", "n01", "n", "nx", "#", "#c",
])


@st.composite
def _marking_texts(draw):
    """A valid marking file with up to three lines dropped, repeated or replaced by junk."""
    lines = format_marking(draw(_markings())).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "junk"]))
        if edit == "junk":
            lines[i] = " ".join(draw(st.lists(_MARKING_TOKENS, max_size=6)))
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=120), _marking_texts()))
def test_random_marking_text_raises_only_value_errors(text):
    try:
        mk = parse_marking(text)
    except ValueError:
        return
    assert parse_marking(format_marking(mk)) == mk


@settings(max_examples=100, deadline=None)
@given(_markings())
def test_marking_format_parse_roundtrip(mk):
    assert parse_marking(format_marking(mk)) == mk


def _naive_fold(m):
    """bps_table as (class, fiber count, invariant) triples, one root at a time."""
    fibers = Counter()
    for root in enumerate_positive_roots(m.diagram):
        cls = tuple(root[i] for i in m.white_order)
        if any(cls):
            fibers[cls] += 1
    return [(cls, n, Fraction(n, 2)) for cls, n in sorted(fibers.items())]


_FOLD_DIAGRAMS = [("A", r) for r in range(1, 21)] + [("D", r) for r in range(4, 17)] + [("E", r) for r in (6, 7, 8)]


@st.composite
def _fold_markings(draw):
    """Any partition of the nodes, often with zero or one white node; black may be adjacent."""
    kind, rank = draw(st.sampled_from(_FOLD_DIAGRAMS))
    nodes = draw(st.permutations(range(rank)))
    n_white = draw(st.one_of(st.integers(0, min(1, rank)), st.integers(0, rank)))
    return Marking(build_diagram(kind, rank), frozenset(nodes[n_white:]), tuple(nodes[:n_white]))


@settings(max_examples=150, deadline=None)
@given(_fold_markings())
def test_bps_table_equals_naive_fold(mk):
    assert [(r.cls, r.fiber_count, r.invariant) for r in bps_table(mk)] == _naive_fold(mk)


def _alternating(kind, rank, parity):
    """The marking whose black nodes are one colour class of the tree's 2-colouring, white ascending."""
    d = build_diagram(kind, rank)
    colour = d.colouring()
    return Marking(d, frozenset(i for i in range(rank) if colour[i] == parity),
                   tuple(i for i in range(rank) if colour[i] != parity))


@pytest.mark.parametrize("kind,rank,parity", [("A", 44, 0), ("A", 44, 1), ("D", 40, 0), ("D", 40, 1)])
def test_bps_table_equals_naive_fold_at_the_largest_ladder_ranks(kind, rank, parity):
    mk = _alternating(kind, rank, parity)
    assert [(r.cls, r.fiber_count, r.invariant) for r in bps_table(mk)] == _naive_fold(mk)
    # the same white nodes in another order fold to permuted classes, sorted again
    shuffled = mk._replace(white_order=mk.white_order[1::2] + mk.white_order[::2][::-1])
    table = bps_table(shuffled)
    assert [(r.cls, r.fiber_count, r.invariant) for r in table] == _naive_fold(shuffled)
    assert all(type(r.cls) is tuple and all(type(c) is int for c in r.cls) for r in table)
    assert all(type(r) is BPSRecord and type(r.invariant) is Fraction for r in table)


@pytest.mark.parametrize(
    "kind,rank,black,white",
    [
        ("A", 1, {0}, ()),
        ("E", 8, set(range(8)), ()),
        ("D", 5, {0, 1, 3, 4}, (2,)),
        ("E", 7, {0, 1, 2, 3, 4, 5}, (6,)),
        ("D", 6, {0, 1, 2}, (5, 3, 4)),
    ],
    ids=["A1-no-white", "E8-no-white", "D5-one-white", "E7-one-white", "D6-adjacent-black"],
)
def test_bps_table_short_white_orders(kind, rank, black, white):
    mk = Marking(build_diagram(kind, rank), frozenset(black), white)
    table = bps_table(mk)
    assert [(r.cls, r.fiber_count, r.invariant) for r in table] == _naive_fold(mk)
    assert all(type(r.cls) is tuple and len(r.cls) == len(white) for r in table)
    if not white:
        assert table == []
