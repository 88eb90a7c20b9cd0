import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps.rootsys import (
    DynkinDiagram,
    build_diagram,
    cartan_pairing,
    enumerate_positive_roots,
    enumerate_positive_roots_bruteforce,
    highest_root,
    is_positive_root,
    node_index,
)


#: (kind, rank) -> the message build_diagram raises
_ILLEGAL = {
    ("D", 3): "type D needs rank >= 4",
    ("A", 0): "type A needs rank >= 1",
    ("E", 5): "type E needs rank 6, 7 or 8",
    ("E", 9): "type E needs rank 6, 7 or 8",
    ("F", 4): "unknown kind 'F'",
}


class TestBuildDiagram:
    def test_a1(self):
        d = build_diagram("A", 1)
        assert d.rank == 1 and d.edges == ()

    def test_e8_shape(self):
        d = build_diagram("E", 8)
        assert d.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))
        assert d.neighbors(4) == (3, 5, 7)

    def test_d4_shape(self):
        d = build_diagram("D", 4)
        assert d.neighbors(1) == (0, 2, 3)

    @pytest.mark.parametrize("kind,rank", list(_ILLEGAL))
    def test_illegal(self, kind, rank):
        with pytest.raises(ValueError, match=_ILLEGAL[kind, rank]):
            build_diagram(kind, rank)

    def test_invalid_graphs_rejected(self):
        for rank, edges, fault in (
            (0, (), "rank must be positive"),
            (3, ((0, 1),), "a Dynkin diagram is a tree"),
            (3, ((0, 1), (0, 1)), r"duplicate edge \(0, 1\)"),
            (3, ((0, 1), (2, 1), (1, 2)), r"duplicate edge \(1, 2\)"),  # the same edge reversed
            (3, ((0, 1), (1, 3)), "bad edge"),  # out of range, above and below
            (3, ((-1, 0), (0, 1)), "bad edge"),
            (3, ((0, 1), (1, -1)), "bad edge"),
            (3, ((0, 1), (2, 2)), "bad edge"),  # a self-loop
            (4, ((0, 1), (1, 2), (2, 0)), "not connected"),  # rank - 1 edges on a cycle miss n4
            (5, ((0, 1), (0, 2), (0, 3), (0, 4)), "node degrees"),
            (6, ((0, 1), (1, 2), (2, 3), (1, 4), (2, 5)), "node degrees"),  # two branch nodes
        ):
            with pytest.raises(ValueError, match=fault):
                DynkinDiagram("D", rank, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)),
            ((0, 1), (0, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)),
            ((0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)),
        ],
        ids=["affine-E6", "affine-E7", "affine-E8"],
    )
    def test_affine_trees_rejected(self, edges):
        # arms of (2,2,2), (1,3,3) and (1,2,5) edges at n1: degrees pass, but 1/a + 1/b + 1/c = 1
        with pytest.raises(ValueError, match="not of ADE shape"):
            DynkinDiagram("E", len(edges) + 1, edges)

    def test_node_names(self):
        assert build_diagram("A", 3).node_names() == ("n1", "n2", "n3")
        assert node_index("n3", 8) == 2
        for name, fault in (("x1", "bad node name"), ("nx", "bad node name"), ("n9", "out of range"),
                            ("n0", "out of range")):
            with pytest.raises(ValueError, match=fault):
                node_index(name, 8)


class TestCartanPairing:
    def test_simple_root_norm(self):
        d = build_diagram("E", 8)
        for i in range(8):
            e = tuple(int(j == i) for j in range(8))
            assert cartan_pairing(d, e, e) == 2

    def test_adjacent_simple_roots(self):
        d = build_diagram("A", 2)
        assert cartan_pairing(d, (1, 0), (0, 1)) == -1

    def test_non_adjacent(self):
        d = build_diagram("A", 3)
        assert cartan_pairing(d, (1, 0, 0), (0, 0, 1)) == 0

    def test_highest_root_norm(self):
        d = build_diagram("E", 8)
        h = highest_root(d)
        assert cartan_pairing(d, h, h) == 2

    def test_dimension_mismatch(self):
        d = build_diagram("A", 2)
        with pytest.raises(ValueError):
            cartan_pairing(d, (1,), (1, 0))

    def test_matrix(self):
        d = build_diagram("A", 2)
        assert d.cartan_matrix() == ((2, -1), (-1, 2))


COUNTS = (
    [("A", n, n * (n + 1) // 2) for n in range(1, 9)]
    + [("D", 4, 12), ("D", 5, 20)]
    + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)


@pytest.mark.parametrize("kind,rank,count", COUNTS)
def test_positive_root_counts(kind, rank, count):
    assert len(enumerate_positive_roots(build_diagram(kind, rank))) == count


#: the diagrams ``verify`` compares the closure with the oracle on
VERIFY_DIAGRAMS = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8)]


@pytest.mark.parametrize("kind,rank", VERIFY_DIAGRAMS + [("A", 16), ("D", 12)])
def test_closure_equals_bruteforce(kind, rank):
    d = build_diagram(kind, rank)
    assert enumerate_positive_roots(d) == enumerate_positive_roots_bruteforce(d)


@pytest.mark.parametrize("kind,rank", [("A", n) for n in range(1, 6)] + [("D", 4), ("D", 5)])
def test_grid_scan_equals_both_enumerations(kind, rank):
    # a third witness: every vector of [0, 2]^rank, tested with the pairing
    d = build_diagram(kind, rank)
    grid = [v for v in product(range(3), repeat=rank) if any(v) and cartan_pairing(d, v, v) == 2]
    assert grid == enumerate_positive_roots(d) == enumerate_positive_roots_bruteforce(d)


@pytest.mark.parametrize("rank,largest", [(6, 3), (7, 4), (8, 6)])
def test_largest_e_coefficient(rank, largest):
    d = build_diagram("E", rank)
    for roots in (enumerate_positive_roots(d), enumerate_positive_roots_bruteforce(d)):
        assert max(max(r) for r in roots) == largest


@pytest.mark.parametrize("kind", ["D", "E"])
def test_closure_equals_bruteforce_relabeled(kind):
    rng = random.Random(23)
    base = build_diagram(kind, 8)
    roots = set(enumerate_positive_roots(base))
    for _ in range(2):
        perm = list(range(8))
        rng.shuffle(perm)
        d = DynkinDiagram(kind, 8, tuple((perm[i], perm[j]) for i, j in base.edges))
        got = enumerate_positive_roots(d)
        assert got == enumerate_positive_roots_bruteforce(d)
        assert {tuple(r[perm[i]] for i in range(8)) for r in got} == roots


#: A1-A20, D4-D16 and E6-E8, with the number of positive roots of each
ADE_COUNTS = (
    [("A", n, n * (n + 1) // 2) for n in range(1, 21)]
    + [("D", n, n * (n - 1)) for n in range(4, 17)]
    + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)


@st.composite
def _relabeled_trees(draw):
    """(root count, diagram): an ADE tree with its nodes permuted and its edges reordered and reoriented."""
    kind, rank, count = draw(st.sampled_from(ADE_COUNTS))
    perm = draw(st.permutations(range(rank)))
    edges = []
    for i, j in build_diagram(kind, rank).edges:
        edges.append((perm[j], perm[i]) if draw(st.booleans()) else (perm[i], perm[j]))
    return count, DynkinDiagram(kind, rank, tuple(draw(st.permutations(edges))))


@settings(max_examples=80, deadline=None)
@given(_relabeled_trees())
def test_closure_on_relabeled_trees(tree):
    count, d = tree
    roots = enumerate_positive_roots(d)
    assert roots == sorted(set(roots))
    assert all(is_positive_root(d, v) for v in roots)
    assert len(roots) == count
    if d.rank <= 12:
        assert roots == enumerate_positive_roots_bruteforce(d)


class TestBruteforceBound:
    def test_e8_bound_5_misses_the_roots_with_a_6(self):
        # exactly five E8 roots reach 6, all at the branch node n5, so a coefficient
        # bound of 5 would miss them; the highest root is one of them
        d = build_diagram("E", 8)
        roots = enumerate_positive_roots_bruteforce(d)
        missed = [r for r in roots if max(r) > 5]
        assert len(roots) - len(missed) == 115
        assert len(missed) == 5 and all(r[4] == 6 for r in missed)
        assert highest_root(d) in missed


@pytest.mark.parametrize("kind,rank,count", [("A", 80, 3240), ("D", 40, 1560)])
def test_large_closure_sorted_unique_valid(kind, rank, count):
    d = build_diagram(kind, rank)
    roots = enumerate_positive_roots(d)
    assert len(roots) == count
    assert roots == sorted(set(roots))
    assert all(is_positive_root(d, v) for v in roots)


def test_enumeration_is_sorted_and_valid():
    d = build_diagram("E", 7)
    roots = enumerate_positive_roots(d)
    assert roots == sorted(roots)
    assert len(set(roots)) == len(roots)
    for v in roots:
        assert is_positive_root(d, v)


class TestHighestRoot:
    def test_a2(self):
        assert highest_root(build_diagram("A", 2)) == (1, 1)

    def test_a1(self):
        assert highest_root(build_diagram("A", 1)) == (1,)

    def test_e8(self):
        assert highest_root(build_diagram("E", 8)) == (2, 3, 4, 5, 6, 4, 2, 3)

    @pytest.mark.parametrize("kind,rank", [("A", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)])
    def test_dominates_all(self, kind, rank):
        d = build_diagram(kind, rank)
        h = highest_root(d)
        for r in enumerate_positive_roots(d):
            assert all(a >= b for a, b in zip(h, r))


def test_even_positive_form_small_rank_scan():
    # Over all nonzero vectors with |coeffs| <= 6 the form is even and >= 2,
    # with equality exactly on (positive or negative) roots.
    from itertools import product

    for kind, rank in [("A", 2), ("A", 3), ("D", 4)]:
        d = build_diagram(kind, rank)
        pos = set(enumerate_positive_roots(d))
        for v in product(range(-6, 7), repeat=rank):
            if not any(v):
                continue
            q = cartan_pairing(d, v, v)
            assert q >= 2 and q % 2 == 0
            is_root = v in pos or tuple(-c for c in v) in pos
            assert (q == 2) == is_root


def test_even_positive_form_e8_sampled():
    rng = random.Random(41)
    d = build_diagram("E", 8)
    pos = set(enumerate_positive_roots(d))
    samples = [tuple(rng.randrange(-6, 7) for _ in range(8)) for _ in range(2000)]
    samples += list(pos)[:40] + [tuple(-c for c in r) for r in list(pos)[:40]]
    for v in samples:
        if not any(v):
            continue
        q = cartan_pairing(d, v, v)
        assert q >= 2 and q % 2 == 0
        if q == 2:
            assert v in pos or tuple(-c for c in v) in pos


def test_root_count_invariant_under_relabeling():
    rng = random.Random(17)
    base = build_diagram("E", 8)
    roots = set(enumerate_positive_roots(base))
    for _ in range(3):
        perm = list(range(8))
        rng.shuffle(perm)
        edges = tuple((perm[i], perm[j]) for i, j in base.edges)
        relabeled = DynkinDiagram("E", 8, edges)
        got = set(enumerate_positive_roots(relabeled))
        assert len(got) == len(roots)
        assert {tuple(r[perm[i]] for i in range(8)) for r in got} == roots
