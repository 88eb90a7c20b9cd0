import ast
import inspect
import random
from itertools import product
from operator import lt, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adebps import rootsys
from adebps.rootsys import (
    DynkinDiagram,
    build_diagram,
    cartan_pairing,
    enumerate_positive_roots,
    enumerate_positive_roots_bruteforce,
    highest_root,
    is_positive_root,
    node_index,
    parse_int,
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

    def test_node_names(self):
        assert build_diagram("A", 3).node_names() == ("n1", "n2", "n3")
        assert node_index("n3", 8) == 2
        assert node_index("n01", 8) == 0  # leading zeros are another spelling
        for name, fault in (("x1", "bad node name"), ("nx", "bad node name"), ("n9", "out of range"),
                            ("n0", "out of range"), ("n+1", "bad node name"), ("n1_0", "bad node name"),
                            ("n\u0663", "bad node name"), ("n", "bad node name"), ("n 1", "bad node name"),
                            ("n-1", "bad node name"), ("n-0", "bad node name")):
            with pytest.raises(ValueError, match=fault):
                node_index(name, 8)

    def test_parse_int_takes_a_minus_and_ascii_digits_only(self):
        assert [parse_int(t) for t in ("0", "-0", "7", "-12", "007")] == [0, 0, 7, -12, 7]
        for text in ("", "-", "+1", "--1", "1_0", "\u0663", "-\u0663", " 1", "1 ", "1.0", "0x1", "\uff11"):
            with pytest.raises(ValueError, match="^not an integer: "):
                parse_int(text)


#: (kind, rank) that name no ADE diagram, with the message the constructor raises
_NONCANONICAL = {
    "unknown kind": ("Q", 3, "unknown kind 'Q'"),
    "lower-case kind": ("e", 8, "unknown kind 'e'"),
    "rank 0": ("A", 0, "type A needs rank >= 1"),
    "rank not an int": ("A", True, "rank must be an int"),
}


@pytest.mark.parametrize("kind,rank,message", list(_NONCANONICAL.values()), ids=list(_NONCANONICAL))
def test_noncanonical_diagrams_rejected(kind, rank, message):
    with pytest.raises(ValueError, match=message):
        DynkinDiagram(kind, rank)


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 5), ("D", 4), ("D", 9), ("E", 6), ("E", 7), ("E", 8)])
def test_constructor_derives_the_canonical_edges(kind, rank):
    d = build_diagram(kind, rank)
    built = DynkinDiagram(kind, rank)
    assert built == d == (kind, rank) and built.edges == d.edges and type(built.edges) is tuple
    assert build_diagram(kind.lower(), rank) == d


@pytest.mark.parametrize("kind,rank", [("A", 1), ("A", 5), ("D", 4), ("D", 9), ("E", 6), ("E", 7), ("E", 8)])
def test_colouring_is_the_proper_two_colouring_from_n1(kind, rank):
    # n1 has colour 0 and every edge joins two colours, which fixes a tree's 2-colouring;
    # the diagram stores no colouring, so each call builds a fresh tuple
    d = build_diagram(kind, rank)
    colour = d.colouring()
    assert type(colour) is tuple and len(colour) == rank and colour[0] == 0
    assert all(colour[i] != colour[j] for i, j in d.edges)
    assert d.colouring() == colour and d.colouring() is not colour
    if (kind, rank) == ("E", 8):  # the e8-a5 black set is n1's colour class
        assert {i for i in range(rank) if colour[i] == 0} == {0, 2, 4, 6}


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


@pytest.mark.parametrize("kind,rank", VERIFY_DIAGRAMS + [("A", 16), ("D", 12), ("A", 20), ("D", 16)])
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


def _sorted_unique_roots(d, roots) -> bool:
    """Whether ``roots`` ascend strictly and each is a nonzero v >= 0 of length rank and square 2.

    C is positive definite and even, so each nonzero v has v^T C v / 2 >= 1, and the
    halves add up to one per vector exactly when every vector has square 2.
    """
    cols = list(zip(*roots))
    squares = sum([sum(map(mul, c, c)) for c in cols])
    edges = sum([sum(map(mul, cols[i], cols[j])) for i, j in d.edges])
    return all(map(lt, roots, roots[1:])) and any(roots[0]) and set(map(len, roots)) == {d.rank} \
        and min(map(min, cols)) >= 0 and squares - edges == len(roots)


#: A1-A20, D4-D16 and E6-E8, with the number of positive roots of each
ADE_COUNTS = (
    [("A", n, n * (n + 1) // 2) for n in range(1, 21)]
    + [("D", n, n * (n - 1)) for n in range(4, 17)]
    + [("E", 6, 36), ("E", 7, 63), ("E", 8, 120)]
)


@pytest.mark.parametrize("kind,rank,count", ADE_COUNTS)
def test_closure_counts(kind, rank, count):
    d = build_diagram(kind, rank)
    roots = enumerate_positive_roots(d)
    assert _sorted_unique_roots(d, roots)
    assert len(roots) == count
    assert roots == enumerate_positive_roots_bruteforce(d)


def test_oracle_is_integer_only_and_shares_no_code_with_the_closure():
    tree = ast.parse(inspect.getsource(rootsys))
    nodes = list(ast.walk(tree))
    assert not any(isinstance(n, ast.Constant) and type(n.value) is float for n in nodes)
    assert not any(isinstance(n, ast.Div) for n in nodes)  # true division makes floats
    imported = {a.name for n in nodes if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not imported & {"fractions", "Fraction", "decimal", "Decimal"}
    oracle = next(n for n in tree.body if getattr(n, "name", None) == "enumerate_positive_roots_bruteforce")
    names = {n.id for n in ast.walk(oracle) if isinstance(n, ast.Name)}
    assert not names & {"_positive_roots", "_flat", "enumerate_positive_roots", "highest_root", "cartan_pairing"}
    roots = enumerate_positive_roots_bruteforce(build_diagram("E", 8))
    assert all(type(v) is tuple and all(type(c) is int for c in v) for v in roots)


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
    assert _sorted_unique_roots(d, roots)


#: A1-A64 and D4-D64: the packed roots are 8 * rank bits wide, so they cross
#: each 30-bit digit boundary of a Python integer up to 512 bits
WIDE = [("A", n) for n in range(1, 65)] + [("D", n) for n in range(4, 65)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(WIDE))
def test_closure_across_packed_widths(diagram):
    kind, rank = diagram
    d = build_diagram(kind, rank)
    roots = enumerate_positive_roots(d)
    assert len(roots) == (rank * (rank + 1) // 2 if kind == "A" else rank * (rank - 1))
    assert _sorted_unique_roots(d, roots)
    assert highest_root(d) == ((1,) * rank if kind == "A" else (1, *(2,) * (rank - 3), 1, 1))


def test_enumeration_is_a_fresh_list_of_int_tuples():
    d = build_diagram("D", 5)
    roots = enumerate_positive_roots(d)
    assert type(roots) is list and all(type(v) is tuple and all(type(c) is int for c in v) for v in roots)
    expected = list(roots)
    roots[0] = (9,) * 5
    roots.append((0,) * 5)
    again = enumerate_positive_roots(d)
    assert again == expected and again is not roots


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
