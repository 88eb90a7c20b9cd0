"""ADE Dynkin diagrams, the Cartan form, and positive-root enumeration.

Positive roots are enumerated twice, by code that shares nothing: a
closure under adding simple roots, and an exact square-completion oracle
that ``verify`` compares it with; the closure runs on packed integers and
the oracle on a fraction-free elimination, so both are integer-only.  All
vectors returned are positional integer tuples over the fixed node order
n1..n_rank, so values stay comparable across modules and files.
"""

from functools import lru_cache
from itertools import repeat
from math import isqrt, lcm
from typing import NamedTuple

RootVector = tuple[int, ...]


class _DiagramFields(NamedTuple):
    kind: str
    rank: int


class _Checked:
    """Makes every path that builds a named tuple (``_make``, ``_replace``, copies, pickles) call ``__new__``."""

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


def _edges(kind: str, rank: int) -> tuple[tuple[int, int], ...]:
    """The canonical edges of (kind, rank); raises ValueError on an illegal pair."""
    if type(rank) is not int:
        raise ValueError(f"rank must be an int, got {rank!r}")
    if kind == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        return tuple((i, i + 1) for i in range(rank - 1))
    if kind == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        return (*((i, i + 1) for i in range(rank - 2)), (rank - 3, rank - 1))
    if kind == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        return (*((i, i + 1) for i in range(rank - 2)), (rank - 4, rank - 1))
    raise ValueError(f"unknown kind {kind!r}: expected A, D or E")


class DynkinDiagram(_Checked, _DiagramFields):
    """The ADE diagram of (kind, rank) in the node order n1..n_rank, whose ``edges`` are, in order:

    * ``A_n`` chain n1-n2-...-n_n
    * ``D_n`` chain n1-...-n_{n-1}, with n_n attached to n_{n-2}
    * ``E_n`` chain n1-...-n_{n-1}, with n_n attached to n_{n-3}

    so (kind, rank) is the whole diagram.  A named tuple of those two fields, checked whenever one
    is built: by the constructor, ``_make``, ``_replace``, a copy or a pickle, each of which calls
    the constructor, so each also derives the read-only edges and the neighbour lists.
    """

    def __new__(cls, kind: str, rank: int):
        self = super().__new__(cls, kind, rank)
        self._edges = _edges(kind, rank)
        adj: list[list[int]] = [[] for _ in range(rank)]
        for i, j in self._edges:  # canonical order lists each node's neighbours ascending
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(map(tuple, adj))
        return self

    edges = property(lambda self: self._edges, doc="The edges of (kind, rank), read-only.")

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def colouring(self) -> tuple[int, ...]:
        """The tree's 2-colouring: each node's distance from n1, mod 2; computed on each call."""
        colour = [0] * self.rank
        for i, j in self._edges:  # canonical edges reach each node j from an earlier i
            colour[j] = 1 - colour[i]
        return tuple(colour)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """2 on the diagonal, -1 across each edge, 0 elsewhere."""
        nodes = range(self.rank)
        return tuple(tuple(2 if i == j else -1 if j in self._adj[i] else 0 for j in nodes) for i in nodes)

    def node_names(self) -> tuple[str, ...]:
        return tuple(f"n{i + 1}" for i in range(self.rank))


def build_diagram(kind: str, rank: int) -> DynkinDiagram:
    """Canonical ADE diagram; raises ValueError on an illegal (kind, rank)."""
    return DynkinDiagram(kind.upper(), rank)


def parse_int(text: str) -> int:
    """The integer spelled by an optional ``-`` and then ASCII digits; ValueError otherwise.

    Every signed integer read from text goes through here, so unlike ``int`` no
    input takes a ``+``, an ``_``, surrounding space or a non-ASCII digit.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def node_index(name: str, rank: int) -> int:
    """Parse a node label n1..n_rank (``n`` then ASCII digits) to its 0-based index."""
    digits = name[1:]
    if not (name.startswith("n") and digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad node name {name!r}")
    k = int(digits)
    if not 1 <= k <= rank:
        raise ValueError(f"node {name!r} out of range for rank {rank}")
    return k - 1


def cartan_pairing(d: DynkinDiagram, u: RootVector, v: RootVector) -> int:
    """u^T C v; the curve-intersection pairing is the negative of this."""
    if len(u) != d.rank or len(v) != d.rank:
        raise ValueError("dimension mismatch")
    total = 2 * sum(a * b for a, b in zip(u, v))
    for i, j in d.edges:
        total -= u[i] * v[j] + u[j] * v[i]
    return total


def is_positive_root(d: DynkinDiagram, v: RootVector) -> bool:
    if len(v) != d.rank:
        return False
    if any(c < 0 for c in v) or not any(v):
        return False
    return cartan_pairing(d, v, v) == 2


@lru_cache(maxsize=None)
def _positive_roots(d: DynkinDiagram) -> tuple[int, ...]:
    # Closure under adding simple roots, one height at a time: q(v + e_k) =
    # q(v) + 2(Cv)_k + 2, so v + e_k is a root exactly when (Cv)_k = -1
    # (simply laced), and each root of height h + 1 is v + e_k for one or
    # more roots v of height h (a dict per height keeps it once).  v and Cv
    # are packed with a byte per node, n1 most significant, byte k of cv
    # holding 0x7F - (Cv)_k: ADE roots have (Cv)_k in -1..2, so no byte
    # leaves 0x7D..0x80 and no step borrows, and bit 7 marks the 0x80s,
    # where v extends.  The highest pending site, at bit length 8j + 1, is
    # node rank - 1 - j, so ``site[j]`` holds its e_k and packed column, and
    # a step allocates no integer but the new v and its cv.
    rank = d.rank
    step = [1 << 8 * (rank - 1 - k) for k in range(rank)]
    col = [2 * step[k] - sum([step[j] for j in d.neighbors(k)]) for k in range(rank)]
    ones = sum(step)
    site = list(zip(step, col))[::-1]
    level = {e: 0x7F * ones - c for e, c in site}
    roots = []
    while level:
        roots += level
        higher = {}
        for v, cv in level.items():
            ext = cv >> 7 & ones
            while ext:
                e, c = site[ext.bit_length() >> 3]
                higher[v + e] = cv - c
                ext ^= e
        level = higher
    return tuple(sorted(roots))


def enumerate_positive_roots(d: DynkinDiagram) -> list[RootVector]:
    """All v >= 0 with v^T C v = 2, sorted lexicographically; a fresh list on every call.

    Computed once per diagram by a closure that adds simple roots one
    height at a time to roots packed as integers, a byte per node, n1 most
    significant, so numeric order is lexicographic order; one shift and
    mask of the packed Cv find every k where v extends, taken highest
    first by bit length, which indexes a table of e_k and its column, so
    no step negates, masks or hashes a big integer.  The cache holds
    the packed integers, which each call unpacks in one pass.
    """
    return list(zip(*[iter(_flat(_positive_roots(d), d.rank))] * d.rank))


def _flat(packed, rank: int) -> bytes:
    """Packed vectors (a byte per node, n1 most significant) as their bytes, joined in one pass."""
    return b"".join(map(int.to_bytes, packed, repeat(rank), repeat("big")))


def enumerate_positive_roots_bruteforce(d: DynkinDiagram) -> list[RootVector]:
    """Independent oracle: every v >= 0 with q(v) = v^T C v = 2, by completing squares.

    Fraction-free (Bareiss) elimination of the Cartan form leaves row k
    as u_k, with u_k[k] the leading minor D_(k+1) (D_0 = 1), and writes
    q(v) = sum_k (u_k . v)^2 / (D_k D_(k+1)); scaled by M, the lcm of the
    D_k D_(k+1), every term is an integer.  Choosing v_rank, ..., v_1 in
    turn, each square may take at most what is left of the budget 2 M,
    which bounds each v_k to an interval found with ``isqrt``; a budget
    ending at 0 means q(v) = 2 (so v != 0).  No coefficient bound is
    assumed (Fincke and Pohst, Math. Comp. 44, 1985; Bareiss, Math. Comp.
    22, 1968).  Integers only, and shares no code with the closure.
    """
    n = d.rank
    a = [list(row) for row in d.cartan_matrix()]
    minors = [1]
    for k in range(n):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // minors[k]  # exact
        minors.append(a[k][k])
    dens = [p * q for p, q in zip(minors, minors[1:])]  # D_k D_(k+1)
    scale = lcm(*dens)
    # per node: D_(k+1), M / (D_k D_(k+1)), and u_k's nonzero entries past k as (index in tail, value)
    rows = [(minors[k + 1], scale // dens[k], [(j - k - 1, a[k][j]) for j in range(k + 1, n) if a[k][j]])
            for k in range(n)]
    hits: list[RootVector] = []

    def choose(k: int, budget: int, tail: RootVector) -> None:  # tail = (v_(k+1), ..., v_rank), chosen
        if k < 0:
            if budget == 0:
                hits.append(tail)
            return
        pivot, weight, row = rows[k]
        # weight (pivot x + s)^2 <= budget exactly when |pivot x + s| <= r,
        # so every x in the range leaves a budget >= 0
        s = sum([c * tail[i] for i, c in row])
        r = isqrt(budget // weight)
        for x in range(max(0, -((r + s) // pivot)), (r - s) // pivot + 1):
            choose(k - 1, budget - weight * (pivot * x + s) ** 2, (x, *tail))

    choose(n - 1, 2 * scale, ())
    return sorted(hits)


def highest_root(d: DynkinDiagram) -> RootVector:
    """The unique positive root that dominates all others coefficientwise, so also the lexicographically last."""
    return tuple(_positive_roots(d)[-1].to_bytes(d.rank, "big"))
