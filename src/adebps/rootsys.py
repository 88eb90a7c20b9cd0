"""ADE Dynkin diagrams, the Cartan form, and positive-root enumeration.

Positive roots are enumerated twice, by code that shares nothing: a
closure under adding simple roots, and an exact square-completion oracle
that ``verify`` compares it with; the closure runs on packed integers and
the oracle on an LDL^T scaled once to integers.  All vectors returned are
positional integer tuples over the fixed node order n1..n_rank, so values
stay comparable across modules and files.
"""

from __future__ import annotations

from fractions import Fraction
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
    # are packed with a byte per node, n1 most significant, each byte of cv
    # offset by 0x41: adding the packed column C e_k never borrows, and v
    # extends at the bytes 0x40.  ADE roots have (Cv)_k in -1..2, so every
    # byte of cv stays in 0x40..0x43.
    rank = d.rank
    step = [1 << 8 * (rank - 1 - k) for k in range(rank)]
    col = [2 * step[k] - sum([step[j] for j in d.neighbors(k)]) for k in range(rank)]
    ones = sum(step)
    level = {step[k]: 0x41 * ones + col[k] for k in range(rank)}
    roots = []
    while level:
        roots += level
        higher = {}
        for v, cv in level.items():
            cb = cv.to_bytes(rank, "big")
            k = cb.find(0x40)
            while k >= 0:
                higher[v + step[k]] = cv + col[k]
                k = cb.find(0x40, k + 1)
        level = higher
    return tuple(sorted(roots))


def enumerate_positive_roots(d: DynkinDiagram) -> list[RootVector]:
    """All v >= 0 with v^T C v = 2, sorted lexicographically; a fresh list on every call.

    Computed once per diagram by a closure that adds simple roots one
    height at a time to roots packed as integers, a byte per node, n1 most
    significant, so numeric order is lexicographic order; each step adds a
    packed column of C to the packed Cv, and ``bytes.find`` locates the k
    with (Cv)_k = -1 where v extends.  The cache holds the packed integers,
    which each call unpacks in one pass.
    """
    return list(_unpack(_positive_roots(d), d.rank))


def _unpack(packed, rank: int):
    """Packed vectors (a byte per node, n1 most significant) as tuples, in one pass."""
    flat = b"".join(map(int.to_bytes, packed, repeat(rank), repeat("big")))
    return zip(*[iter(flat)] * rank)


def enumerate_positive_roots_bruteforce(d: DynkinDiagram) -> list[RootVector]:
    """Independent oracle: every v >= 0 with q(v) = v^T C v = 2, by completing squares.

    An exact LDL^T of the Cartan form writes q(v) as
    sum_i p_i (v_i + sum_(j>i) l_ji v_j)^2 with pivots p_i > 0; scaled by
    P L^2, with L and P the lcm of the denominators of the l_ji and the p_i,
    every term is an integer.  Choosing v_rank, ..., v_1 in turn, each
    square may take at most what is left of the budget 2 P L^2, which bounds
    each v_i to an interval found with ``isqrt``; a budget ending at 0
    means q(v) = 2 (so v != 0).  No coefficient bound is assumed (Fincke
    and Pohst, Math. Comp. 44, 1985).  Shares no code with the closure.
    """
    n = d.rank
    form = [[Fraction(c) for c in row] for row in d.cartan_matrix()]
    pivot: list[Fraction] = []
    low = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        pivot.append(form[k][k] - sum(low[k][j] ** 2 * pivot[j] for j in range(k)))
        for i in range(k + 1, n):
            low[i][k] = (form[i][k] - sum(low[i][j] * low[k][j] * pivot[j] for j in range(k))) / pivot[k]
    scale_low = lcm(*(x.denominator for row in low for x in row))
    scale_pivot = lcm(*(p.denominator for p in pivot))
    lo = [[int(x * scale_low) for x in row] for row in low]
    pv = [int(p * scale_pivot) for p in pivot]
    v = [0] * n
    hits: list[RootVector] = []

    def choose(i: int, budget: int) -> None:
        if i < 0:
            if budget == 0:
                hits.append(tuple(v))
            return
        # pv_i (L x + s)^2 <= budget, with s = L * shift, exactly when |L x + s| <= r,
        # so every x in the range leaves a budget >= 0
        s = sum(lo[j][i] * v[j] for j in range(i + 1, n))
        r = isqrt(budget // pv[i])
        for x in range(max(0, -((r + s) // scale_low)), (r - s) // scale_low + 1):
            v[i] = x
            choose(i - 1, budget - pv[i] * (scale_low * x + s) ** 2)

    choose(n - 1, 2 * scale_pivot * scale_low**2)
    return sorted(hits)


def highest_root(d: DynkinDiagram) -> RootVector:
    """The unique positive root that dominates all others coefficientwise, so also the lexicographically last."""
    return tuple(_positive_roots(d)[-1].to_bytes(d.rank, "big"))
