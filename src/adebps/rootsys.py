"""ADE Dynkin diagrams, the Cartan form, and positive-root enumeration.

All vectors are positional integer tuples over the fixed node order
n1..n_rank, so values stay comparable across modules and files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

RootVector = tuple[int, ...]

#: brute-force coefficient bound; no ADE positive root exceeds it
ORACLE_BOUND = 6
#: most vectors the brute-force oracle holds in memory at once
ORACLE_SLAB = 1 << 20


@dataclass(frozen=True)
class DynkinDiagram:
    """A simply-laced Dynkin tree with the fixed node order n1..n_rank.

    Canonical shapes produced by :func:`build_diagram`:

    * ``A_n`` chain n1-n2-...-n_n
    * ``D_n`` chain n1-...-n_{n-1}, with n_n attached to n_{n-2}
    * ``E_n`` chain n1-...-n_{n-1}, with n_n attached to n_{n-3}
    """

    kind: str
    rank: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise ValueError("rank must be positive")
        deg = [0] * r
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(r)]
        for e in self.edges:
            i, j = e
            if not (0 <= i < r and 0 <= j < r) or i == j:
                raise ValueError(f"bad edge {e!r}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {e!r}")
            seen.add(key)
            deg[i] += 1
            deg[j] += 1
            adj[i].append(j)
            adj[j].append(i)
        if len(self.edges) != r - 1:
            raise ValueError("a Dynkin diagram is a tree: need rank-1 edges")
        reached = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if len(reached) != r:
            raise ValueError("diagram is not connected")
        if any(d > 3 for d in deg) or sum(d == 3 for d in deg) > 1:
            raise ValueError("node degrees are not of ADE shape")

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(b if a == i else a for a, b in self.edges if i in (a, b)))

    def adjacent(self, i: int, j: int) -> bool:
        return (i, j) in self.edges or (j, i) in self.edges

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """2 on the diagonal, -1 across each edge, 0 elsewhere."""
        m = [[0] * self.rank for _ in range(self.rank)]
        for i in range(self.rank):
            m[i][i] = 2
        for i, j in self.edges:
            m[i][j] = -1
            m[j][i] = -1
        return tuple(tuple(row) for row in m)

    def node_names(self) -> tuple[str, ...]:
        return tuple(f"n{i + 1}" for i in range(self.rank))


def build_diagram(kind: str, rank: int) -> DynkinDiagram:
    """Canonical ADE diagram; raises ValueError on an illegal (kind, rank)."""
    k = kind.upper()
    if k == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        edges = [(i, i + 1) for i in range(rank - 1)]
    elif k == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((rank - 3, rank - 1))
    elif k == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        edges = [(i, i + 1) for i in range(rank - 2)]
        edges.append((rank - 4, rank - 1))
    else:
        raise ValueError(f"unknown kind {kind!r}: expected A, D or E")
    return DynkinDiagram(k, rank, tuple(edges))


def node_index(name: str, rank: int) -> int:
    """Parse a node label n1..n_rank to its 0-based index."""
    if not name.startswith("n"):
        raise ValueError(f"bad node name {name!r}")
    try:
        k = int(name[1:])
    except ValueError:
        raise ValueError(f"bad node name {name!r}") from None
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
def _positive_roots(d: DynkinDiagram) -> tuple[RootVector, ...]:
    # Closure under adding simple roots.  For a root v,
    # q(v + e_k) = q(v) + 2(Cv)_k + 2, so v + e_k is a root exactly when
    # (Cv)_k = -1 (simply laced), and C(v + e_k) = Cv + column k.  Every
    # positive root is reachable from a simple root this way.
    rank = d.rank
    nbrs = [d.neighbors(k) for k in range(rank)]
    cartan = d.cartan_matrix()
    frontier = [(tuple(int(i == k) for i in range(rank)), cartan[k]) for k in range(rank)]
    found: set[RootVector] = {v for v, _ in frontier}
    while frontier:
        v, cv = frontier.pop()
        for k, c in enumerate(cv):
            if c != -1:
                continue
            u = v[:k] + (v[k] + 1,) + v[k + 1:]
            if u in found:
                continue
            cu = list(cv)
            cu[k] += 2
            for j in nbrs[k]:
                cu[j] -= 1
            found.add(u)
            frontier.append((u, tuple(cu)))
    return tuple(sorted(found))


def enumerate_positive_roots(d: DynkinDiagram) -> list[RootVector]:
    """All v >= 0 with v^T C v = 2, sorted lexicographically.

    Computed once per diagram by a closure in which every root carries its
    Cartan vector Cv: a root v extends to the root v + e_k exactly when
    (Cv)_k = -1, and C(v + e_k) differs from Cv only at k and the
    neighbours of k, so each candidate is an O(1) test and no step calls
    :func:`cartan_pairing`.
    """
    return list(_positive_roots(d))


def enumerate_positive_roots_bruteforce(d: DynkinDiagram, bound: int = ORACLE_BOUND) -> list[RootVector]:
    """Independent oracle: scan every vector with coefficients in [0, bound].

    q(v) = 2 sum_i v_i^2 - 2 sum_(i,j) v_i v_j is built over the whole grid
    [0, bound]^rank by broadcasting: one 1-D term added per node, one 2-D
    term subtracted per edge of ``d.edges``.  The grid is cut into slabs of
    at most :data:`ORACLE_SLAB` vectors (or one row of the last axis, where
    a row is longer), so memory stays bounded: a slab fixes all leading
    axes but the last of them at one value each, runs that one over a
    range of values and the trailing axes over all of [0, bound].  Shares
    no code with the closure.
    """
    import numpy as np

    rank, vals = d.rank, bound + 1
    # axes before lead - 1 take one value per slab, axis lead - 1 a range of
    # ``step`` values, the trailing axes all of [0, bound]
    lead = 1
    while lead < rank - 1 and vals ** (rank - lead) > ORACLE_SLAB:
        lead += 1
    step = max(1, ORACLE_SLAB // vals ** (rank - lead))
    # every partial sum of q lies in [0, 2 * rank * bound^2]; int32 only where that cannot wrap
    dtype = np.int32 if 2 * rank * bound * bound < 2**31 else np.int64
    axis = np.arange(vals, dtype=dtype)
    hits: list[RootVector] = []
    for prefix in product(range(vals), repeat=lead - 1):
        for start in range(0, vals, step):
            ranges = [np.array([a], dtype=dtype) for a in prefix]
            ranges += [axis[start:start + step]] + [axis] * (rank - lead)
            coords = [r.reshape((1,) * i + (-1,) + (1,) * (rank - 1 - i)) for i, r in enumerate(ranges)]
            q = np.zeros(tuple(r.size for r in ranges), dtype=dtype)
            for c in coords:
                q += 2 * c * c
            for i, j in d.edges:
                q -= 2 * coords[i] * coords[j]
            idx = np.nonzero(q == 2)
            if idx[0].size:
                hit = np.stack(idx, axis=1)
                hit[:, :lead - 1] = prefix
                hit[:, lead - 1] += start
                hits.extend(map(tuple, hit.tolist()))
    return sorted(hits)


def highest_root(d: DynkinDiagram) -> RootVector:
    """The unique positive root that dominates all others coefficientwise."""
    roots = _positive_roots(d)
    best = max(roots, key=sum)
    for r in roots:
        if any(b < c for b, c in zip(best, r)):
            raise ArithmeticError("no coefficientwise-maximal root found")
    return best
