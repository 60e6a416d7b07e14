"""Complete k-ary trees: canonical edge labels, path and cut enumeration.

``TreeSpec(k, n)`` is the complete k-ary tree of depth n (every internal node
has exactly k children, all leaves at depth n).  Edges are identified by the
node at their lower end and labelled x_1, x_2, ... breadth-first, left to
right within a level, so the k root edges are x_1..x_k, their children
x_{k+1}.. and so on.

Path generators are the k^n root-to-leaf edge paths.  Minimal cuts are the
frontiers: antichains of edges meeting every root-to-leaf path exactly once.
Both enumerations check an explicit count budget before materializing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .limits import BudgetExceededError

# Cap on enumerated collections (paths, cuts).
ENUMERATION_CAP = 2_000_000


class EdgeId(NamedTuple):
    """Edge at ``level`` (1-based, root edges are level 1), ``index`` in [0, k^level)."""

    level: int
    index: int


@dataclass(frozen=True)
class TreeSpec:
    """The complete k-ary tree T(k, n) with branching k >= 2 and depth n >= 1.

    k = 1 is rejected: the degenerate path-graph case is outside every formula
    implemented here.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("branching factor k must be >= 2")
        if self.n < 1:
            raise ValueError("depth n must be >= 1")

    @property
    def edge_count(self) -> int:
        """Sum of k^i for i = 1..n."""
        return sum(self.k ** i for i in range(1, self.n + 1))

    @property
    def leaf_count(self) -> int:
        return self.k ** self.n

    @property
    def cut_count(self) -> int:
        """c(k, 1) = 1 and c(k, n) = (1 + c(k, n-1))^k."""
        c = 1
        for _ in range(1, self.n):
            c = (1 + c) ** self.k
        return c

    # -- labels ------------------------------------------------------------

    def label(self, edge: EdgeId) -> int:
        """Breadth-first 1-based label of an edge (the x_i subscript)."""
        self._check_edge(edge)
        offset = sum(self.k ** l for l in range(1, edge.level))
        return offset + edge.index + 1

    def parent(self, edge: EdgeId) -> EdgeId | None:
        self._check_edge(edge)
        if edge.level == 1:
            return None
        return EdgeId(edge.level - 1, edge.index // self.k)

    def children(self, edge: EdgeId) -> tuple[EdgeId, ...]:
        self._check_edge(edge)
        if edge.level == self.n:
            return ()
        return tuple(EdgeId(edge.level + 1, edge.index * self.k + c) for c in range(self.k))

    def _check_edge(self, edge: EdgeId) -> None:
        if not 1 <= edge.level <= self.n:
            raise ValueError(f"edge level {edge.level} out of range 1..{self.n}")
        if not 0 <= edge.index < self.k ** edge.level:
            raise ValueError(f"edge index {edge.index} out of range at level {edge.level}")


def enumerate_path_generators(spec: TreeSpec) -> list[tuple[EdgeId, ...]]:
    """All k^n root-to-leaf paths, each a tuple of EdgeIds from level 1 to n.

    Paths are ordered by leaf index, i.e. lexicographically in child choice.
    """
    if spec.leaf_count > ENUMERATION_CAP:
        raise BudgetExceededError("path generator count", ENUMERATION_CAP, spec.leaf_count)
    paths: list[tuple[EdgeId, ...]] = []
    for leaf in range(spec.leaf_count):
        edges = []
        idx = leaf
        for level in range(spec.n, 0, -1):
            edges.append(EdgeId(level, idx))
            idx //= spec.k
        paths.append(tuple(reversed(edges)))
    return paths


def enumerate_minimal_cuts(spec: TreeSpec) -> list[frozenset[EdgeId]]:
    """All minimal cuts: frontiers meeting every root-to-leaf path exactly once.

    Recursive structure: each of the k branches below an edge contributes
    either that branch's root edge or a minimal cut of the subtree below it,
    giving the count recursion c(k, n) = (1 + c(k, n-1))^k.
    """
    if spec.cut_count > ENUMERATION_CAP:
        raise BudgetExceededError("minimal cut count", ENUMERATION_CAP, spec.cut_count)

    def subtree_cuts(edge: EdgeId) -> list[frozenset[EdgeId]]:
        # cuts separating edge's lower node from the leaves below it
        kids = spec.children(edge)
        if not kids:
            return []
        return _combine(kids)

    def _combine(edges: Iterable[EdgeId]) -> list[frozenset[EdgeId]]:
        options_per_edge = []
        for e in edges:
            opts = [frozenset([e])]
            opts.extend(subtree_cuts(e))
            options_per_edge.append(opts)
        combined = [frozenset()]
        for opts in options_per_edge:
            combined = [acc | o for acc in combined for o in opts]
        return combined

    roots = tuple(EdgeId(1, i) for i in range(spec.k))
    return _combine(roots)


def percolates(spec: TreeSpec, working_edges: Iterable[EdgeId]) -> bool:
    """True iff some root-to-leaf path lies entirely inside working_edges."""
    working = set(working_edges)

    def reachable(edge: EdgeId) -> bool:
        if edge not in working:
            return False
        kids = spec.children(edge)
        if not kids:
            return True
        return any(reachable(c) for c in kids)

    return any(reachable(EdgeId(1, i)) for i in range(spec.k))
