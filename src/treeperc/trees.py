"""Complete k-ary trees: breadth-first edge bits, path and cut enumeration.

``TreeSpec(k, n)`` is the complete k-ary tree of depth n (every internal node
has exactly k children, all leaves at depth n).  Edges are identified by the
node at their lower end and labelled x_1, x_2, ... breadth-first, left to
right within a level, so the k root edges are x_1..x_k, their children
x_{k+1}.. and so on.  An edge set is an int bitmask in which bit l - 1 is the
edge x_l; the children of the edge (level, index) are (level + 1, index*k + c)
for c in 0..k-1.

Path generators are the k^n root-to-leaf edge paths.  Minimal cuts are the
frontiers: antichains of edges meeting every root-to-leaf path exactly once.
Both enumerations return one mask per generator and check their count against
the term cap of ``limits.DEFAULT_BUDGET`` before materializing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .limits import check_tree


@dataclass(frozen=True)
class TreeSpec:
    """The complete k-ary tree T(k, n) with branching k >= 2 and depth n >= 1.

    k = 1 is rejected: the degenerate path-graph case is outside every formula
    implemented here.
    """

    k: int
    n: int

    def __post_init__(self) -> None:
        check_tree(self.k, self.n)

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

    def bit(self, level: int, index: int) -> int:
        """Mask of the edge at ``level`` (1-based, root edges are level 1) and
        ``index`` in [0, k^level): 1 << (label - 1), where x_label is the
        edge's breadth-first name."""
        if not 1 <= level <= self.n:
            raise ValueError(f"edge level {level} out of range 1..{self.n}")
        if not 0 <= index < self.k ** level:
            raise ValueError(f"edge index {index} out of range at level {level}")
        return 1 << ((self.k ** level - self.k) // (self.k - 1) + index)


def enumerate_path_generators(spec: TreeSpec) -> list[int]:
    """All k^n root-to-leaf paths, each the mask of its n edges.

    Paths are ordered by leaf index, i.e. lexicographically in child choice.
    """
    limits.DEFAULT_BUDGET.check_terms(spec.leaf_count, "path generator count")
    paths = []
    for leaf in range(spec.leaf_count):
        mask = 0
        for level in range(1, spec.n + 1):
            mask |= spec.bit(level, leaf // spec.k ** (spec.n - level))
        paths.append(mask)
    return paths


def enumerate_minimal_cuts(spec: TreeSpec) -> list[int]:
    """All minimal cuts: frontiers meeting every root-to-leaf path exactly once.

    Recursive structure: each of the k branches below a node contributes
    either that branch's root edge or a minimal cut of the subtree below it,
    giving the count recursion c(k, n) = (1 + c(k, n-1))^k.
    """
    limits.DEFAULT_BUDGET.check_terms(spec.cut_count, "minimal cut count")

    def combine(level: int, first: int) -> list[int]:
        # cuts through the k sibling edges (level, first..first + k - 1)
        combined = [0]
        for index in range(first, first + spec.k):
            opts = [spec.bit(level, index)]
            if level < spec.n:
                opts.extend(combine(level + 1, index * spec.k))
            combined = [acc | o for acc in combined for o in opts]
        return combined

    return combine(1, 0)


def percolates(spec: TreeSpec, working: int) -> bool:
    """True iff some root-to-leaf path lies entirely inside the edge mask
    ``working``."""

    def reachable(level: int, index: int) -> bool:
        if not working & spec.bit(level, index):
            return False
        if level == spec.n:
            return True
        return any(reachable(level + 1, index * spec.k + c) for c in range(spec.k))

    return any(reachable(1, i) for i in range(spec.k))
