"""Complete k-ary tree model: edge bits, path generators, minimal cuts."""
from __future__ import annotations

from itertools import combinations

import pytest

from treeperc.limits import BudgetExceededError
from treeperc.trees import (
    TreeSpec,
    enumerate_minimal_cuts,
    enumerate_path_generators,
    percolates,
)


def labels(mask: int) -> set[int]:
    """The x-subscripts of the edges in a mask."""
    return {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}


def all_edges(spec: TreeSpec) -> int:
    return (1 << spec.edge_count) - 1


class TestTreeSpec:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            TreeSpec(1, 3)
        with pytest.raises(ValueError):
            TreeSpec(2, 0)

    def test_edge_and_leaf_counts(self):
        assert TreeSpec(2, 2).edge_count == 6
        assert TreeSpec(2, 3).edge_count == 14
        assert TreeSpec(3, 2).edge_count == 12
        assert TreeSpec(2, 4).leaf_count == 16

    def test_path_count_is_leaf_count(self):
        for k, n in [(2, 1), (2, 3), (3, 2)]:
            spec = TreeSpec(k, n)
            assert len(enumerate_path_generators(spec)) == spec.leaf_count == k ** n

    def test_cut_count_recursion(self):
        # c_n = (1 + c_{n-1})^k with c_1 = 1.
        assert TreeSpec(2, 1).cut_count == 1
        assert TreeSpec(2, 2).cut_count == 4
        assert TreeSpec(2, 3).cut_count == 25
        assert TreeSpec(2, 4).cut_count == 676
        assert TreeSpec(3, 2).cut_count == 8

    def test_labels_are_breadth_first(self):
        spec = TreeSpec(2, 2)
        bits = [spec.bit(level, index) for level in (1, 2) for index in range(2 ** level)]
        assert bits == [1 << (label - 1) for label in (1, 2, 3, 4, 5, 6)]

    def test_out_of_range_edges_rejected(self):
        spec = TreeSpec(2, 2)
        with pytest.raises(ValueError):
            spec.bit(3, 0)
        with pytest.raises(ValueError):
            spec.bit(1, 2)
        with pytest.raises(ValueError):
            spec.bit(0, 0)
        with pytest.raises(ValueError):
            spec.bit(2, -1)


class TestPathGenerators:
    def test_depth_two_binary_paths_by_label(self):
        paths = enumerate_path_generators(TreeSpec(2, 2))
        assert [labels(path) for path in paths] == [{1, 3}, {1, 4}, {2, 5}, {2, 6}]

    def test_counts(self):
        for k, n in [(2, 1), (2, 3), (3, 1), (3, 2)]:
            assert len(enumerate_path_generators(TreeSpec(k, n))) == k ** n

    def test_each_path_walks_root_to_leaf(self):
        # One edge per level, each the child of the edge above it.
        spec = TreeSpec(3, 2)
        for path in enumerate_path_generators(spec):
            chosen = [[i for i in range(spec.k ** level) if path & spec.bit(level, i)]
                      for level in range(1, spec.n + 1)]
            assert all(len(at_level) == 1 for at_level in chosen)
            for (shallow,), (deep,) in zip(chosen, chosen[1:]):
                assert deep // spec.k == shallow
            assert path.bit_count() == spec.n

    def test_cap_enforced(self, budget):
        with budget(max_terms=7), pytest.raises(BudgetExceededError):
            enumerate_path_generators(TreeSpec(2, 3))


class TestMinimalCuts:
    def test_depth_two_binary_cuts_by_label(self):
        cuts = enumerate_minimal_cuts(TreeSpec(2, 2))
        assert [labels(cut) for cut in cuts] == [{1, 2}, {1, 5, 6}, {2, 3, 4}, {3, 4, 5, 6}]

    def test_counts_match_recursion(self):
        for k, n in [(2, 1), (2, 3), (2, 4), (3, 2)]:
            spec = TreeSpec(k, n)
            assert len(enumerate_minimal_cuts(spec)) == spec.cut_count

    def test_cuts_are_transversal_antichains(self):
        # Every minimal cut meets every root-to-leaf path in exactly one edge.
        spec = TreeSpec(2, 3)
        paths = enumerate_path_generators(spec)
        for cut in enumerate_minimal_cuts(spec):
            for path in paths:
                assert (cut & path).bit_count() == 1

    def test_removing_any_edge_uncuts(self):
        spec = TreeSpec(2, 2)
        for cut in enumerate_minimal_cuts(spec):
            assert not percolates(spec, all_edges(spec) & ~cut)
            for label in labels(cut):
                assert percolates(spec, all_edges(spec) & ~cut | 1 << (label - 1))

    def test_cap_enforced(self, budget):
        with budget(max_terms=100), pytest.raises(BudgetExceededError):
            enumerate_minimal_cuts(TreeSpec(2, 4))


class TestPercolates:
    def test_known_depth_two_subsets(self):
        spec = TreeSpec(2, 2)
        assert percolates(spec, spec.bit(1, 0) | spec.bit(2, 1))  # labels {1, 4}
        assert not percolates(spec, spec.bit(1, 0) | spec.bit(2, 2))  # labels {1, 5}

    def test_empty_set_never_percolates(self):
        assert not percolates(TreeSpec(2, 1), 0)

    def test_full_edge_set_percolates(self):
        spec = TreeSpec(3, 2)
        assert percolates(spec, all_edges(spec))

    def test_exhaustive_cross_check_against_path_containment(self):
        # percolates(W) holds iff W contains some root-to-leaf path.
        spec = TreeSpec(2, 2)
        edges = [1 << i for i in range(spec.edge_count)]
        paths = enumerate_path_generators(spec)
        for size in range(len(edges) + 1):
            for subset in combinations(edges, size):
                working = sum(subset)
                expected = any(path & working == path for path in paths)
                assert percolates(spec, working) == expected
