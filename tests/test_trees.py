"""Complete k-ary tree model: edges, path generators, minimal cuts."""
from __future__ import annotations

from itertools import combinations

import pytest

from treeperc import trees
from treeperc.limits import BudgetExceededError
from treeperc.trees import (
    EdgeId,
    TreeSpec,
    enumerate_minimal_cuts,
    enumerate_path_generators,
    percolates,
)


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

    def test_labels_are_breadth_first_and_invertible(self):
        spec = TreeSpec(2, 2)
        labels = [spec.label(EdgeId(level, index)) for level in (1, 2) for index in range(2 ** level)]
        assert labels == [1, 2, 3, 4, 5, 6]

    def test_parent_child_structure(self):
        spec = TreeSpec(2, 2)
        root = EdgeId(1, 0)
        assert spec.parent(root) is None
        kids = spec.children(root)
        assert kids == (EdgeId(2, 0), EdgeId(2, 1))
        assert all(spec.parent(child) == root for child in kids)
        assert spec.children(EdgeId(2, 1)) == ()

    def test_out_of_range_edges_rejected(self):
        spec = TreeSpec(2, 2)
        with pytest.raises(ValueError):
            spec.label(EdgeId(3, 0))
        with pytest.raises(ValueError):
            spec.label(EdgeId(1, 2))


class TestPathGenerators:
    def test_depth_two_binary_paths_by_label(self):
        spec = TreeSpec(2, 2)
        paths = enumerate_path_generators(spec)
        as_labels = {tuple(spec.label(e) for e in path) for path in paths}
        assert as_labels == {(1, 3), (1, 4), (2, 5), (2, 6)}

    def test_counts(self):
        for k, n in [(2, 1), (2, 3), (3, 1), (3, 2)]:
            assert len(enumerate_path_generators(TreeSpec(k, n))) == k ** n

    def test_each_path_walks_root_to_leaf(self):
        spec = TreeSpec(3, 2)
        for path in enumerate_path_generators(spec):
            assert len(path) == spec.n
            assert path[0].level == 1
            for shallow, deep in zip(path, path[1:]):
                assert spec.parent(deep) == shallow

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(trees, "ENUMERATION_CAP", 7)
        with pytest.raises(BudgetExceededError):
            enumerate_path_generators(TreeSpec(2, 3))


class TestMinimalCuts:
    def test_depth_two_binary_cuts_by_label(self):
        spec = TreeSpec(2, 2)
        cuts = {frozenset(spec.label(e) for e in cut) for cut in enumerate_minimal_cuts(spec)}
        assert cuts == {
            frozenset({1, 2}),
            frozenset({1, 5, 6}),
            frozenset({2, 3, 4}),
            frozenset({3, 4, 5, 6}),
        }

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
                assert len(cut.intersection(path)) == 1

    def test_removing_any_edge_uncuts(self):
        spec = TreeSpec(2, 2)
        all_edges = {EdgeId(level, index) for level in (1, 2) for index in range(2 ** level)}
        for cut in enumerate_minimal_cuts(spec):
            assert not percolates(spec, all_edges - cut)
            for edge in cut:
                assert percolates(spec, all_edges - (cut - {edge}))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(trees, "ENUMERATION_CAP", 100)
        with pytest.raises(BudgetExceededError):
            enumerate_minimal_cuts(TreeSpec(2, 4))


class TestPercolates:
    def test_known_depth_two_subsets(self):
        spec = TreeSpec(2, 2)
        assert percolates(spec, {EdgeId(1, 0), EdgeId(2, 1)})  # labels {1, 4}
        assert not percolates(spec, {EdgeId(1, 0), EdgeId(2, 2)})  # labels {1, 5}

    def test_empty_set_never_percolates(self):
        assert not percolates(TreeSpec(2, 1), set())

    def test_full_edge_set_percolates(self):
        spec = TreeSpec(3, 2)
        edges = {EdgeId(level, index) for level in (1, 2) for index in range(3 ** level)}
        assert percolates(spec, edges)

    def test_exhaustive_cross_check_against_path_containment(self):
        # percolates(W) holds iff W contains some root-to-leaf path.
        spec = TreeSpec(2, 2)
        edges = sorted(
            (EdgeId(level, index) for level in (1, 2) for index in range(2 ** level)),
            key=spec.label,
        )
        paths = [set(p) for p in enumerate_path_generators(spec)]
        for size in range(len(edges) + 1):
            for subset in combinations(edges, size):
                working = set(subset)
                expected = any(path <= working for path in paths)
                assert percolates(spec, working) == expected
