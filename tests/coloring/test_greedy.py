"""Tests for the speculative parallel greedy distance-1 coloring."""

import numpy as np
import pytest

from repro.coloring import color_class_sizes, greedy_color, is_valid_coloring, num_colors
from repro.graph import (
    complete_graph,
    cycle_graph,
    empty_graph,
    grid2d,
    path_graph,
    random_gnp,
    star_graph,
)
from repro.parallel import NumpyBackend


class TestCorrectness:
    def test_valid_on_every_small_graph(self, any_small_graph):
        result = greedy_color(any_small_graph)
        assert is_valid_coloring(any_small_graph, result.colors, distance=1)

    def test_all_vertices_colored(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        assert np.all(result.colors >= 0)
        assert result.colors.size == nonempty_small_graph.num_vertices

    def test_color_count_bounded_by_degree_plus_one(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        assert result.num_colors <= nonempty_small_graph.max_degree() + 1

    def test_empty_graph(self):
        result = greedy_color(empty_graph(0))
        assert result.num_colors == 0
        assert result.colors.size == 0

    def test_isolated_vertices_single_color(self):
        result = greedy_color(empty_graph(7))
        assert result.num_colors == 1

    def test_bipartite_grid_uses_few_colors(self):
        result = greedy_color(grid2d(10, 10))
        assert result.num_colors <= 4

    def test_complete_graph_needs_n_colors(self):
        result = greedy_color(complete_graph(6))
        assert result.num_colors == 6

    def test_star_two_colors(self):
        result = greedy_color(star_graph(9))
        assert result.num_colors == 2

    def test_colors_are_dense(self, nonempty_small_graph):
        result = greedy_color(nonempty_small_graph)
        used = np.unique(result.colors)
        assert used.tolist() == list(range(result.num_colors))


class TestResultObject:
    def test_color_classes_partition_vertices(self, small_laplace3d):
        result = greedy_color(small_laplace3d)
        classes = result.color_classes()
        assert len(classes) == result.num_colors
        combined = np.sort(np.concatenate(classes))
        assert np.array_equal(combined, np.arange(small_laplace3d.num_vertices))

    def test_num_colors_helper(self):
        assert num_colors(np.array([0, 1, 1, 2])) == 3
        assert num_colors(np.array([], dtype=np.int64)) == 0

    def test_color_class_sizes_helper(self):
        sizes = color_class_sizes(np.array([0, 0, 1, 2, 2, 2]))
        assert sizes == {0: 2, 1: 1, 2: 3}

    def test_deterministic(self, small_laplace3d):
        a = greedy_color(small_laplace3d)
        b = greedy_color(small_laplace3d)
        assert np.array_equal(a.colors, b.colors)

    def test_traffic_recorded(self, small_laplace3d):
        result = greedy_color(small_laplace3d)
        assert result.traffic.num_kernels >= 2


class _ExpandCountingBackend(NumpyBackend):
    """NumPy backend that counts its ``expand_rows`` calls."""

    def __init__(self):
        self.expand_calls = 0

    def expand_rows(self, rowmap, rows):
        self.expand_calls += 1
        return super().expand_rows(rowmap, rows)


class TestRoundStructure:
    @pytest.mark.parametrize(
        "make", [lambda: grid2d(9, 11), lambda: random_gnp(150, 0.06, seed=4)]
    )
    def test_one_row_expansion_per_round(self, make):
        # Speculative assignment and conflict detection share one expansion of
        # the round's worklist rows.
        graph = make()
        backend = _ExpandCountingBackend()
        result = greedy_color(graph, backend=backend)
        assert result.rounds > 1
        assert backend.expand_calls == result.rounds
        assert np.array_equal(result.colors, greedy_color(graph, backend="numpy").colors)
