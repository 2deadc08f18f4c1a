"""Tests for CSC topology and builders."""

import numpy as np
import pytest

from repro.graph import CSCGraph, add_self_loops, csc_from_edges, make_undirected


def small_graph():
    # Edges: 0->1, 2->1, 1->2, 0->2, 3->0
    src = np.array([0, 2, 1, 0, 3])
    dst = np.array([1, 1, 2, 2, 0])
    return csc_from_edges(src, dst, num_nodes=4)


def test_build_and_neighbor_query():
    g = small_graph()
    assert g.num_nodes == 4
    assert g.num_edges == 5
    assert sorted(g.neighbors(1)) == [0, 2]
    assert sorted(g.neighbors(2)) == [0, 1]
    assert list(g.neighbors(0)) == [3]
    assert list(g.neighbors(3)) == []


def test_in_degree():
    g = small_graph()
    assert list(g.in_degree()) == [1, 2, 2, 0]
    assert list(g.in_degree(np.array([1, 3]))) == [2, 0]


def test_dedup_removes_duplicate_edges():
    src = np.array([0, 0, 0])
    dst = np.array([1, 1, 1])
    g = csc_from_edges(src, dst, num_nodes=2)
    assert g.num_edges == 1
    g2 = csc_from_edges(src, dst, num_nodes=2, dedup=False)
    assert g2.num_edges == 3


def test_validation_errors():
    with pytest.raises(ValueError):
        CSCGraph(np.array([1, 2]), np.array([0]))  # indptr[0] != 0
    with pytest.raises(ValueError):
        CSCGraph(np.array([0, 2, 1]), np.array([0, 0]))  # decreasing
    with pytest.raises(ValueError):
        CSCGraph(np.array([0, 1]), np.array([5]))  # index out of range
    with pytest.raises(ValueError):
        csc_from_edges(np.array([0]), np.array([9]), num_nodes=2)


def test_make_undirected_doubles_edges():
    src, dst = make_undirected(np.array([0, 1]), np.array([1, 2]))
    g = csc_from_edges(src, dst, num_nodes=3)
    assert sorted(g.neighbors(0)) == [1]
    assert sorted(g.neighbors(1)) == [0, 2]


def test_add_self_loops():
    src, dst = add_self_loops(np.array([0]), np.array([1]), num_nodes=3)
    g = csc_from_edges(src, dst, num_nodes=3)
    for v in range(3):
        assert v in g.neighbors(v)
