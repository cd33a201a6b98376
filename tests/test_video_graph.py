"""Temporal and semantic graph construction."""

import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import gather_matrix_csr, knn_semantic_edges_dense
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tadgraph import autodiff as ad
from tadgraph.autodiff import Tensor
from tadgraph.errors import ContractError, DataError
from tadgraph.video_graph import (VideoGraph, gather_edges, knn_semantic_edges,
                                  semantic_adjacency, temporal_adjacency)


def _knn_reference(features, k):
    """Per node, the other columns sorted by (squared distance, index).

    Distances accumulate channel by channel in float64, so duplicate and
    zero columns tie exactly and the smaller index wins.
    """
    channels, length = features.shape
    edges = []
    for node in range(length):
        scored = []
        for other in range(length):
            if other == node:
                continue
            d2 = 0.0
            for c in range(channels):
                diff = features[c, other] - features[c, node]
                d2 += diff * diff
            scored.append((d2, other))
        edges += [[other, node] for _, other in sorted(scored)[:k]]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def _features_with_ties(draw):
    """Features whose columns repeat, are zeroed or sit on a 0.1 grid.

    On the grid, distinct pairs often tie exactly in the direct distance
    but not in a Gram-matrix form (|a|^2 + |b|^2 - 2 a.b).
    """
    channels = draw(st.integers(1, 4))
    length = draw(st.integers(2, 12))
    values = st.integers(-20, 20).map(lambda v: v / 10)
    if draw(st.booleans()):
        values |= st.floats(-4.0, 4.0, allow_subnormal=False)
    base = draw(arrays(np.float64, (channels, length), elements=values))
    features = base[:, draw(arrays(np.int64, length, elements=st.integers(0, length - 1)))]
    features[:, draw(arrays(np.bool_, length))] = 0.0
    return features, draw(st.integers(1, length - 1))


@st.composite
def _wide_features(draw):
    """Up to 48 x 256 features from a drawn seed, with exact ties and extreme scales.

    Values on a 0.1 grid tie exactly in the channel-order distance, and
    repeated or zeroed columns tie at 0. ``scale`` spreads the column norms
    over 50 decades, adds a common offset of 1e6, shrinks the values until
    their squares or the values themselves are subnormal, or lifts them to
    1e154 and beyond, where squared distances overflow.
    """
    length = draw(st.integers(2, 256))
    channels = draw(st.integers(1, 48))
    k = draw(st.integers(1, min(8, length - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        features = rng.integers(-20, 21, size=(channels, length)) / 10
    else:
        features = rng.normal(size=(channels, length))
    if draw(st.booleans()):
        features = features[:, rng.integers(0, length, size=length)]
    features[:, rng.random(length) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    scale = draw(st.sampled_from(["none", "decades", "offset", "tiny", "subnormal", "huge"]))
    if scale == "decades":
        features *= 10.0 ** rng.uniform(-25, 25, size=length)
    elif scale == "offset":
        features += 1e6
    elif scale == "tiny":
        features *= 10.0 ** rng.uniform(-162, -154)
    elif scale == "subnormal":
        features *= 1e-310
    elif scale == "huge":
        features *= 10.0 ** rng.uniform(154, 156)
    return features, k


class TestTemporalAdjacency:
    def test_l3_columns(self):
        a_fwd, a_bwd = temporal_adjacency(3)
        eye = np.eye(3)
        # column j of the forward adjacency indicates node j+1, last column zero
        np.testing.assert_array_equal(a_fwd[:, 0], eye[1])
        np.testing.assert_array_equal(a_fwd[:, 1], eye[2])
        np.testing.assert_array_equal(a_fwd[:, 2], np.zeros(3))
        np.testing.assert_array_equal(a_bwd[:, 0], np.zeros(3))
        np.testing.assert_array_equal(a_bwd[:, 1], eye[0])
        np.testing.assert_array_equal(a_bwd[:, 2], eye[1])

    def test_single_node_graph_is_empty(self):
        a_fwd, a_bwd = temporal_adjacency(1)
        assert not a_fwd.any() and not a_bwd.any()

    def test_empty_graph_rejected(self):
        with pytest.raises(ContractError):
            temporal_adjacency(0)

    def test_transpose_identity(self):
        for length in (1, 2, 5, 17):
            a_fwd, a_bwd = temporal_adjacency(length)
            np.testing.assert_array_equal(a_fwd, a_bwd.T)

    def test_column_gather_shifts_features(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        a_fwd, _ = temporal_adjacency(5)
        gathered = x @ a_fwd
        for k in range(4):
            np.testing.assert_array_equal(gathered[:, k], x[:, k + 1])
        np.testing.assert_array_equal(gathered[:, 4], np.zeros(4))

    def test_no_self_loops(self):
        a_fwd, a_bwd = temporal_adjacency(6)
        assert np.diag(a_fwd).sum() == 0 and np.diag(a_bwd).sum() == 0


class TestKnnSemanticEdges:
    def test_one_dimensional_example(self):
        feats = np.array([[0.0, 0.1, 10.0]])
        edges = knn_semantic_edges(feats, 1)
        assert edges.tolist() == [[1, 0], [0, 1], [1, 2]]

    def test_identical_features_tie_break_by_index(self):
        feats = np.ones((3, 5))
        edges = knn_semantic_edges(feats, 2)
        for node in range(5):
            neighbors = edges[edges[:, 1] == node, 0].tolist()
            expected = [i for i in range(5) if i != node][:2]
            assert neighbors == expected

    def test_edge_count_and_no_self_loops(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            feats = rng.normal(size=(6, 11))
            edges = knn_semantic_edges(feats, 3)
            assert len(edges) == 3 * 11
            assert not np.any(edges[:, 0] == edges[:, 1])

    def test_k_too_large_rejected(self):
        with pytest.raises(ContractError):
            knn_semantic_edges(np.zeros((2, 4)), 4)

    def test_nonfinite_features_rejected(self):
        feats = np.zeros((2, 4))
        feats[0, 1] = np.nan
        with pytest.raises(DataError):
            knn_semantic_edges(feats, 1)

    def test_k_zero_gives_empty_list(self):
        assert len(knn_semantic_edges(np.zeros((2, 4)), 0)) == 0

    def test_determinism(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(8, 20))
        first = knn_semantic_edges(feats, 4)
        second = knn_semantic_edges(feats.copy(), 4)
        np.testing.assert_array_equal(first, second)

    def test_permutation_equivariance(self):
        # distinct pairwise distances: permuting snippets permutes the edges
        rng = np.random.default_rng(21)
        feats = rng.normal(size=(5, 9))
        k = 3
        edges = knn_semantic_edges(feats, k)
        perm = rng.permutation(9)
        permuted_edges = knn_semantic_edges(feats[:, perm], k)
        inverse = np.argsort(perm)
        remapped = np.stack([inverse[edges[:, 0]], inverse[edges[:, 1]]], axis=1)
        assert (sorted(map(tuple, permuted_edges.tolist()))
                == sorted(map(tuple, remapped.tolist())))

    @settings(max_examples=300)
    @given(_features_with_ties())
    @example((np.array([[0.3, 0.1, 0.5, 0.0, 0.7]]), 2))
    def test_matches_brute_force_reference(self, case):
        features, k = case
        np.testing.assert_array_equal(knn_semantic_edges(features, k),
                                      _knn_reference(features, k))

    @settings(max_examples=200, deadline=None)
    @given(_wide_features())
    # |a|^2 overflows, so every other node is a candidate; every distance
    # overflows too, and the inf ties go to the smaller index, never the node itself
    @example((np.array([[1e155, 3e155, -2e155, 0.0]]), 2))
    def test_matches_dense_form(self, case):
        features, k = case
        with np.errstate(over="ignore"):     # huge draws overflow the dense form's squares
            edges = knn_semantic_edges(features, k)
            np.testing.assert_array_equal(edges, knn_semantic_edges_dense(features, k))
        assert edges.dtype == np.int64

    def test_overflowing_distances_give_no_self_loop_and_no_warning(self):
        features = np.array([[1e155, 3e155, -2e155, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            edges = knn_semantic_edges(features, 2)
        assert not np.any(edges[:, 0] == edges[:, 1])
        assert edges.tolist() == [[1, 0], [2, 0], [0, 1], [2, 1], [0, 2], [1, 2], [0, 3], [1, 3]]

    def test_peak_memory_stays_near_one_distance_buffer(self):
        # one (800, 800) float64 buffer is 5.1 MB; a per-channel (C, L, L)
        # difference tensor would be 164 MB
        features = np.random.default_rng(0).normal(size=(32, 800))
        tracemalloc.start()
        try:
            knn_semantic_edges(features, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_zero_padded_window_matches_reference_in_bounded_memory(self):
        # a tail window of 128 real columns, then 128 zero columns: the zeros tie
        # exactly with one another, and each real column's nearest is the origin,
        # so every column keeps all 128 zeros and the screen keeps 32,719
        # candidates, against 1,024 on a full window. Re-ranking them all at once
        # peaked at 26.8 MB here; chunk by chunk, the whole call peaks at 4.0 MB
        features = np.random.default_rng(2).normal(size=(32, 256))
        features[:, 128:] = 0.0
        tracemalloc.start()
        try:
            edges = knn_semantic_edges(features, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(edges, _knn_reference(features, 4))
        assert peak < 6e6


class TestGatherEdges:
    def test_mean_divides_by_in_degree(self):
        edges = np.array([[1, 0], [2, 0], [0, 1], [0, 2], [0, 2]])
        src, dst, weights = gather_edges(edges, 3, mean=True)
        mean = np.zeros((3, 3))
        np.add.at(mean, (dst, src), weights)
        np.testing.assert_array_equal(mean, [[0, 0.5, 0.5], [1, 0, 0], [1, 0, 0]])
        assert (dst.tolist(), src.tolist()) == ([0, 0, 1, 2, 2], [1, 2, 0, 0, 0])

    def test_node_without_neighbours_refused_for_the_mean(self):
        with pytest.raises(ContractError, match="node 2 has no neighbors"):
            gather_edges(np.array([[1, 0], [0, 1]]), 3, mean=True)

    @settings(max_examples=60)
    @given(st.integers(2, 40), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
    def test_sums_equal_the_csr_product_bit_for_bit(self, length, channels, seed, mean):
        # gather_sum over the sorted edges adds, forward and adjoint, in the order a
        # CSR matrix of the edges does, so both products agree to the last bit
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, length))
        x = Tensor(rng.normal(size=(channels, length)) * 10.0 ** rng.integers(-3, 4, length),
                   requires_grad=True)
        edges = knn_semantic_edges(x.data, k)
        out = ad.gather_sum(x, *gather_edges(edges, length, mean), length)
        matrix = gather_matrix_csr(edges, length, mean)
        np.testing.assert_array_equal(out.data, (matrix @ x.data.T).T)
        g = rng.normal(size=(channels, length))
        ad.tsum(ad.mul(out, g)).backward()
        np.testing.assert_array_equal(x.grad, (matrix.T @ g.T).T)


class TestSemanticAdjacency:
    def test_empty_edges_zero_matrix(self):
        adj = semantic_adjacency(np.zeros((0, 2), dtype=np.int64), 4)
        np.testing.assert_array_equal(adj, np.zeros((4, 4)))

    def test_column_sums_equal_k(self):
        feats = np.array([[0.0, 0.1, 10.0]])
        adj = semantic_adjacency(knn_semantic_edges(feats, 1), 3)
        np.testing.assert_array_equal(adj.sum(axis=0), np.ones(3))

    def test_column_sums_k2_random(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(3, 4))
        adj = semantic_adjacency(knn_semantic_edges(feats, 2), 4)
        np.testing.assert_array_equal(adj.sum(axis=0), np.full(4, 2.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            semantic_adjacency(np.array([[0, 7]]), 4)


def test_graph_export_layout():
    graph = VideoGraph.build(4, 1)
    rng = np.random.default_rng(4)
    graph.add_semantic_layer(rng.normal(size=(3, 4)))
    graph.add_semantic_layer(rng.normal(size=(3, 4)))
    exported = graph.to_json_dict()
    assert exported["L"] == 4 and exported["K"] == 1
    assert len(exported["layers"]) == 2
    assert all(len(layer) == 4 for layer in exported["layers"])
    assert exported["layers"] == [layer.tolist() for layer in graph.semantic_layers]
    dot = graph.to_dot()
    assert dot.startswith("digraph") and "n0 -> n1" in dot
