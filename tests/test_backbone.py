"""Aggregation blocks: edge convolution, streams, padded-conv equivalence."""

import numpy as np
import pytest
from helpers import expand_grouped_taps, relu_margin, zero_block
from hypothesis import given, settings
from hypothesis import strategies as st

from tadgraph import autodiff as ad
from tadgraph.autodiff import Tensor
from tadgraph.backbone import (BackboneParams, BlockParams, backbone_forward,
                               edge_aggregate, gcnext_forward,
                               temporal_stream_equivalence)
from tadgraph.errors import ConfigError
from tadgraph.video_graph import VideoGraph, semantic_adjacency


class TestEdgeAggregate:
    def test_no_edges_reduces_to_pointwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 5)))
        w0 = Tensor(rng.normal(size=(3, 3)))
        w1 = Tensor(rng.normal(size=(3, 3)))
        out = edge_aggregate(x, np.zeros((5, 5)), w0, w1)
        np.testing.assert_allclose(out.data, np.maximum(w0.data @ x.data, 0.0))

    def test_identity_weights_pass_nonnegative_input(self):
        x = Tensor(np.abs(np.random.default_rng(1).normal(size=(4, 6))))
        out = edge_aggregate(x, np.zeros((6, 6)), Tensor(np.eye(4)), Tensor(np.zeros((4, 4))))
        np.testing.assert_allclose(out.data, x.data)

    def test_single_edge_hand_product(self):
        # one channel, two snippets, edge 0 -> 1, unit weights
        x = Tensor(np.array([[1.0, 2.0]]))
        adjacency = np.zeros((2, 2))
        adjacency[0, 1] = 1.0
        out = edge_aggregate(x, adjacency, Tensor(np.ones((1, 1))), Tensor(np.ones((1, 1))),
                             activate=False)
        np.testing.assert_allclose(out.data, [[1.0, 3.0]])


def _random_block(width, cardinality, seed):
    return BlockParams.create(width, cardinality, 2, np.random.default_rng(seed))


class TestGCNextForward:
    def test_zero_weights_residual_only(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(8, 10)))
        params = _random_block(8, 2, 3)
        zero_block(params)
        out = gcnext_forward(x, VideoGraph.build(10, 2), params)
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0.0))

    @pytest.mark.parametrize("width,length", [(8, 10), (8, 50), (16, 10), (16, 50)])
    def test_shape_preserved(self, width, length):
        rng = np.random.default_rng(width + length)
        x = Tensor(rng.normal(size=(width, length)))
        out = gcnext_forward(x, VideoGraph.build(length, 3), _random_block(width, 4, 5))
        assert out.shape == (width, length)

    def test_width_mismatch_rejected(self):
        x = Tensor(np.zeros((6, 10)))
        with pytest.raises(ConfigError):
            gcnext_forward(x, VideoGraph.build(10, 2), _random_block(8, 2, 0))

    def test_cardinality_one_equals_block_diagonal_groups(self):
        rng = np.random.default_rng(7)
        width, cardinality, length = 8, 4, 12
        x_data = rng.normal(size=(width, length))
        grouped = _random_block(width, cardinality, 8)
        dense = _random_block(width, 1, 9)
        for name in ("t_in", "t_out", "s_in", "s_out"):
            getattr(dense, name).data = getattr(grouped, name).data.copy()
        dense.t_conv.data = expand_grouped_taps(grouped.t_conv.data, cardinality)
        dense.s_self.data = expand_grouped_taps(grouped.s_self.data, cardinality)
        dense.s_neigh.data = expand_grouped_taps(grouped.s_neigh.data, cardinality)
        out_grouped = gcnext_forward(Tensor(x_data), VideoGraph.build(length, 2), grouped)
        out_dense = gcnext_forward(Tensor(x_data), VideoGraph.build(length, 2), dense)
        np.testing.assert_allclose(out_grouped.data, out_dense.data, atol=1e-12)

    @settings(max_examples=60)
    @given(st.sampled_from([(8, 1), (8, 2), (16, 4)]), st.integers(2, 24), st.data())
    def test_matches_dense_adjacency_form(self, widths, length, data):
        width, cardinality = widths
        k = data.draw(st.integers(0, min(4, length - 1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.normal(size=(width, length))
        params = BlockParams.create(width, cardinality, 2, rng)
        graph = VideoGraph.build(length, k)
        out = gcnext_forward(Tensor(x), graph, params).data

        def conv(z, taps):
            return ad.grouped_conv1d(Tensor(z), taps, groups=cardinality).data

        dense = params.t_out.data @ conv(params.t_in.data @ x, params.t_conv)
        if k > 0:
            zs = params.s_in.data @ x
            a_s = semantic_adjacency(graph.semantic_layers[-1], length)
            dense += params.s_out.data @ (conv(zs, params.s_self) + conv(zs @ a_s, params.s_neigh))
        np.testing.assert_allclose(out, np.maximum(dense + x, 0.0), rtol=0, atol=1e-12)

    def test_semantic_stream_disabled_when_k_zero(self):
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(8, 10))
        params = _random_block(8, 2, 12)
        out_k0 = gcnext_forward(Tensor(x_data), VideoGraph.build(10, 0), params)
        # manually: temporal stream + residual only
        z = params.t_in.data @ x_data
        z = ad.grouped_conv1d(Tensor(z), Tensor(params.t_conv.data), groups=2).data
        expected = np.maximum(params.t_out.data @ z + x_data, 0.0)
        np.testing.assert_allclose(out_k0.data, expected, atol=1e-12)


class TestTemporalStreamEquivalence:
    def test_zero_weights(self):
        x = np.random.default_rng(0).normal(size=(4, 7))
        zeros = np.zeros((4, 4))
        assert temporal_stream_equivalence(x, zeros, zeros, zeros) == 0.0

    def test_random_instances(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            channels = int(rng.integers(1, 9))
            length = int(rng.integers(1, 17))
            x = rng.normal(size=(channels, length))
            w1, w2, w3 = rng.normal(size=(3, channels, channels))
            worst = max(worst, temporal_stream_equivalence(x, w1, w2, w3))
        assert worst < 1e-10

    def test_single_snippet_boundary(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 1))
        w1, w2, w3 = rng.normal(size=(3, 3, 3))
        assert temporal_stream_equivalence(x, w1, w2, w3) < 1e-12
        # both forms reduce to w2 @ x1
        np.testing.assert_allclose(w2 @ x, w2 @ x)


class TestBackbone:
    def test_single_block_returns_same_tensor_twice(self):
        rng = np.random.default_rng(3)
        params = BackboneParams.create(5, 8, 1, 2, 2, rng)
        block1, final, graph = backbone_forward(Tensor(rng.normal(size=(5, 10))), params, 2)
        assert block1 is final
        assert len(graph.semantic_layers) == 1

    def test_zero_stream_weights_relu_idempotent(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 12)))
        graph = VideoGraph.build(12, 2)
        out = x
        for seed in range(3):
            params = _random_block(8, 2, seed)
            zero_block(params)
            out = gcnext_forward(out, graph, params)
        np.testing.assert_array_equal(out.data, np.maximum(x.data, 0.0))

    def test_semantic_edges_evolve_across_blocks(self):
        rng = np.random.default_rng(6)
        params = BackboneParams.create(6, 8, 3, 2, 2, rng)
        _, _, graph = backbone_forward(Tensor(rng.normal(size=(6, 20))), params, 3)
        assert len(graph.semantic_layers) == 3
        first, last = graph.semantic_layers[0], graph.semantic_layers[-1]
        assert first.tolist() != last.tolist()

    def test_block_parameters_pass_grad_check(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(4, 6)))
            params = BlockParams.create(4, 2, 2, rng)
            tensors = [getattr(params, n) for n in
                       ("t_in", "t_conv", "t_out", "s_in", "s_self", "s_neigh", "s_out")]

            def f():
                graph = VideoGraph.build(6, 2)
                return ad.tsum(ad.square(gcnext_forward(x, graph, params)))

            if relu_margin(f()) < 1e-3:
                continue        # too close to a relu kink: unfit sample for fd
            assert "gather_sum" in {node.op for node in ad.graph_nodes(f())}
            assert ad.grad_check(f, tensors) < 1e-3
            break
        else:
            pytest.fail("no kink-free sample found")
