"""Scoring heads, label assignment, and loss terms."""

import numpy as np
import pytest
from helpers import relu_margin

from tadgraph import autodiff as ad
from tadgraph import heads
from tadgraph.autodiff import Tensor
from tadgraph.errors import ConfigError, ContractError
from tadgraph.heads import (LocalizationParams, NodeParams, assign_anchor_labels,
                            assign_node_labels, localization_forward,
                            node_branch_forward, node_loss, subgraph_loss,
                            total_loss, weighted_bce)
from tadgraph.training import weight_decay_term

LN2 = float(np.log(2.0))


def _loc_params(in_width=6, hidden=(5, 4), seed=0):
    return LocalizationParams.create(in_width, hidden, np.random.default_rng(seed))


class TestLocalizationForward:
    def test_zero_parameters_give_half(self):
        params = _loc_params()
        for t in (params.w1, params.b1, params.w2, params.b2, params.w3, params.b3):
            t.data[...] = 0.0
        out = localization_forward(Tensor(np.random.default_rng(1).normal(size=(7, 6))), params)
        np.testing.assert_allclose(out.data, 0.5)

    def test_outputs_in_unit_interval(self):
        params = _loc_params(seed=2)
        feats = Tensor(np.random.default_rng(3).normal(size=(20, 6)) * 50)
        out = localization_forward(feats, params).data
        assert np.all(out > 0) and np.all(out < 1)
        assert out.shape == (20, 2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            localization_forward(Tensor(np.zeros((3, 9))), _loc_params(in_width=6))

    def test_all_layers_pass_grad_check(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            params = _loc_params(seed=seed)
            feats = Tensor(rng.normal(size=(5, 6)))
            targets = rng.uniform(size=5)

            def f():
                out = localization_forward(feats, params)
                return subgraph_loss(out[:, 0], out[:, 1], targets)

            if relu_margin(f()) < 1e-3:
                continue
            tensors = [params.w1, params.b1, params.w2, params.b2, params.w3, params.b3]
            assert ad.grad_check(f, tensors) < 1e-3
            break
        else:
            pytest.fail("no kink-free sample found")


class TestLocalizationBlocks:
    """The head runs over row blocks; three-row blocks make every case cross one."""

    @staticmethod
    def _unblocked(x, params):
        h = np.maximum(x @ params.w1.data + params.b1.data, 0.0)
        h = np.maximum(h @ params.w2.data + params.b2.data, 0.0)
        return 1.0 / (1.0 + np.exp(-(h @ params.w3.data + params.b3.data)))

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
    def test_blocks_match_unblocked_reference(self, rows, monkeypatch):
        monkeypatch.setattr(heads, "LOC_BLOCK_ROWS", 3)
        params = _loc_params(seed=rows)
        x = np.random.default_rng(rows).normal(size=(rows, 6))
        out = localization_forward(Tensor(x), params).data
        assert out.shape == (rows, 2)
        np.testing.assert_allclose(out, self._unblocked(x, params), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block_rows", [2, 3, 5])
    def test_no_block_scores_a_single_row(self, block_rows, monkeypatch):
        # at J = 2 * rows + 1 the last anchor would be a one-row block, which numpy
        # multiplies through gemv; it joins the block before it instead
        monkeypatch.setattr(heads, "LOC_BLOCK_ROWS", block_rows)
        seen = []
        score_rows = heads._localization_rows
        monkeypatch.setattr(heads, "_localization_rows",
                            lambda x, params: seen.append(x.shape[0]) or score_rows(x, params))
        count = 2 * block_rows + 1
        x = np.random.default_rng(block_rows).normal(size=(count, 6))
        out = localization_forward(Tensor(x), _loc_params(seed=block_rows)).data
        assert seen == [block_rows, block_rows + 1]
        assert out.shape == (count, 2)

    def test_grad_check_across_block_boundary(self, monkeypatch):
        monkeypatch.setattr(heads, "LOC_BLOCK_ROWS", 3)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            params = _loc_params(seed=seed)
            feats = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
            targets = rng.uniform(size=5)

            def f():
                out = localization_forward(feats, params)
                return subgraph_loss(out[:, 0], out[:, 1], targets)

            if relu_margin(f()) < 1e-3:
                continue
            assert {n.op for n in ad.graph_nodes(f())} >= {"slice", "concat"}
            tensors = [feats, params.w1, params.b1, params.w2, params.b2, params.w3, params.b3]
            assert ad.grad_check(f, tensors) < 1e-3
            break
        else:
            pytest.fail("no kink-free sample found")


class TestNodeBranch:
    def test_zero_parameters_give_half(self):
        params = NodeParams.create(4, np.random.default_rng(0))
        params.w.data[...] = 0.0
        params.b.data[...] = 0.0
        out = node_branch_forward(Tensor(np.random.default_rng(1).normal(size=(4, 9))), params)
        np.testing.assert_allclose(out.data, 0.5)
        assert out.shape == (9, 2)

    def test_single_snippet(self):
        params = NodeParams.create(3, np.random.default_rng(2))
        out = node_branch_forward(Tensor(np.random.default_rng(3).normal(size=(3, 1))), params)
        assert out.shape == (1, 2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        params = NodeParams.create(3, rng)
        x = rng.normal(size=(3, 8))
        perm = rng.permutation(8)
        base = node_branch_forward(Tensor(x), params).data
        permuted = node_branch_forward(Tensor(x[:, perm]), params).data
        np.testing.assert_allclose(permuted, base[perm])


class TestAnchorLabels:
    def test_exact_match_is_one(self):
        labels = assign_anchor_labels(np.array([[4, 9]]), [(4.0, 9.0)])
        assert labels[0] == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        labels = assign_anchor_labels(np.array([[1, 3]]), [(10.0, 12.0), (20.0, 25.0)])
        assert labels[0] == 0.0

    def test_max_over_ground_truths(self):
        labels = assign_anchor_labels(np.array([[2, 6]]), [(4.0, 8.0), (20.0, 30.0)])
        assert labels[0] == pytest.approx(1.0 / 3.0)

    def test_no_ground_truth_zero(self):
        labels = assign_anchor_labels(np.array([[2, 6], [1, 4]]), [])
        np.testing.assert_array_equal(labels, [0.0, 0.0])

    def test_order_invariant(self):
        anchors = np.array([[2, 6], [5, 9], [1, 3]])
        gts = [(4.0, 8.0), (1.0, 2.0), (6.0, 9.0)]
        a = assign_anchor_labels(anchors, gts)
        b = assign_anchor_labels(anchors, gts[::-1])
        np.testing.assert_array_equal(a, b)


class TestNodeLabels:
    def test_wide_ground_truth_regions(self):
        flags = assign_node_labels(40, [(10.0, 30.0)])        # radius 2
        np.testing.assert_array_equal(np.where(flags[:, 0])[0], [8, 9, 10, 11, 12])
        np.testing.assert_array_equal(np.where(flags[:, 1])[0], [28, 29, 30, 31, 32])

    def test_no_ground_truth_all_zero(self):
        assert assign_node_labels(10, []).sum() == 0

    def test_radius_clamps_to_one(self):
        flags = assign_node_labels(12, [(5.0, 7.0)])          # duration 2 -> radius 1
        np.testing.assert_array_equal(np.where(flags[:, 0])[0], [4, 5, 6])
        np.testing.assert_array_equal(np.where(flags[:, 1])[0], [6, 7, 8])

    def test_region_clipped_at_window_edge(self):
        flags = assign_node_labels(33, [(10.0, 30.0)])
        np.testing.assert_array_equal(np.where(flags[:, 1])[0], [28, 29, 30, 31, 32])


class TestSubgraphLoss:
    def test_perfect_regression_leaves_classification_only(self):
        g_c = np.array([0.9, 0.2, 0.7])
        p = Tensor(g_c.copy())
        cls_only = weighted_bce(p, (g_c > 0.5).astype(float)).item()
        loss = subgraph_loss(p, Tensor(g_c.copy()), g_c).item()
        assert loss == pytest.approx(cls_only, abs=1e-12)

    def test_single_anchor_regression_arithmetic(self):
        p_cls = Tensor(np.array([0.5]))
        p_reg = Tensor(np.array([0.5]))
        g_c = np.array([0.3])
        loss = subgraph_loss(p_cls, p_reg, g_c, lambda1=10.0).item()
        # classification: all-negative batch at 0.5 -> ln 2; regression: 10 * 0.04
        assert loss == pytest.approx(LN2 + 0.4, abs=1e-12)

    def test_balanced_batch_at_half_gives_ln2(self):
        g_c = np.array([0.9, 0.8, 0.1, 0.2])
        loss = weighted_bce(Tensor(np.full(4, 0.5)), (g_c > 0.5).astype(float)).item()
        assert loss == pytest.approx(LN2, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            subgraph_loss(Tensor(np.zeros(0)), Tensor(np.zeros(0)), np.zeros(0))

    def test_target_thresholding(self):
        # moving g_c within (0.5, 1] changes only the regression target
        p_cls = Tensor(np.array([0.7, 0.4]))
        reg = Tensor(np.array([0.6, 0.3]))
        a = subgraph_loss(p_cls, reg, np.array([0.6, 0.2]), lambda1=0.0).item()
        b = subgraph_loss(p_cls, reg, np.array([0.99, 0.2]), lambda1=0.0).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradients_pass_check(self):
        rng = np.random.default_rng(6)
        raw = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        g_c = rng.uniform(size=5)

        def f():
            probs = ad.sigmoid(raw)
            return subgraph_loss(probs[:, 0], probs[:, 1], g_c)

        assert ad.grad_check(f, raw) < 1e-3


class TestNodeLoss:
    def test_confident_correct_predictions_near_zero(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        probs = Tensor(np.where(labels > 0.5, 1.0 - 1e-9, 1e-9))
        assert node_loss(probs, labels).item() < 1e-5

    def test_uninformative_predictions_ln2_per_channel(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        loss = node_loss(Tensor(np.full((4, 2), 0.5)), labels).item()
        assert loss == pytest.approx(2 * LN2, abs=1e-12)

    def test_channel_swap_symmetry(self):
        rng = np.random.default_rng(7)
        probs = rng.uniform(0.05, 0.95, size=(6, 2))
        labels = (rng.uniform(size=(6, 2)) > 0.6).astype(float)
        a = node_loss(Tensor(probs), labels).item()
        b = node_loss(Tensor(probs[:, ::-1].copy()), labels[:, ::-1]).item()
        assert a == pytest.approx(b, abs=1e-12)


class TestTotalLoss:
    def test_lambda2_zero(self):
        l_g, l_n = Tensor(np.float64(1.25)), Tensor(np.float64(0.5))
        assert total_loss(l_g, l_n, 0.0).item() == pytest.approx(1.75)

    def test_single_parameter_regularizer(self):
        theta = Tensor(np.array([3.0]), requires_grad=True)
        zero = Tensor(np.float64(0.0))
        loss = total_loss(zero, zero, weight_decay_term([theta], 1e-4))
        assert loss.item() == pytest.approx(9e-4, abs=1e-15)

    def test_doubling_parameters_quadruples_regularizer(self):
        rng = np.random.default_rng(8)
        theta = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        zero = Tensor(np.float64(0.0))
        base = total_loss(zero, zero, weight_decay_term([theta], 1e-4)).item()
        theta.data *= 2.0
        assert total_loss(zero, zero, weight_decay_term([theta], 1e-4)).item() \
            == pytest.approx(4 * base)

    def test_composition_exact(self):
        # the weight term is a constant: it adds to the value, not to the graph
        rng = np.random.default_rng(9)
        l_g = Tensor(np.float64(rng.uniform()), requires_grad=True)
        l_n = Tensor(np.float64(rng.uniform()), requires_grad=True)
        weight_term = 1e-4 * rng.uniform()
        loss = total_loss(l_g, l_n, weight_term)
        assert loss.item() == l_g.item() + l_n.item() + weight_term
        loss.backward()
        assert l_g.grad == 1.0 and l_n.grad == 1.0
