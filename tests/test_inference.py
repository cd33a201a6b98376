"""Scoring of whole windows."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import small_model_config
from helpers import relu_margin

from tadgraph import autodiff as ad
from tadgraph import heads
from tadgraph.align import sgalign_forward
from tadgraph.autodiff import Tensor
from tadgraph.data import Window
from tadgraph.errors import NumericError
from tadgraph.heads import localization_forward, subgraph_loss
from tadgraph.inference import score_windows
from tadgraph.model import Detector, ModelConfig
from tadgraph.video_graph import knn_semantic_edges


def test_long_window_peak_memory():
    # one L=256 window has 14049 anchors; their (J, 1152) aligned features
    # would take 129 MB, but the head aligns one 512-row block (4.7 MB) at a
    # time and clamps each hidden layer's product in place (2.1 and 0.5 MB).
    # The window peaks at 8.0 MB; 1024-row blocks peaked at 15.3 MB
    model = Detector(ModelConfig(window_length=256), np.random.default_rng(0))
    window = Window("v", np.random.default_rng(1).normal(size=(32, 256)), offset=0,
                    valid_length=256, scale=1.0)
    tracemalloc.start()
    try:
        scores = score_windows(model, [window])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores[0].p_cls) == len(model.anchors) == 14049
    assert peak < 10e6


def test_long_window_head_equals_numpy_composition():
    # each layer as a product, then a separate bias add, then relu as
    # np.where over a mask, then the package's sigmoid: the fused bias and
    # np.maximum give the same bits on all 14049 anchors of L=256, block by
    # block as the head reads them
    rng = np.random.default_rng(4)
    model = Detector(ModelConfig(window_length=256), rng)
    p = model.loc_head
    for b in (p.b1, p.b2, p.b3):
        b.data = rng.normal(scale=0.1, size=b.shape)
    with ad.no_grad():
        _, final, graph = model.forward_features(rng.normal(size=(32, 256)))
        aligned = model.aligner(final, graph.semantic_layers[-1])
        scores = localization_forward(aligned, p).data
    blocks = []
    for lo, hi in ad.row_blocks(aligned.shape[0], heads.LOC_BLOCK_ROWS):
        h = aligned[lo:hi].data @ p.w1.data + p.b1.data
        h = np.where(h > 0, h, 0.0)
        h = h @ p.w2.data + p.b2.data
        h = np.where(h > 0, h, 0.0)
        blocks.append(ad.sigmoid(Tensor(h @ p.w3.data + p.b3.data)).data)
    assert scores.shape == (14049, 2)
    np.testing.assert_array_equal(scores, np.concatenate(blocks))


def test_non_finite_scores_raise_numeric_error_naming_the_window():
    # finite weights whose first layer overflows to +-inf: relu keeps +inf,
    # and the second layer's inf - inf makes the scores NaN
    model = Detector(ModelConfig(window_length=64, max_duration=16), np.random.default_rng(0))
    w1 = model.loc_head.w1
    w1.data = np.sign(w1.data) * 1e307
    window = Window("v7", np.random.default_rng(1).normal(size=(32, 64)), offset=32,
                    valid_length=64, scale=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=r"localization head.*'v7' at offset 32"):
            score_windows(model, [window])



@pytest.mark.parametrize("layer", ["w1", "w2"])
def test_non_finite_score_names_the_first_head_layer_at_fault(layer):
    # every weight of the layer at 1e308: w1 meets features of both signs, and w2 the
    # nonnegative ReLU output of w1, so that layer's output is the first not finite
    model = Detector(ModelConfig(window_length=64, max_duration=16), np.random.default_rng(0))
    getattr(model.loc_head, layer).data[:] = 1e308
    window = Window("v7", np.random.default_rng(1).normal(size=(32, 64)), offset=32,
                    valid_length=64, scale=1.0)
    with pytest.raises(NumericError, match=f"localization head layer 'loc.{layer}' gave a "
                                           "non-finite output in the window of video 'v7'"):
        score_windows(model, [window])

_PADDING_MOVES = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: zero padding moves real snippets through the k-NN's semantic edges "
    "and the last real snippet's temporal edge"))


@pytest.mark.parametrize("n", [pytest.param(n, marks=_PADDING_MOVES) for n in (30, 40, 49)]
                         + [50])
def test_padding_leaves_real_snippets_unchanged(n):
    # n real snippets zero-padded to L = 50 must score as a model of the same
    # weights at window length n scores them unpadded: equal final features and
    # equal scores for every anchor the two share, within a rounding bound for
    # products of another width. n = L is the control
    config = small_model_config()
    padded_model = Detector(config, np.random.default_rng(5))
    model = Detector(replace(config, window_length=n), None)
    params = padded_model.named_params()
    for name, tensor in model.named_params().items():
        tensor.data = params[name].data
    real = np.random.default_rng(6).normal(size=(config.c_raw, n))
    padded = np.zeros((config.c_raw, config.window_length))
    padded[:, :n] = real
    outputs = []
    with ad.no_grad():
        for detector, features in ((padded_model, padded), (model, real)):
            _, final, graph = detector.forward_features(features)
            outputs.append((final.data, detector.forward_scores(final, graph.semantic_layers[-1])))
    (padded_final, padded_scores), (final, scores) = outputs
    row = {tuple(anchor): i for i, anchor in enumerate(padded_model.anchors.tolist())}
    shared = [row[tuple(anchor)] for anchor in model.anchors.tolist()]
    np.testing.assert_allclose(padded_final[:, :n], final, rtol=0, atol=1e-9)
    np.testing.assert_allclose(padded_scores.data[shared], scores.data, rtol=0, atol=1e-9)


class TestFusedAlignment:
    """``forward_scores`` aligns each head block as it reaches it; the scores
    must equal the head run over the whole aligned tensor, bit for bit."""

    @staticmethod
    def _fused_and_reference(model, features, subset=None):
        with ad.no_grad():
            _, final, graph = model.forward_features(features)
            edges = graph.semantic_layers[-1]
            fused = model.forward_scores(final, edges, subset).data
            aligned = sgalign_forward(final, edges, model.anchors,
                                      model.config.tau1, model.config.tau2).data
            rows = slice(None) if subset is None else subset
            reference = localization_forward(Tensor(aligned[rows]), model.loc_head).data
        return fused, reference

    def test_all_anchors_long_window(self):
        model = Detector(ModelConfig(window_length=256), np.random.default_rng(2))
        features = np.random.default_rng(3).normal(size=(32, 256))
        fused, reference = self._fused_and_reference(model, features)
        assert fused.shape == (14049, 2)
        np.testing.assert_array_equal(fused, reference)

    # (window_length, max_duration) giving exactly `count` anchors
    WINDOWS = {2: (4, 2), 3: (4, 3), 6: (5, 4), 7: (6, 3)}

    @pytest.mark.parametrize("count", [2, 3, 6, 7], ids=["below", "equal", "multiple", "ragged"])
    @pytest.mark.parametrize("with_subset", [False, True], ids=["all", "subset"])
    def test_three_row_blocks(self, count, with_subset, monkeypatch):
        monkeypatch.setattr(heads, "LOC_BLOCK_ROWS", 3)
        rng = np.random.default_rng(count)
        if with_subset:
            config = small_model_config()
        else:
            length, max_duration = self.WINDOWS[count]
            config = small_model_config(window_length=length, max_duration=max_duration)
        model = Detector(config, rng)
        subset = rng.choice(len(model.anchors), count, replace=False) if with_subset else None
        assert with_subset or len(model.anchors) == count
        features = rng.normal(size=(config.c_raw, config.window_length))
        fused, reference = self._fused_and_reference(model, features, subset)
        assert fused.shape == (count, 2)
        np.testing.assert_array_equal(fused, reference)

    def test_gradients_accumulate_across_blocks(self, monkeypatch):
        # 27 anchors in 9 blocks of 3: every block's alignment adjoint adds
        # into the features and into their smoothed copy
        config = small_model_config(width=4, cardinality=2, window_length=12, max_duration=4,
                                    tau1=3, tau2=2, head_hidden=(5, 3))
        for seed in range(30):
            rng = np.random.default_rng(seed)
            model = Detector(config, rng)
            final = Tensor(rng.normal(size=(4, 12)), requires_grad=True)
            edges = knn_semantic_edges(final.data, config.k_neighbors)
            targets = rng.uniform(size=len(model.anchors))
            w1 = model.loc_head.w1

            def f():
                out = model.forward_scores(final, edges)
                return subgraph_loss(out[:, 0], out[:, 1], targets)

            grads = {}
            for block_rows in (10 ** 6, 3):
                monkeypatch.setattr(heads, "LOC_BLOCK_ROWS", block_rows)
                ad.zero_grad([final, w1])
                f().backward()
                grads[block_rows] = (final.grad.copy(), w1.grad.copy())
            if relu_margin(f()) < 1e-3:
                continue
            assert len(model.anchors) == 27
            ops = [n.op for n in ad.graph_nodes(f())]
            assert ops.count("align_rows") == 9 and ops.count("gather_sum") == 1
            for one_block, blocked in zip(grads[10 ** 6], grads[3]):
                np.testing.assert_allclose(blocked, one_block, rtol=0, atol=1e-12)
            assert ad.grad_check(f, [final, w1]) < 1e-3
            break
        else:
            pytest.fail("no kink-free sample found")
