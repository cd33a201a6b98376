"""Score fusion, Soft-NMS, and detection finalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tadgraph import postprocess
from tadgraph.errors import DataError
from tadgraph.postprocess import (Detection, WindowScores, _soft_nms_select,
                                  finalize_detections, fuse_scores, read_detections,
                                  soft_nms, write_detections)


class TestFuseScores:
    def test_alpha_one_returns_classification(self):
        p_cls, p_reg = np.array([0.3, 0.9]), np.array([0.5, 0.1])
        np.testing.assert_allclose(fuse_scores(p_cls, p_reg, 1.0), p_cls)

    def test_equal_scores_fixed_point(self):
        q = np.array([0.2, 0.7])
        for alpha in (0.0, 0.3, 0.5, 1.0):
            np.testing.assert_allclose(fuse_scores(q, q, alpha), q)

    def test_geometric_mean_arithmetic(self):
        assert fuse_scores(np.array([0.64]), np.array([0.25]), 0.5)[0] == pytest.approx(0.4)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.01, 1.0, size=2))
            r = rng.uniform(0.01, 1.0)
            alpha = rng.uniform(0.1, 0.9)
            assert fuse_scores(np.array([a]), np.array([r]), alpha) <= \
                fuse_scores(np.array([b]), np.array([r]), alpha)
            assert fuse_scores(np.array([r]), np.array([a]), alpha) <= \
                fuse_scores(np.array([r]), np.array([b]), alpha)


def _soft_nms_oracle(segments, scores, method, threshold, sigma, top_m):
    """Naive reference: decay to exhaustion, then pick top-M by final score."""
    segments = [tuple(s) for s in segments]
    scores = list(map(float, scores))
    alive = set(range(len(scores)))
    final = {}
    while alive:
        best = max(alive, key=lambda i: (scores[i], -segments[i][0]))
        final[best] = scores[best]
        alive.discard(best)
        for i in alive:
            inter = max(0.0, min(segments[i][1], segments[best][1])
                        - max(segments[i][0], segments[best][0]))
            union = max(segments[i][1], segments[best][1]) - min(segments[i][0], segments[best][0])
            iou = inter / union if union > 0 else 0.0
            if method == "linear":
                decay = 1.0 - iou if iou > threshold else 1.0
            else:
                decay = float(np.exp(-(iou ** 2) / sigma))
            scores[i] *= decay
    ranked = sorted(final, key=lambda i: (-final[i], segments[i][0]))[:top_m]
    return ranked, [final[i] for i in ranked]


class TestSoftNMS:
    def test_single_detection_unchanged(self):
        kept, scores = soft_nms(np.array([[1.0, 5.0]]), np.array([0.7]))
        assert kept.tolist() == [0] and scores[0] == 0.7

    def test_disjoint_detections_unchanged(self):
        kept, scores = soft_nms(np.array([[0.0, 5.0], [10.0, 15.0]]), np.array([0.9, 0.6]))
        np.testing.assert_allclose(sorted(scores, reverse=True), [0.9, 0.6])

    def test_identical_intervals_linear_decay_to_zero(self):
        kept, scores = soft_nms(np.array([[2.0, 8.0], [2.0, 8.0]]),
                                np.array([0.9, 0.8]), method="linear", threshold=0.84)
        assert scores[0] == 0.9
        assert scores[1] == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_decay_formula(self):
        segments = np.array([[0.0, 10.0], [0.0, 10.0]])
        kept, scores = soft_nms(segments, np.array([0.9, 0.8]),
                                method="gaussian", sigma=0.4)
        assert scores[1] == pytest.approx(0.8 * np.exp(-1.0 / 0.4))

    def test_scores_never_increase_and_top1_unchanged(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            starts = rng.uniform(0, 50, size=n)
            segments = np.column_stack([starts, starts + rng.uniform(1, 20, size=n)])
            raw = rng.uniform(0.01, 1.0, size=n)
            kept, decayed = soft_nms(segments, raw, top_m=n)
            assert decayed[0] == raw.max()
            for idx, s in zip(kept, decayed):
                assert s <= raw[idx] + 1e-15

    def test_matches_exhaustion_oracle(self):
        rng = np.random.default_rng(2)
        for method in ("linear", "gaussian"):
            for _ in range(20):
                n = int(rng.integers(1, 25))
                starts = rng.uniform(0, 30, size=n)
                segments = np.column_stack([starts, starts + rng.uniform(1, 15, size=n)])
                scores = rng.uniform(0.01, 1.0, size=n)
                kept, decayed = soft_nms(segments, scores, method=method,
                                         threshold=0.5, sigma=0.4, top_m=7)
                ref_kept, ref_scores = _soft_nms_oracle(
                    segments, scores, method, 0.5, 0.4, 7)
                assert kept.tolist() == ref_kept
                np.testing.assert_allclose(decayed, ref_scores, atol=1e-12)

    @given(st.data())
    def test_masked_pass_matches_oracle_with_ties(self, data):
        # rows in any order: both break score ties by the earlier start
        pool = data.draw(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8)),
                                  min_size=1, max_size=4))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=10))
        segments = np.array([(s, s + d) for s, d in (pool[i] for i in picks)],
                            dtype=float).reshape(-1, 2)
        n = len(segments)
        scores = np.array(data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.7, 0.9]),
                                             min_size=n, max_size=n)))
        method = data.draw(st.sampled_from(["linear", "gaussian"]))
        top_m = data.draw(st.sampled_from([1, n, n + 5]))
        kept, decayed = soft_nms(segments, scores, method=method, threshold=0.3,
                                 sigma=0.4, top_m=top_m)
        ref_kept, ref_scores = _soft_nms_oracle(segments, scores, method, 0.3, 0.4, top_m)
        assert kept.tolist() == ref_kept
        np.testing.assert_allclose(decayed, ref_scores, rtol=0, atol=1e-12)

    @settings(max_examples=200)
    @given(st.data())
    def test_top_k_exit_matches_oracle_and_full_run(self, data):
        # many candidates against a small top_m, so the loop first runs on the
        # 4 * top_m highest scores; few distinct scores tie at that cut. A
        # negative score rises toward 0 as it decays, so the oracle's top-M by
        # final score is the selection order only without them; with them the
        # result must still be the full run's
        n = data.draw(st.integers(1, 60))
        starts = data.draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        lengths = data.draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        segments = np.array([(s, s + d) for s, d in zip(starts, lengths)], dtype=float)
        pool = data.draw(st.sampled_from([[-0.6, -0.1, 0.0, 0.05, 0.3, 0.5, 0.9],
                                          [-0.9, -0.6, -0.3, -0.1]]))
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        method = data.draw(st.sampled_from(["linear", "gaussian"]))
        top_m = data.draw(st.integers(1, 4))
        kept, decayed = soft_nms(segments, scores, method=method, threshold=0.3, sigma=0.4,
                                 top_m=top_m)
        if scores.min() >= 0:
            ref_kept, ref_scores = _soft_nms_oracle(segments, scores, method, 0.3, 0.4, top_m)
            assert kept.tolist() == ref_kept
            np.testing.assert_allclose(decayed, ref_scores, rtol=0, atol=1e-12)
        by_start = np.argsort(segments[:, 0], kind="stable")
        full_kept, full_scores = _soft_nms_select(segments[by_start], scores[by_start], method,
                                                  0.3, 0.4, top_m)
        np.testing.assert_array_equal(kept, by_start[full_kept])
        assert decayed.tobytes() == full_scores.tobytes()

    @pytest.fixture
    def pass_sizes(self, monkeypatch):
        """The candidate count of each masked-loop pass ``soft_nms`` runs."""
        sizes = []

        def select(segments, scores, *args):
            sizes.append(len(scores))
            return _soft_nms_select(segments, scores, *args)

        monkeypatch.setattr(postprocess, "_soft_nms_select", select)
        return sizes

    def test_top_k_exit_runs_on_the_highest_scores_only(self, pass_sizes):
        # 1000 disjoint candidates: the 8 highest hold the top 2, so one short pass does
        segments = np.column_stack([np.arange(1000.0) * 2, np.arange(1000.0) * 2 + 1])
        scores = np.random.default_rng(0).uniform(size=1000)
        kept, _ = soft_nms(segments, scores, top_m=2)
        assert pass_sizes == [8]
        assert kept.tolist() == np.argsort(-scores)[:2].tolist()

    def test_top_k_exit_doubles_until_the_bound_holds(self, pass_sizes):
        # every score ties, so no subset clears the largest excluded score
        segments = np.column_stack([np.arange(50.0) * 2, np.arange(50.0) * 2 + 1])
        kept, scores = soft_nms(segments, np.full(50, 0.5), top_m=3)
        assert pass_sizes == [12, 24, 48, 50]
        assert kept.tolist() == [0, 1, 2] and scores.tolist() == [0.5] * 3

    def test_top_k_exit_bounds_negative_scores_by_zero(self):
        # top_m 2 runs first on the 8 highest scores, rows 0-7; the excluded row 8
        # overlaps row 0, the first pick, and decays from -0.3 to -0.03, past the
        # -0.2 of rows 1-7, so it is the second pick
        segments = np.array([[0.0, 10.0]] + [[20.0 + 2 * i, 21.0 + 2 * i] for i in range(7)]
                            + [[0.0, 9.0]])
        scores = np.array([-0.1] + [-0.2] * 7 + [-0.3])
        kept, decayed = soft_nms(segments, scores, threshold=0.5, top_m=2)
        assert kept.tolist() == [8, 0]
        np.testing.assert_allclose(decayed, [-0.03, -0.1], rtol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -0.4])
    def test_gaussian_sigma_not_above_zero_is_refused(self, sigma):
        with pytest.raises(DataError, match="sigma"):
            soft_nms(np.array([[0.0, 1.0]]), np.array([0.5]), method="gaussian", sigma=sigma)

    def test_unknown_method_is_refused(self):
        with pytest.raises(DataError, match="unknown method 'bogus'"):
            soft_nms(np.array([[0.0, 1.0]]), np.array([0.5]), method="bogus")

    def test_tie_at_top_m_cut_keeps_earlier_start(self):
        kept, scores = soft_nms(np.array([[10.0, 20.0], [0.0, 5.0]]), np.array([0.5, 0.5]),
                                top_m=1)
        assert kept.tolist() == [1] and scores.tolist() == [0.5]

    def test_tie_between_overlaps_selects_earlier_start(self):
        segments = np.array([[10.0, 20.0], [9.0, 20.0]])
        kept, scores = soft_nms(segments, np.array([0.5, 0.5]), threshold=0.3)
        ref_kept, ref_scores = _soft_nms_oracle(segments, [0.5, 0.5], "linear", 0.3, 0.4, 100)
        assert kept.tolist() == ref_kept == [1, 0]
        np.testing.assert_allclose(scores, ref_scores, rtol=0, atol=1e-15)
        assert scores[0] == 0.5 and scores[1] < 0.5       # row 0 decayed, not row 1

    def test_output_sorted_ties_by_earlier_start(self):
        segments = np.array([[10.0, 20.0], [0.0, 5.0]])
        kept, scores = soft_nms(segments, np.array([0.5, 0.5]))
        assert kept.tolist() == [1, 0]

    def test_empty_input(self):
        kept, scores = soft_nms(np.zeros((0, 2)), np.zeros(0))
        assert len(kept) == 0 and len(scores) == 0


class TestFinalizeDetections:
    def _scores(self, anchors, p, offset=0, scale=1.0, valid=20, video="v"):
        anchors = np.asarray(anchors, dtype=np.int64)
        return WindowScores(video_id=video, anchors=anchors,
                            p_cls=np.asarray(p, dtype=float),
                            p_reg=np.asarray(p, dtype=float),
                            offset=offset, scale=scale, valid_length=valid)

    def test_seconds_are_affine_in_index(self):
        ws = self._scores([[2, 6]], [0.9], scale=0.5)
        dets = finalize_detections([ws])["v"]
        assert dets[0].start == pytest.approx(1.0)
        assert dets[0].end == pytest.approx(3.0)

    def test_rescaled_sequence_mapping(self):
        # index / 100 * duration, realized as scale = duration / 100
        duration = 240.0
        ws = self._scores([[25, 75]], [0.8], scale=duration / 100, valid=100)
        det = finalize_detections([ws])["v"][0]
        assert det.start == pytest.approx(25 / 100 * duration)
        assert det.end == pytest.approx(75 / 100 * duration)

    def test_cross_window_duplicates_suppressed(self):
        # same video segment seen by two overlapping windows
        w1 = self._scores([[4, 10]], [0.9], offset=0)
        w2 = self._scores([[0, 6]], [0.8], offset=4)
        dets = finalize_detections([w1, w2], threshold=0.5)["v"]
        assert len(dets) == 2
        assert dets[0].score == pytest.approx(np.sqrt(0.9 * 0.9))
        assert dets[1].score < 0.8       # duplicate decayed

    def test_padding_only_anchors_dropped(self):
        # [9, 12] starts at the last real snippet: clipped to it, it ends at its start
        ws = self._scores([[2, 6], [12, 18], [9, 12]], [0.9, 0.95, 0.97], valid=10)
        dets = finalize_detections([ws])["v"]
        assert len(dets) == 1
        assert dets[0].end == pytest.approx(6.0)

    @pytest.mark.parametrize("scale", [0.0, -1.0], ids=["zero", "negative"])
    def test_non_positive_scale_is_refused(self, scale):
        # read_raw_scores refuses such a window first; this guard serves API callers
        with pytest.raises(DataError, match="window of 'v' has non-positive scale"):
            finalize_detections([self._scores([[2, 6]], [0.9], scale=scale)])

    def test_round_trip_json(self, tmp_path):
        detections = {"vid": [Detection(1.5, 3.25, "action", 0.75)]}
        path = tmp_path / "det.json"
        write_detections(path, detections)
        loaded = read_detections(path)
        assert loaded["vid"][0] == detections["vid"][0]
