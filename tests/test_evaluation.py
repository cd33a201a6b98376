"""Segment IoU, average precision, and the mAP suite."""

from fractions import Fraction

import numpy as np
import pytest

from tadgraph.errors import ContractError
from tadgraph.evaluation import (ClassItems, average_precision, map_suite,
                                 segment_iou)
from tadgraph.postprocess import Detection


class TestSegmentIoU:
    def test_identical(self):
        assert segment_iou((3.0, 8.0), (3.0, 8.0)) == 1.0

    def test_disjoint(self):
        assert segment_iou((0.0, 1.0), (2.0, 3.0)) == 0.0

    def test_partial_overlap(self):
        assert segment_iou((2.0, 6.0), (4.0, 8.0)) == pytest.approx(1.0 / 3.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ContractError):
            segment_iou((5.0, 5.0), (0.0, 1.0))

    def test_thousand_random_pairs_match_interval_arithmetic(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            s1, s2 = rng.uniform(0, 50, size=2)
            a = (s1, s1 + rng.uniform(0.1, 20))
            b = (s2, s2 + rng.uniform(0.1, 20))
            inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
            union = (a[1] - a[0]) + (b[1] - b[0]) - inter
            assert segment_iou(a, b) == pytest.approx(inter / union, abs=1e-12)


def _items(preds, gts):
    """preds: (video, (s, e), score); gts: (video, (s, e))."""
    items = ClassItems()
    for video, seg, score in preds:
        items.pred_video.append(video)
        items.pred_segment.append(tuple(seg))
        items.pred_score.append(score)
    for video, seg in gts:
        items.gt_video.append(video)
        items.gt_segment.append(tuple(seg))
    return items


def _iou(a, b):
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 0.0


def _ap_brute_force(items: ClassItems, threshold: float) -> float:
    """Independent AP path: explicit greedy loops, exact Fraction area."""
    n_gt = len(items.gt_segment)
    if n_gt == 0 or not items.pred_score:
        return 0.0
    order = sorted(range(len(items.pred_score)), key=lambda i: -items.pred_score[i])
    matched = [False] * n_gt
    flags = []
    for pi in order:
        best_gi, best_iou = -1, 0.0
        for gi in range(n_gt):
            if matched[gi] or items.gt_video[gi] != items.pred_video[pi]:
                continue
            iou = _iou(items.pred_segment[pi], items.gt_segment[gi])
            if iou >= threshold and iou > best_iou:
                best_gi, best_iou = gi, iou
        if best_gi >= 0:
            matched[best_gi] = True
            flags.append(1)
        else:
            flags.append(0)
    precisions, recalls = [], []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += flag
        precisions.append(Fraction(tp, rank))
        recalls.append(Fraction(tp, n_gt))
    area = Fraction(0)
    previous = Fraction(0)
    for k in range(len(flags)):
        if recalls[k] > previous:
            envelope = max(precisions[k:])
            area += (recalls[k] - previous) * envelope
            previous = recalls[k]
    return float(area)


def _ap_best_assignment(items: ClassItems, threshold: float) -> float:
    """Max AP over every injective prediction-to-gt assignment."""
    n_gt = len(items.gt_segment)
    if n_gt == 0 or not items.pred_score:
        return 0.0
    order = sorted(range(len(items.pred_score)), key=lambda i: -items.pred_score[i])
    candidates = []
    for pi in order:
        ok = [gi for gi in range(n_gt)
              if items.gt_video[gi] == items.pred_video[pi]
              and _iou(items.pred_segment[pi], items.gt_segment[gi]) >= threshold]
        candidates.append(ok + [None])
    best = 0.0

    def walk(rank, used, flags):
        nonlocal best
        if rank == len(order):
            tp = 0
            area, previous = Fraction(0), Fraction(0)
            precisions = []
            recalls = []
            for r, f in enumerate(flags, start=1):
                tp += f
                precisions.append(Fraction(tp, r))
                recalls.append(Fraction(tp, n_gt))
            for k in range(len(flags)):
                if recalls[k] > previous:
                    area += (recalls[k] - previous) * max(precisions[k:])
                    previous = recalls[k]
            best = max(best, float(area))
            return
        for choice in candidates[rank]:
            if choice is None:
                walk(rank + 1, used, flags + [0])
            elif choice not in used:
                walk(rank + 1, used | {choice}, flags + [1])

    walk(0, frozenset(), [])
    return best


class TestAveragePrecision:
    def test_perfect_predictions(self):
        gts = [("v", (0.0, 10.0)), ("v", (20.0, 30.0)), ("w", (5.0, 9.0))]
        preds = [(video, seg, 0.9) for video, seg in gts]
        items = _items(preds, gts)
        for threshold in (0.3, 0.5, 0.7, 0.95):
            assert average_precision(items, threshold) == pytest.approx(1.0)

    def test_no_predictions(self):
        assert average_precision(_items([], [("v", (0.0, 1.0))]), 0.5) == 0.0

    def test_no_ground_truths(self):
        assert average_precision(_items([("v", (0.0, 1.0), 0.5)], []), 0.5) == 0.0

    def test_hand_walked_pr_curve(self):
        # rank 1 TP, rank 2 FP, rank 3 TP over two ground truths -> 5/6
        gts = [("v", (0.0, 10.0)), ("v", (20.0, 30.0))]
        preds = [("v", (0.0, 10.0), 0.9),
                 ("v", (40.0, 50.0), 0.8),
                 ("v", (20.0, 30.0), 0.7)]
        ap = average_precision(_items(preds, gts), 0.5)
        assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_tied_scores_rank_in_input_order(self):
        gts = [("v", (0.0, 10.0))]
        hit, miss = ("v", (0.0, 10.0), 0.5), ("v", (40.0, 50.0), 0.5)
        assert average_precision(_items([hit, miss], gts), 0.5) == 1.0
        assert average_precision(_items([miss, hit], gts), 0.5) == 0.5

    def test_invariant_to_monotone_score_rescaling(self):
        gts = [("v", (0.0, 10.0)), ("v", (15.0, 25.0))]
        preds = [("v", (0.0, 9.0), 0.8), ("v", (16.0, 25.0), 0.5),
                 ("v", (30.0, 40.0), 0.3)]
        base = average_precision(_items(preds, gts), 0.5)
        rescaled = [(v, s, 0.1 + 0.5 * score) for v, s, score in preds]
        assert average_precision(_items(rescaled, gts), 0.5) == pytest.approx(base)

    def test_trailing_false_positive_never_raises_ap(self):
        gts = [("v", (0.0, 10.0))]
        preds = [("v", (0.0, 10.0), 0.9), ("v", (14.0, 18.0), 0.8)]
        base = average_precision(_items(preds, gts), 0.5)
        extended = preds + [("v", (100.0, 110.0), 0.01)]
        assert average_precision(_items(extended, gts), 0.5) <= base + 1e-12

    def test_matches_brute_force_on_random_small_fixtures(self):
        rng = np.random.default_rng(2)
        for trial in range(200):
            n_pred = int(rng.integers(0, 6))
            n_gt = int(rng.integers(0, 4))
            videos = ["a", "b"]
            gts = [(videos[rng.integers(0, 2)],
                    (s := rng.uniform(0, 30), s + rng.uniform(1, 10)))
                   for _ in range(n_gt)]
            preds = [(videos[rng.integers(0, 2)],
                      (s := rng.uniform(0, 30), s + rng.uniform(1, 10)),
                      float(rng.uniform(0.01, 1)))
                     for _ in range(n_pred)]
            items = _items(preds, gts)
            for threshold in (0.3, 0.5, 0.75):
                fast = average_precision(items, threshold)
                slow = _ap_brute_force(items, threshold)
                assert fast == pytest.approx(slow, abs=1e-12)
                # greedy matching can never beat the best possible assignment
                assert fast <= _ap_best_assignment(items, threshold) + 1e-12


class TestMapSuite:
    def _detections(self, mapping):
        return {video: [Detection(s, e, label, score) for s, e, label, score in dets]
                for video, dets in mapping.items()}

    def test_single_class_perfect(self):
        gts = {"v": [(0.0, 10.0, "jump")], "w": [(5.0, 8.0, "jump")]}
        dets = self._detections({"v": [(0.0, 10.0, "jump", 0.9)],
                                 "w": [(5.0, 8.0, "jump", 0.8)]})
        report = map_suite(dets, gts)
        assert report.average_map == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in report.map_per_threshold.values())

    def test_unpredicted_class_contributes_zero(self):
        gts = {"v": [(0.0, 10.0, "jump"), (20.0, 30.0, "swim")]}
        dets = self._detections({"v": [(0.0, 10.0, "jump", 0.9)]})
        report = map_suite(dets, gts, thresholds=[0.5])
        assert report.map_per_threshold[0.5] == pytest.approx(0.5)

    def test_empty_ground_truth_flags_warning(self):
        report = map_suite(self._detections({"v": [(0.0, 1.0, "jump", 0.5)]}), {})
        assert report.empty_ground_truth
        assert report.average_map == 0.0

    def test_class_agnostic_collapses_labels(self):
        gts = {"v": [(0.0, 10.0, "jump")]}
        dets = self._detections({"v": [(0.0, 10.0, "action", 0.9)]})
        strict = map_suite(dets, gts, thresholds=[0.5])
        agnostic = map_suite(dets, gts, thresholds=[0.5], class_agnostic=True)
        assert strict.map_per_threshold[0.5] == 0.0
        assert agnostic.map_per_threshold[0.5] == pytest.approx(1.0)

    def test_matches_exhaustive_matching_on_multiclass_fixture(self):
        gts = {"v": [(0.0, 10.0, "a"), (12.0, 20.0, "a"), (30.0, 45.0, "b")],
               "w": [(2.0, 9.0, "b")]}
        dets = self._detections({
            "v": [(0.5, 10.0, "a", 0.9), (11.0, 19.0, "a", 0.6), (31.0, 44.0, "b", 0.7)],
            "w": [(2.0, 8.5, "b", 0.8), (20.0, 28.0, "b", 0.2)],
        })
        report = map_suite(dets, gts, thresholds=[0.5, 0.75])
        for threshold in (0.5, 0.75):
            expected = []
            for label in ("a", "b"):
                items = _items(
                    [(v, (d.start, d.end), d.score) for v, ds in dets.items()
                     for d in ds if d.label == label],
                    [(v, (s, e)) for v, segs in gts.items()
                     for s, e, lab in segs if lab == label])
                expected.append(_ap_brute_force(items, threshold))
            assert report.map_per_threshold[threshold] == pytest.approx(
                float(np.mean(expected)), abs=1e-12)

    def test_report_table_renders(self):
        gts = {"v": [(0.0, 10.0, "jump")]}
        dets = self._detections({"v": [(0.0, 10.0, "jump", 0.9)]})
        table = map_suite(dets, gts).to_table()
        assert "average" in table and "tIoU" in table
