"""Detection metrics: segment IoU, interpolated average precision, mAP.

Average precision follows the ActivityNet evaluator's convention: within a
class, predictions across all videos are ranked by score; each prediction
greedily matches the highest-IoU unmatched ground truth of the same video
at or above the tIoU threshold; the precision envelope is integrated
exactly over recall.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError
from .postprocess import Detection

DEFAULT_THRESHOLDS = tuple(np.round(np.arange(0.5, 1.0, 0.05), 2))
AGNOSTIC_LABEL = "__any__"


def segment_iou(a, b) -> float:
    """Intersection over union of two (start, end) intervals."""
    if a[0] >= a[1] or b[0] >= b[1]:
        raise ContractError(f"segment_iou: degenerate segment in {tuple(a)} vs {tuple(b)}")
    inter = min(a[1], b[1]) - max(a[0], b[0])
    if inter <= 0:
        return 0.0
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union


@dataclass
class ClassItems:
    """Predictions and ground truths of one class, tagged by video."""

    pred_video: list[str] = field(default_factory=list)
    pred_segment: list[tuple[float, float]] = field(default_factory=list)
    pred_score: list[float] = field(default_factory=list)
    gt_video: list[str] = field(default_factory=list)
    gt_segment: list[tuple[float, float]] = field(default_factory=list)


def average_precision(items: ClassItems, threshold: float) -> float:
    """AP of one class at one tIoU threshold (0 when no ground truth)."""
    num_gt = len(items.gt_segment)
    if num_gt == 0 or not items.pred_score:
        return 0.0
    order = np.argsort(-np.asarray(items.pred_score), kind="stable")
    gt_by_video: dict[str, list[int]] = {}
    for gi, video in enumerate(items.gt_video):
        gt_by_video.setdefault(video, []).append(gi)
    matched = [False] * num_gt

    tp = np.zeros(len(order))
    for rank, pi in enumerate(order):
        best_iou, best_gi = 0.0, -1
        for gi in gt_by_video.get(items.pred_video[pi], []):
            if matched[gi]:
                continue
            iou = segment_iou(items.pred_segment[pi], items.gt_segment[gi])
            if iou >= threshold and iou > best_iou:
                best_iou, best_gi = iou, gi
        if best_gi >= 0:
            matched[best_gi] = True
            tp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(order)) + 1.0)
    recall = cum_tp / num_gt
    # monotone envelope, exact area under the PR curve
    mprec = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    mrec = np.concatenate([[0.0], recall, [1.0]])
    steps = np.where(mrec[1:] != mrec[:-1])[0] + 1
    return float(np.sum((mrec[steps] - mrec[steps - 1]) * mprec[steps]))


@dataclass
class EvalReport:
    thresholds: list[float]
    map_per_threshold: dict[float, float]
    average_map: float
    per_class: dict[str, dict[float, float]]
    num_predictions: int
    num_ground_truths: int
    empty_ground_truth: bool = False

    def to_json_dict(self) -> dict:
        return {
            "thresholds": self.thresholds,
            "mAP": {f"{t:g}": v for t, v in self.map_per_threshold.items()},
            "average_mAP": self.average_map,
            "per_class_AP": {c: {f"{t:g}": v for t, v in row.items()}
                             for c, row in self.per_class.items()},
            "num_predictions": self.num_predictions,
            "num_ground_truths": self.num_ground_truths,
            "empty_ground_truth": self.empty_ground_truth,
        }

    def to_table(self) -> str:
        lines = ["tIoU     mAP", "-" * 20]
        for t in self.thresholds:
            lines.append(f"{t:<8g} {self.map_per_threshold[t]:.4f}")
        lines.append("-" * 20)
        lines.append(f"average  {self.average_map:.4f}")
        return "\n".join(lines)


def collect_class_items(detections: dict[str, list[Detection]],
                        ground_truths: dict[str, list[tuple[float, float, str]]],
                        class_agnostic: bool = False) -> dict[str, ClassItems]:
    """Group predictions and ground truths by class label."""
    items: dict[str, ClassItems] = {}

    def bucket(label: str) -> ClassItems:
        key = AGNOSTIC_LABEL if class_agnostic else label
        return items.setdefault(key, ClassItems())

    for video_id, segs in ground_truths.items():
        for start, end, label in segs:
            b = bucket(label)
            b.gt_video.append(video_id)
            b.gt_segment.append((start, end))
    for video_id, dets in detections.items():
        for det in dets:
            b = bucket(det.label)
            b.pred_video.append(video_id)
            b.pred_segment.append((det.start, det.end))
            b.pred_score.append(det.score)
    return items


def map_suite(detections: dict[str, list[Detection]],
              ground_truths: dict[str, list[tuple[float, float, str]]],
              thresholds=DEFAULT_THRESHOLDS, class_agnostic: bool = False) -> EvalReport:
    """mAP at each threshold (mean over classes) plus the average mAP."""
    thresholds = [float(t) for t in thresholds]
    items = collect_class_items(detections, ground_truths, class_agnostic)
    classes = sorted(c for c, it in items.items() if it.gt_segment)
    num_preds = sum(len(it.pred_score) for it in items.values())
    num_gts = sum(len(it.gt_segment) for it in items.values())

    per_class: dict[str, dict[float, float]] = {}
    map_per_threshold: dict[float, float] = {}
    if not classes:
        per_threshold = {t: 0.0 for t in thresholds}
        return EvalReport(thresholds, per_threshold, 0.0, {}, num_preds, num_gts,
                          empty_ground_truth=True)
    for t in thresholds:
        aps = []
        for c in classes:
            ap = average_precision(items[c], t)
            per_class.setdefault(c, {})[t] = ap
            aps.append(ap)
        map_per_threshold[t] = float(np.mean(aps))
    average = float(np.mean([map_per_threshold[t] for t in thresholds]))
    return EvalReport(thresholds, map_per_threshold, average, per_class,
                      num_preds, num_gts)


def write_report(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_json_dict(), indent=1))
