"""From per-anchor scores to final detections.

Scores are fused geometrically, anchor coordinates are mapped into video
seconds, overlapping detections are suppressed by score decay (Soft-NMS)
per video across all of its windows, and the top-M survivors are kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, DataError, FormatError, exact_cast, exact_name
from .heads import interval_iou

OUTPUT_VERSION = "tadgraph-detections-1"


@dataclass
class Detection:
    start: float
    end: float
    label: str
    score: float


def fuse_scores(p_cls: np.ndarray, p_reg: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Geometric interpolation ``p_cls**alpha * p_reg**(1 - alpha)``."""
    p_cls = np.asarray(p_cls, dtype=np.float64)
    p_reg = np.asarray(p_reg, dtype=np.float64)
    return p_cls ** alpha * p_reg ** (1.0 - alpha)


def soft_nms(segments: np.ndarray, scores: np.ndarray, method: str = "linear",
             threshold: float = 0.84, sigma: float = 0.4,
             top_m: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Score-decay suppression; returns (kept indices, decayed scores).

    Linear decay multiplies by ``1 - IoU`` when IoU with the already
    selected detection exceeds ``threshold``; Gaussian decay multiplies by
    ``exp(-IoU^2 / sigma)``. Because each selection takes the current
    maximum (the earlier start on ties, then the lower index) and
    nonnegative scores only ever shrink, the first ``top_m`` selections are
    exactly the top-M detections by final decayed score, so the loop stops
    there. Scores must be finite. Output is ordered by decayed score, ties
    by earlier start.

    The loop first runs on the K highest initial scores, K = 4 * top_m
    doubling up to all of them. Every decay factor lies in [0, 1], so a
    score left out never rises above max(its initial value, 0); once every
    selected score is strictly above that bound for all left-out scores, no
    left-out candidate could have been selected, and the result is the full
    run's, bit for bit.
    """
    if method not in ("linear", "gaussian"):
        raise ContractError(f"soft_nms: unknown method '{method}'")
    if method == "gaussian" and not sigma > 0:
        # a decay factor above 1 would void the early exit below
        raise ContractError(f"soft_nms: Gaussian sigma must be above 0, got {sigma}")
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 2)
    # in start order, argmax's first maximum is the earliest start
    by_start = np.argsort(segments[:, 0], kind="stable")
    segments = segments[by_start]
    scores = np.asarray(scores, dtype=np.float64)[by_start]
    k = 4 * top_m
    while 0 < k < len(scores):
        left_out, top = np.split(np.argpartition(scores, len(scores) - k), [len(scores) - k])
        top = np.sort(top)          # back in start order
        kept, decayed = _soft_nms_select(segments[top], scores[top], method, threshold,
                                         sigma, top_m)
        if decayed.min() > max(scores[left_out].max(), 0.0):
            return by_start[top[kept]], decayed
        k *= 2
    kept, decayed = _soft_nms_select(segments, scores, method, threshold, sigma, top_m)
    return by_start[kept], decayed


def _soft_nms_select(segments: np.ndarray, scores: np.ndarray, method: str, threshold: float,
                     sigma: float, top_m: int) -> tuple[np.ndarray, np.ndarray]:
    """The masked loop of ``soft_nms`` over candidates in start order."""
    alive = np.ones(len(scores), dtype=bool)
    keep: list[int] = []
    for _ in range(min(top_m, len(scores))):
        best = int(np.argmax(np.where(alive, scores, -np.inf)))
        keep.append(best)
        alive[best] = False
        ious = interval_iou(segments, segments[best])
        if method == "linear":
            decay = np.where(ious > threshold, 1.0 - ious, 1.0)
        else:
            decay = np.exp(-(ious ** 2) / sigma)
        scores = np.where(alive, scores * decay, scores)
    keep = np.asarray(keep, dtype=np.int64)
    keep = keep[np.lexsort((segments[keep, 0], -scores[keep]))]
    return keep, scores[keep]


@dataclass
class WindowScores:
    """Inference output of one window, still in snippet coordinates."""

    video_id: str
    anchors: np.ndarray          # (J, 2) int snippet pairs
    p_cls: np.ndarray
    p_reg: np.ndarray
    offset: int
    scale: float                 # seconds per index unit
    valid_length: int


def finalize_detections(window_scores: list[WindowScores], alpha: float = 0.5,
                        **nms) -> dict[str, list[Detection]]:
    """Map anchors to seconds, merge windows per video, suppress, keep top-M.

    ``nms`` holds ``soft_nms`` keywords. Each end is clipped to the last real snippet,
    and an anchor must still end after its start, so one that starts at or past that
    snippet is dropped. Every detection is labelled "action" (classification happens
    outside this model).
    """
    per_video: dict[str, list[np.ndarray]] = {}
    for ws in window_scores:
        if ws.scale <= 0:
            raise DataError(f"window of '{ws.video_id}' has non-positive scale")
        starts = (ws.anchors[:, 0] + ws.offset) * ws.scale
        ends = (np.minimum(ws.anchors[:, 1], ws.valid_length - 1) + ws.offset) * ws.scale
        fused = fuse_scores(ws.p_cls, ws.p_reg, alpha)
        rows = np.column_stack([starts, ends, fused])
        per_video.setdefault(ws.video_id, []).append(rows[rows[:, 1] > rows[:, 0]])

    results: dict[str, list[Detection]] = {}
    for video_id in sorted(per_video):
        rows = np.concatenate(per_video[video_id], axis=0)
        kept, decayed = soft_nms(rows[:, :2], rows[:, 2], **nms)
        results[video_id] = [
            Detection(start=float(rows[i, 0]), end=float(rows[i, 1]),
                      label="action", score=float(s))
            for i, s in zip(kept, decayed)]
    return results


def write_detections(path, detections: dict[str, list[Detection]]) -> None:
    payload = {
        "version": OUTPUT_VERSION,
        "results": {
            video_id: [{"segment": [d.start, d.end], "score": d.score, "label": d.label}
                       for d in dets]
            for video_id, dets in detections.items()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=1))


def read_detections(path) -> dict[str, list[Detection]]:
    path = Path(path)
    try:
        results = json.loads(path.read_text())["results"]
        detections = {video_id: [_read_detection(item) for item in items]
                      for video_id, items in results.items()}
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a detection file: {exc!r}") from exc
    for video_id, items in detections.items():
        for d in items:
            if not (np.isfinite([d.start, d.end, d.score]).all() and d.start < d.end):
                raise FormatError(f"{path}: detection {d} of '{video_id}' needs finite "
                                  "numbers and start < end")
    return detections


def _read_detection(item: dict) -> Detection:
    """One detection of a detection file; a value of the wrong JSON kind raises
    ``ValueError`` naming its field."""
    segment = item["segment"]
    return Detection(start=exact_cast(segment[0], float, "segment"),
                     end=exact_cast(segment[1], float, "segment"),
                     label=exact_name(item.get("label", "action"), "label"),
                     score=exact_cast(item["score"], float, "score"))
