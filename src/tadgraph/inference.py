"""Checkpoint-driven scoring of datasets (no gradient recording)."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Window
from .errors import FormatError, exact_cast, exact_name
from .model import Detector
from .postprocess import WindowScores


def score_windows(model: Detector, windows: list[Window]) -> list[WindowScores]:
    """Score every anchor of every window; node branch is not evaluated. A
    non-finite score raises ``NumericError`` naming the window and the head layer
    (``Detector.forward_scores``)."""
    out = []
    with ad.no_grad():
        for window in windows:
            _, final, graph = model.forward_features(window.features)
            scores = model.forward_scores(final, graph.semantic_layers[-1], window=window)
            out.append(WindowScores(
                video_id=window.video_id,
                anchors=model.anchors,
                p_cls=scores.data[:, 0].copy(),
                p_reg=scores.data[:, 1].copy(),
                offset=window.offset,
                scale=window.scale,
                valid_length=window.valid_length,
            ))
    return out


RAW_VERSION = "tadgraph-raw-scores-1"


def write_raw_scores(path, window_scores: list[WindowScores]) -> None:
    """Per-anchor scores before fusion/suppression, for score-fusion sweeps."""
    payload = {
        "version": RAW_VERSION,
        "windows": [{
            "video_id": ws.video_id,
            "offset": ws.offset,
            "scale": ws.scale,
            "valid_length": ws.valid_length,
            "anchors": ws.anchors.tolist(),
            "p_cls": np.round(ws.p_cls, 6).tolist(),
            "p_reg": np.round(ws.p_reg, 6).tolist(),
        } for ws in window_scores],
    }
    Path(path).write_text(json.dumps(payload))


def read_raw_scores(path) -> list[WindowScores]:
    """The windows of a ``write_raw_scores`` file. A malformed file raises
    ``FormatError``, and so does a window, named in the message, with a video id
    that is not a string or a number, an offset, valid length or anchor time that
    is not an integer (a bool, or a real with a fraction), a scale or score that is
    a bool, a negative offset, a valid length below 1, an anchor other than
    0 <= t_s < t_e, a scale that is not finite and above 0 or a score outside
    [0, 1]. The message names the field."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        if payload.get("version") != RAW_VERSION:
            raise KeyError("version")
        named = [(f"{path}: window of '{w['video_id']}' at offset {w['offset']}", w)
                 for w in payload["windows"]]
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a raw score file: {exc!r}") from exc
    return [_read_window(where, w) for where, w in named]


def _read_window(where: str, w: dict) -> WindowScores:
    """One window of a raw score file, checked; ``where`` names it in an error."""
    try:
        times = np.asarray(w["anchors"], dtype=object)
        if set(map(type, times.flat)) != {int}:     # cast each, naming a bool or a fraction
            times.flat = [exact_cast(t, int, "anchors") for t in times.flat]
        ws = WindowScores(
            video_id=exact_name(w["video_id"], "video_id"),
            anchors=times.astype(np.int64),
            p_cls=_scores(w, "p_cls"),
            p_reg=_scores(w, "p_reg"),
            offset=exact_cast(w["offset"], int, "offset"),
            scale=exact_cast(w["scale"], float, "scale"),
            valid_length=exact_cast(w["valid_length"], int, "valid_length"),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{where} is malformed: {exc!r}") from exc
    rows = ws.anchors.shape[:1]
    if ws.anchors.shape != rows + (2,) or ws.p_cls.shape != rows or ws.p_reg.shape != rows:
        raise FormatError(f"{where} needs (J, 2) anchors and J values in each of "
                          "p_cls and p_reg")
    if ws.offset < 0 or ws.valid_length < 1:
        raise FormatError(f"{where} needs offset >= 0 and valid_length >= 1, "
                          f"got valid_length {ws.valid_length}")
    if not ((ws.anchors[:, 0] >= 0) & (ws.anchors[:, 1] > ws.anchors[:, 0])).all():
        raise FormatError(f"{where} has an anchor other than 0 <= t_s < t_e")
    if not 0.0 < ws.scale < np.inf:
        raise FormatError(f"{where} needs a finite scale above 0, got {ws.scale}")
    # sigmoid outputs; fusion raises each to a fractional power, which is NaN
    # for a negative score
    for name, scores in (("p_cls", ws.p_cls), ("p_reg", ws.p_reg)):
        if not ((scores >= 0) & (scores <= 1)).all():
            raise FormatError(f"{where} has a {name} score that is not in [0, 1]")
    return ws


def _scores(w: dict, key: str) -> np.ndarray:
    """The scores ``w[key]`` as float64; a boolean among them raises ``ValueError``."""
    if bool in map(type, w[key]):
        raise ValueError(f"{key}: a boolean is not a score")
    return np.asarray(w[key], dtype=np.float64)
