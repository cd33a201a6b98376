"""Fuzzed load boundaries: malformed files raise FormatError/DataError, never
another exception.

Each loader gets raw bytes plus JSON or binary shaped like its format with
arbitrary values. The explicit examples are inputs that once escaped as
``struct.error``, ``UnicodeDecodeError``, ``KeyError``, ``AttributeError``,
``OverflowError`` or ``IsADirectoryError``, or that were once accepted
although later stages cannot use them: a detection ending before it starts,
a NaN score, a raw-score window with fewer scores than anchors, a NaN or
zero scale, or a video whose sampling rate or duration is zero or NaN.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from tadgraph.checkpoint import MAGIC, VERSION, load_checkpoint
from tadgraph.data import (FEATURE_MAGIC, FEATURE_VERSION, load_annotations, load_dataset,
                           read_feature_file, write_feature_file)
from tadgraph.errors import DataError
from tadgraph.inference import RAW_VERSION, read_raw_scores
from tadgraph.postprocess import read_detections

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _record(fields: dict):
    """A JSON object whose keys are drawn from ``fields``, each value either
    the field's own strategy or any JSON value."""
    return st.fixed_dictionaries({}, optional={key: strategy | json_values
                                               for key, strategy in fields.items()})


def _as_bytes(strategy):
    return strategy.map(lambda value: json.dumps(value).encode())


def _files(structured):
    """Raw bytes, or a JSON payload shaped like the format."""
    return st.binary(max_size=48) | _as_bytes(structured)


def _accepts_or_rejects(loader, path, payload: bytes):
    """What ``loader`` read from ``payload``, or None when it rejected it."""
    path.write_bytes(payload)
    try:
        return loader(path)
    except DataError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A manifest directory with a good and a bad feature file and a subdirectory."""
    root = tmp_path_factory.mktemp("fuzz")
    write_feature_file(root / "ok.fseq", np.zeros((4, 2), dtype=np.float32))
    (root / "bad.fseq").write_bytes(FEATURE_MAGIC + b"\x01")
    (root / "sub").mkdir()
    return root


_header = st.tuples(st.sampled_from([FEATURE_VERSION, 7]), st.integers(0, 3), st.integers(0, 3))


@given(st.binary(max_size=48)
       | st.binary(max_size=48).map(lambda b: FEATURE_MAGIC + b)
       | st.tuples(_header, st.binary(max_size=48)).map(
           lambda hb: FEATURE_MAGIC + struct.pack("<III", *hb[0]) + hb[1]))
@example(FEATURE_MAGIC + b"\x01\x00")
def test_read_feature_file(workdir, payload):
    _accepts_or_rejects(read_feature_file, workdir / "fuzz.fseq", payload)


_entry = st.tuples(st.binary(max_size=4), st.integers(0, 3), st.binary(max_size=40)).map(
    lambda e: struct.pack("<H", len(e[0])) + e[0] + struct.pack("<B", e[1]) + e[2])


@given(st.binary(max_size=48)
       | st.binary(max_size=48).map(lambda b: MAGIC + b)
       | st.tuples(st.sampled_from([VERSION, 9]), st.integers(0, 3), st.lists(_entry, max_size=3))
       .map(lambda c: MAGIC + struct.pack("<II", c[0], c[1]) + b"".join(c[2])))
@example(MAGIC + b"\x01\x00")
@example(MAGIC + struct.pack("<IIH", VERSION, 1, 1) + b"\xff" + struct.pack("<Bd", 0, 1.0))
@example(MAGIC + struct.pack("<IIH", VERSION, 1, 1) + b"w" + struct.pack("<B4I", 4, *[65536] * 4))
def test_load_checkpoint(workdir, payload):
    _accepts_or_rejects(load_checkpoint, workdir / "fuzz.tgck", payload)


_manifest_entry = _record({
    "feature_file": st.sampled_from(["ok.fseq", "bad.fseq", "", "sub", "missing.fseq", "ok.fseq/.."])
    | st.text(alphabet="ab./\x00", max_size=4),
    "video_id": st.text(max_size=4),
    "duration_seconds": st.floats(),
    "sampling_rate": st.floats(),
})


@given(_files(st.lists(_manifest_entry, max_size=3) | json_values))
@example(b"\xff\xfe[]")
@example(json.dumps([{"video_id": "v", "feature_file": "", "duration_seconds": 4.0,
                      "sampling_rate": 1.0}]).encode())
@example(json.dumps([{"video_id": "v", "feature_file": "ok.fseq",
                      "duration_seconds": 10 ** 400, "sampling_rate": 1.0}]).encode())
@example(json.dumps([{"video_id": "v", "feature_file": "ok.fseq",
                      "duration_seconds": 4.0, "sampling_rate": 0.0}]).encode())
@example(json.dumps([{"video_id": "v", "feature_file": "ok.fseq",
                      "duration_seconds": float("nan"), "sampling_rate": 1.0}]).encode())
def test_load_dataset(workdir, payload):
    loaded = _accepts_or_rejects(load_dataset, workdir / "manifest.json", payload)
    for seq in loaded[0] if loaded else []:
        assert 0 < seq.duration_seconds < np.inf and 0 < seq.sampling_rate < np.inf


_segment = _record({"segment": st.lists(st.floats(), max_size=3), "label": st.text(max_size=3)})
_video = _record({"duration": st.floats(), "annotations": st.lists(_segment, max_size=3)})


@given(_files(st.fixed_dictionaries({"database": st.dictionaries(st.text(max_size=3), _video,
                                                                  max_size=3)})
              | json_values))
@example(b"\xff\xfe{}")
@example(json.dumps({"database": {"v": {"duration": 10 ** 400}}}).encode())
def test_load_annotations(workdir, payload):
    _accepts_or_rejects(load_annotations, workdir / "annotations.json", payload)


_detection = _record({"segment": st.lists(st.floats(), max_size=3), "score": st.floats(),
                      "label": st.text(max_size=3)})


@given(_files(st.fixed_dictionaries({"results": st.dictionaries(
    st.text(max_size=3), st.lists(_detection, max_size=3), max_size=3) | json_values})
    | json_values))
@example(json.dumps({"results": {"v": [{"score": 0.5}]}}).encode())
@example(json.dumps({"results": []}).encode())
@example(json.dumps({"results": {"v": [{"segment": [3, 2], "score": 0.5}]}}).encode())
@example(json.dumps({"results": {"v": [{"segment": [0, 2], "score": float("nan")}]}}).encode())
def test_read_detections(workdir, payload):
    detections = _accepts_or_rejects(read_detections, workdir / "detections.json", payload)
    for items in (detections or {}).values():
        for d in items:
            assert np.isfinite([d.start, d.end, d.score]).all() and d.start < d.end


_window = _record({
    "video_id": st.text(max_size=3),
    "anchors": st.lists(st.lists(st.integers(-1, 9), min_size=2, max_size=2), max_size=3),
    "p_cls": st.lists(st.floats(-0.5, 1.5), max_size=3),
    "p_reg": st.lists(st.floats(-0.5, 1.5), max_size=3),
    "offset": st.integers(-2, 9),
    "scale": st.floats(),
    "valid_length": st.integers(0, 9),
})


@given(_files(st.fixed_dictionaries({"version": st.just(RAW_VERSION),
                                     "windows": st.lists(_window, max_size=3) | json_values})
              | json_values))
@example(json.dumps({"version": RAW_VERSION, "windows": [
    {"video_id": "v", "p_cls": [0.5], "p_reg": [0.5], "offset": 0, "scale": 1.0,
     "valid_length": 4}]}).encode())
@example(json.dumps({"version": RAW_VERSION, "windows": [
    {"video_id": "v", "anchors": [[0, 2], [1, 3]], "p_cls": [0.5], "p_reg": [0.5, 0.5],
     "offset": 0, "scale": 1.0, "valid_length": 4}]}).encode())
@example(json.dumps({"version": RAW_VERSION, "windows": [
    {"video_id": "v", "anchors": [[0, 2]], "p_cls": [0.5], "p_reg": [0.5],
     "offset": 0, "scale": float("nan"), "valid_length": 4}]}).encode())
@example(json.dumps({"version": RAW_VERSION, "windows": [
    {"video_id": "v", "anchors": [[0, 2]], "p_cls": [0.5], "p_reg": [0.5],
     "offset": 0, "scale": 0.0, "valid_length": 4}]}).encode())
def test_read_raw_scores(workdir, payload):
    for ws in _accepts_or_rejects(read_raw_scores, workdir / "raw.json", payload) or []:
        assert ws.anchors.shape == (len(ws.anchors), 2)
        assert ws.p_cls.shape == ws.p_reg.shape == (len(ws.anchors),)
        for scores in (ws.p_cls, ws.p_reg):
            assert ((scores >= 0) & (scores <= 1)).all()
        assert 0 < ws.scale < np.inf
        assert ws.offset >= 0 and ws.valid_length >= 1
        assert ((ws.anchors[:, 0] >= 0) & (ws.anchors[:, 1] > ws.anchors[:, 0])).all()
