"""Outside-in tracing of the tadgraph modules for the benchmark.

The tracer replaces public functions at the names their callers look up
(``tadgraph.backbone.gcnext_forward`` is looked up by ``backbone_forward``,
``tadgraph.model.backbone_forward`` by ``Detector.forward_features``, and so
on) with wrappers that record a span around the original call. No package
code changes: uninstalling the tracer puts the originals back.

A span is kept in memory as ``[name, start, end, parent, tag, phase,
fields]``: ``parent`` is the index of the enclosing span (-1 at the root),
``tag`` names the window or video the work belongs to, ``phase`` is
``setup`` or ``timed`` and ``fields`` holds counts taken from the call's
arguments and result after the span has closed, so counting is not charged
to the layer.
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, TAG, PHASE, FIELDS = range(7)

# Modules whose self time is reported per timed item.
TIMED_MODULES = ("align", "video_graph", "backbone", "heads", "autodiff", "training",
                 "inference", "postprocess", "evaluation", "bench")


def _pad_anchors(anchors: np.ndarray, valid_length: int) -> int:
    """Anchors ``finalize_detections`` drops: start at or past the last valid snippet."""
    return int(np.count_nonzero(anchors[:, 0] >= valid_length - 1))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.window = None          # the Window whose model pass is running
        self.origin = perf_counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str, tag=None) -> list:
        parent = self.stack[-1] if self.stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][TAG]
        record = [name, 0.0, 0.0, parent, tag, self.phase, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def close(self, record: list) -> None:
        record[END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        record = self.open(name, tag)
        try:
            yield record
        finally:
            self.close(record)

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, name: str | None, note=None, window=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original
        tracer = self

        if name is None:            # count only, into the enclosing span
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][FIELDS] = note(args, result)
                return result
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                win = window(args) if window is not None else None
                if win is not None:
                    outer, tracer.window = tracer.window, win
                record = tracer.open(name, None if win is None else f"{win.video_id}@{win.offset}")
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(record)
                    if win is not None:
                        tracer.window = outer
                if note is not None:
                    record[FIELDS] = note(args, result)
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        """Wrap every traced function; a no-op when already installed."""
        if self._saved:
            return
        from tadgraph import (align, autodiff, backbone, data, evaluation, inference, model,
                              postprocess, training, video_graph)

        def valid_length():
            return None if self.window is None else self.window.valid_length

        def knn_note(args, edges):
            valid = valid_length()
            pad = 0 if valid is None else int(np.count_nonzero((edges >= valid).any(axis=1)))
            return {"edges": len(edges), "pad_edges": pad}

        def subset_note(args, subset):
            labels = args[0]
            picked = labels if subset is None else labels[subset]
            return {"sampled": len(picked), "positive": int(np.count_nonzero(picked > 0.5))}

        def window_loss_note(args, result):
            detector, example, subset = args[0], args[1], args[3]
            anchors = detector.anchors if subset is None else detector.anchors[subset]
            return {"pad_anchors": _pad_anchors(anchors, example.window.valid_length)}

        def score_note(args, result):
            return {"pad_anchors": sum(_pad_anchors(ws.anchors, ws.valid_length) for ws in result)}

        def windows_note(args, windows):
            cols = sum(w.features.shape[1] for w in windows)
            return {"windows": len(windows), "cols": cols,
                    "pad_cols": cols - sum(w.valid_length for w in windows)}

        def single_window(args):
            windows = args[1]
            return windows[0] if len(windows) == 1 else None

        patch = self._patch
        patch(model.Detector, "__init__", "model.build")
        patch(align, "build_alignment", "align.build", lambda a, r: {"nnz": int(r.nnz)})
        patch(align.SubgraphAligner, "__call__", "align.fwd")
        patch(align, "semantic_smooth", "align.smooth")
        patch(video_graph, "knn_semantic_edges", "video_graph.knn", knn_note)
        patch(video_graph.VideoGraph, "build", "video_graph.build")
        patch(model, "backbone_forward", "backbone.fwd")
        patch(backbone, "gcnext_forward", "backbone.block_fwd")
        patch(backbone, "semantic_adjacency", "backbone.sem_adj")
        patch(model, "localization_forward", "heads.loc_fwd",
              lambda a, r: {"rows": int(a[0].shape[0])})
        for loss in ("subgraph_loss", "node_loss", "total_loss"):
            patch(training, loss, "heads.loss")
        patch(training, "assign_anchor_labels", "heads.labels")
        patch(autodiff.Tensor, "backward", "autodiff.backward")
        patch(autodiff, "graph_nodes", None, lambda a, r: {"nodes": len(r)})
        patch(training, "train_epoch", "training.epoch")
        patch(training, "window_loss", "training.window_loss", window_loss_note,
              window=lambda a: a[1].window)
        patch(training, "sample_anchor_subset", "training.subset", subset_note)
        patch(training.Adam, "step", "training.adam_step")
        patch(inference, "score_windows", "inference.score", score_note, window=single_window)
        patch(postprocess, "finalize_detections", "postprocess.finalize")
        patch(postprocess, "soft_nms", "postprocess.soft_nms",
              lambda a, r: {"candidates": len(a[1]), "kept": len(r[0])})
        patch(evaluation, "map_suite", "evaluation.map")
        patch(evaluation, "average_precision", "evaluation.ap")
        patch(data, "load_dataset", "data.load")
        patch(data, "prepare_windows", "data.windows", windows_note)
        patch(model, "load_checkpoint", "checkpoint.load",
              lambda a, r: {"bytes": os.path.getsize(a[0])})

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON object per span; times in seconds since the tracer started."""
        with open(path, "w") as fh:
            for name, start, end, parent, tag, phase, fields in self.spans:
                row = {"name": name, "start": start - self.origin, "end": end - self.origin,
                       "parent": parent, "tag": tag, "phase": phase}
                row.update(fields or {})
                fh.write(json.dumps(row) + "\n")

    def calls(self, phase: str | None = None) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            if phase is None or s[PHASE] == phase:
                out[s[NAME]] = out.get(s[NAME], 0) + 1
        return out

    def layer_metrics(self, items: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``{name: (value, unit)}``.

        ``_ms`` metrics are the median time per call over every traced call
        (set-up calls included); counts and shares come from the timed
        phase unless the layer only runs during set-up. A layer the workload
        never calls reads 0.
        """
        spans = self.spans
        timed = [s for s in spans if s[PHASE] == "timed"]
        items = max(items, 1)

        def median_ms(name):
            values = [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == name]
            return float(np.median(values)) if values else 0.0

        def field_sum(name, key, pool=timed):
            return sum((s[FIELDS] or {}).get(key, 0) for s in pool if s[NAME] == name)

        def count(name, pool=timed):
            return sum(1 for s in pool if s[NAME] == name)

        def ratio(num, den):
            return num / den if den else 0.0

        # heads.loss: the three loss functions of one window, summed per window
        per_window: dict[int, float] = {}
        for s in spans:
            if s[NAME] == "heads.loss":
                per_window[s[PARENT]] = per_window.get(s[PARENT], 0.0) + (s[END] - s[START]) * 1e3

        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        self_ms = {module: 0.0 for module in TIMED_MODULES}
        for i, s in enumerate(spans):
            module = s[NAME].split(".")[0]
            if s[PHASE] == "timed" and module in self_ms:
                self_ms[module] += (s[END] - s[START] - child_time[i]) * 1e3

        m = {
            "model.build_ms": (median_ms("model.build"), "ms"),
            "align.build_ms": (median_ms("align.build"), "ms"),
            "align.plan_nnz": (ratio(field_sum("align.build", "nnz", spans),
                                     count("model.build", spans)), "count"),
            "align.fwd_ms": (median_ms("align.fwd"), "ms"),
            "align.smooth_ms": (median_ms("align.smooth"), "ms"),
            "video_graph.knn_ms": (median_ms("video_graph.knn"), "ms"),
            "video_graph.knn_calls": (count("video_graph.knn") / items, "count"),
            "video_graph.build_ms": (median_ms("video_graph.build"), "ms"),
            "video_graph.pad_edge_fraction": (ratio(field_sum("video_graph.knn", "pad_edges"),
                                                    field_sum("video_graph.knn", "edges")),
                                              "share"),
            "backbone.fwd_ms": (median_ms("backbone.fwd"), "ms"),
            "backbone.block_fwd_ms": (median_ms("backbone.block_fwd"), "ms"),
            "backbone.sem_adj_ms": (median_ms("backbone.sem_adj"), "ms"),
            "heads.loc_fwd_ms": (median_ms("heads.loc_fwd"), "ms"),
            "heads.anchors_scored": (ratio(field_sum("heads.loc_fwd", "rows"),
                                           count("heads.loc_fwd")), "count"),
            "heads.anchors_padding": ((field_sum("inference.score", "pad_anchors")
                                       + field_sum("training.window_loss", "pad_anchors"))
                                      / items, "count"),
            "heads.loss_ms": (float(np.median(list(per_window.values()))) if per_window else 0.0,
                              "ms"),
            "heads.labels_ms": (median_ms("heads.labels"), "ms"),
            "autodiff.backward_ms": (median_ms("autodiff.backward"), "ms"),
            "autodiff.graph_nodes": (ratio(field_sum("autodiff.backward", "nodes"),
                                           count("autodiff.backward")), "count"),
            "training.window_loss_ms": (median_ms("training.window_loss"), "ms"),
            "training.adam_step_ms": (median_ms("training.adam_step"), "ms"),
            "training.subset_ms": (median_ms("training.subset"), "ms"),
            "training.pos_fraction": (ratio(field_sum("training.subset", "positive"),
                                            field_sum("training.subset", "sampled")), "share"),
            "inference.score_ms": (median_ms("inference.score"), "ms"),
            "postprocess.finalize_ms": (median_ms("postprocess.finalize"), "ms"),
            "postprocess.soft_nms_ms": (median_ms("postprocess.soft_nms"), "ms"),
            "postprocess.candidates": (ratio(field_sum("postprocess.soft_nms", "candidates"),
                                             count("postprocess.soft_nms")), "count"),
            "postprocess.kept": (ratio(field_sum("postprocess.soft_nms", "kept"),
                                       count("postprocess.soft_nms")), "count"),
            "evaluation.map_ms": (median_ms("evaluation.map"), "ms"),
            "evaluation.ap_ms": (median_ms("evaluation.ap"), "ms"),
            "evaluation.ap_calls": (ratio(count("evaluation.ap"), count("evaluation.map")),
                                    "count"),
            "data.load_ms": (median_ms("data.load"), "ms"),
            "data.windows_ms": (median_ms("data.windows"), "ms"),
            "data.windows": (ratio(field_sum("data.windows", "windows", spans),
                                   count("data.windows", spans)), "count"),
            "data.pad_fraction": (ratio(field_sum("data.windows", "pad_cols", spans),
                                        field_sum("data.windows", "cols", spans)), "share"),
            "checkpoint.load_ms": (median_ms("checkpoint.load"), "ms"),
            "checkpoint.bytes": (ratio(field_sum("checkpoint.load", "bytes", spans),
                                       count("checkpoint.load", spans)), "B"),
        }
        for module, total in self_ms.items():
            m[f"{module}.self_ms"] = (total / items, "ms")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return m

