"""The benchmark's workloads: inputs, set-up, timed step, checks, golden outputs.

Every workload follows the same life cycle:

1. ``prepare`` runs in a child process (this file run as a script) and
   writes every input file the program reads (``synth_dataset`` output
   and, for inference, a checkpoint) from the workload seed, plus a fixed
   golden input set from ``GOLDEN_SEED``.
   Keeping it out of the measuring process keeps its memory out of
   ``peak_rss_mb``.
2. ``setup`` is what a user pays before the first timed operation; the
   runner repeats it and reports the median.
3. ``golden`` recomputes the fixed-seed outputs stored in ``golden/``;
   it also warms the code paths up before timing.
4. ``step`` does one unit of timed work and checks its outputs.

The package is always called through module attributes
(``training.train_epoch``, not a bound name) so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tadgraph import data, evaluation, inference, model, postprocess, training
from tadgraph.data import SynthConfig
from tadgraph.errors import NumericError
from tadgraph.model import ModelConfig

GOLDEN_SEED = 1911
WEIGHT_SEED = 0
TOP_M = 100


@dataclass
class Tally:
    """Work done and checked in one timed phase."""

    items: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    item_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, ops: int, what: str) -> None:
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.failures.append(what)


def _synth(root: Path, **kwargs) -> tuple[Path, Path]:
    return data.synth_dataset(SynthConfig(**kwargs), root)


def _load_windows(root: Path, **window_args):
    sequences, annotations = data.load_dataset(root / "manifest.json", root / "annotations.json")
    return annotations, data.prepare_windows(sequences, annotations, **window_args)


def _detections_ok(dets: dict, videos) -> bool:
    if sorted(dets) != sorted(videos):
        return False
    for items in dets.values():
        scores = [d.score for d in items]
        if not (0 < len(items) <= TOP_M and scores == sorted(scores, reverse=True)
                and all(d.end > d.start >= 0 for d in items)):
            return False
    return True


def _map(detections: dict, annotations) -> evaluation.EvalReport:
    # finalize_detections labels everything "action", so only the
    # class-agnostic evaluation is meaningful against class_XX ground truth
    return evaluation.map_suite(detections, annotations.by_video, class_agnostic=True)


# ---------------------------------------------------------------------------
# train_l100
# ---------------------------------------------------------------------------

class TrainL100:
    name = "train_l100"
    INPUTS = {"videos": 16, "video_length": 100, "window_length": 100, "anchors": 4221,
              "anchors_per_window": 256, "batch_size": 16, "golden_videos": 8,
              "golden_epochs": 2}

    def prepare(self, seed: int, root: Path) -> None:
        length = self.INPUTS["video_length"]
        _synth(root / "data", num_videos=self.INPUTS["videos"], length=length, seed=seed)
        _synth(root / "golden", num_videos=self.INPUTS["golden_videos"], length=length,
               seed=GOLDEN_SEED)

    @staticmethod
    def _trainer(root: Path):
        config = training.TrainConfig(seed=WEIGHT_SEED)
        _, windows = _load_windows(root, rescale_length=TrainL100.INPUTS["window_length"],
                                   training=True)
        detector = model.Detector(config.model, np.random.default_rng(config.seed))
        examples = training.build_examples(detector, windows)
        return {"config": config, "model": detector, "examples": examples,
                "optimizer": training.Adam(detector.params()),
                "rng": np.random.default_rng(config.seed + 1), "epoch": 0}

    def setup(self, root: Path):
        return self._trainer(root / "data")

    def golden(self, state, root: Path) -> dict:
        st = self._trainer(root / "golden")
        losses = []
        for _ in range(self.INPUTS["golden_epochs"]):
            out = self._epoch(st)
            losses.append([out["loss_total"], out["loss_g"], out["loss_n"]])
        return {"epoch_losses": losses}

    @staticmethod
    def _epoch(st) -> dict:
        lr = st["config"].lr_for_epoch(st["epoch"])
        st["epoch"] += 1
        return training.train_epoch(st["model"], st["examples"], st["optimizer"],
                                    st["config"], lr, st["rng"])

    def step(self, st, tally: Tally) -> None:
        n = len(st["examples"])
        start = perf_counter()
        try:
            out = self._epoch(st)
            ok = all(np.isfinite(v) and v > 0 for v in out.values())
        except NumericError:
            ok = False
        elapsed = perf_counter() - start
        tally.items += n
        tally.item_ms.append(elapsed * 1e3 / n)
        tally.check(ok, n, f"epoch {st['epoch'] - 1}: non-finite or non-positive loss")


# ---------------------------------------------------------------------------
# infer_l256
# ---------------------------------------------------------------------------

def _varied_videos(root: Path, seed: int, lengths) -> None:
    """One synthetic video per length, merged into one manifest.

    ``synth_dataset`` gives all its videos one length, so each length is
    its own one-video dataset; the merge only renames the videos apart.
    """
    rng = np.random.default_rng(seed)
    manifest, database = [], {}
    for i, length in enumerate(lengths):
        sub = f"v{i:02d}"
        _synth(root / sub, num_videos=1, length=int(length),
               seed=int(rng.integers(0, 2**31 - 1)))
        (entry,) = json.loads((root / sub / "manifest.json").read_text())
        (ann,) = json.loads((root / sub / "annotations.json").read_text())["database"].values()
        entry.update(video_id=sub, feature_file=f"{sub}/{entry['feature_file']}")
        manifest.append(entry)
        database[sub] = ann
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "annotations.json").write_text(json.dumps({"database": database}))


class InferL256:
    name = "infer_l256"
    # lengths spread so the zero-padded tail windows are filled to varying degrees
    INPUTS = {"video_lengths": [176, 230, 285, 340, 395, 450, 505, 560], "length_jitter": 8,
              "window_length": 256, "stride": 128, "anchors": 14049,
              "golden_video_lengths": [240, 300], "golden_anchor_stride": 701,
              "golden_top_m": 10}
    CONFIG = ModelConfig(window_length=256)

    def prepare(self, seed: int, root: Path) -> None:
        jitter = self.INPUTS["length_jitter"]
        lengths = np.asarray(self.INPUTS["video_lengths"])
        lengths = lengths + np.random.default_rng(seed).integers(-jitter, jitter + 1, len(lengths))
        _varied_videos(root / "data", seed, lengths)
        _varied_videos(root / "golden", GOLDEN_SEED, self.INPUTS["golden_video_lengths"])
        model.Detector(self.CONFIG, np.random.default_rng(WEIGHT_SEED)).save(root / "weights.tgck")

    def _windows(self, root: Path):
        return _load_windows(root, window_length=self.INPUTS["window_length"],
                             stride=self.INPUTS["stride"], training=False)

    def setup(self, root: Path):
        annotations, windows = self._windows(root / "data")
        detector = model.Detector(self.CONFIG, np.random.default_rng(0))
        detector.load(root / "weights.tgck")
        by_video: dict[str, list] = {}
        for w in windows:
            by_video.setdefault(w.video_id, []).append(w)
        return {"model": detector, "annotations": annotations, "by_video": by_video,
                "videos": sorted(by_video), "pos": 0, "detections": {},
                "fingerprints": {}, "map": None}

    def golden(self, state, root: Path) -> dict:
        annotations, windows = self._windows(root / "golden")
        scores = inference.score_windows(state["model"], windows)
        sample = slice(0, None, self.INPUTS["golden_anchor_stride"])
        dets = postprocess.finalize_detections(scores)
        report = _map(dets, annotations)
        top = self.INPUTS["golden_top_m"]
        return {
            "anchor_scores": [[ws.p_cls[sample].tolist(), ws.p_reg[sample].tolist()]
                              for ws in scores],
            "detections": {v: [[d.start, d.end, d.score] for d in items[:top]]
                           for v, items in dets.items()},
            "map_per_threshold": [report.map_per_threshold[t] for t in report.thresholds],
            "average_map": report.average_map,
        }

    def step(self, st, tally: Tally) -> None:
        """Score one video's windows, then finalize it; mAP after each pass."""
        video = st["videos"][st["pos"]]
        scores = []
        for w in st["by_video"][video]:
            t0 = perf_counter()
            (ws,) = inference.score_windows(st["model"], [w])
            tally.item_ms.append((perf_counter() - t0) * 1e3)
            scores.append(ws)
            key = (video, w.offset)
            fingerprint = np.concatenate([ws.p_cls, ws.p_reg])
            ok = (ws.p_cls.shape == (len(st["model"].anchors),)
                  and bool(np.all((fingerprint >= 0) & (fingerprint <= 1))))
            if key in st["fingerprints"]:
                ok = ok and np.allclose(fingerprint, st["fingerprints"][key], rtol=1e-12, atol=0)
            st["fingerprints"].setdefault(key, fingerprint)
            tally.check(ok, 1, f"{video}@{w.offset}: scores out of range or not repeatable")
        dets = postprocess.finalize_detections(scores)
        tally.check(_detections_ok(dets, [video]), 1, f"{video}: malformed detections")
        st["detections"][video] = dets.get(video, [])
        st["pos"] += 1
        if st["pos"] == len(st["videos"]):
            st["pos"] = 0
            value = _map(st["detections"], st["annotations"]).average_map
            ok = 0.0 <= value <= 1.0 and st["map"] in (None, value)
            st["map"] = value
            tally.check(ok, 1, f"mAP {value} out of range or not repeatable")
        tally.items += len(scores)


WORKLOADS = {w.name: w for w in (TrainL100(), InferL256())}


if __name__ == "__main__":
    # child-process entry: workloads.py NAME SEED DIR writes the inputs under DIR
    WORKLOADS[sys.argv[1]].prepare(int(sys.argv[2]), Path(sys.argv[3]))
