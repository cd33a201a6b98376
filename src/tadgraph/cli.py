"""Command-line pipeline: synth, train, infer, eval, export-graph.

Options may come from flags or from a JSON config file (``--config``);
explicit flags win. Exit codes: 0 success, 1 usage, 2 data/format error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import SynthConfig, load_dataset, prepare_windows, synth_dataset
from .errors import ConfigError, DataError, FormatError, NumericError
from .evaluation import DEFAULT_THRESHOLDS, map_suite, write_report
from .inference import read_raw_scores, score_windows, write_raw_scores
from .model import Detector, ModelConfig
from .postprocess import finalize_detections, read_detections, write_detections
from .training import TrainConfig, init_params, train

_ARCH_KEYS = ("width", "blocks", "cardinality", "k_neighbors", "tau1", "tau2",
              "max_duration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tadgraph",
                                     description="Sub-graph temporal action detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.add_argument("--seed", type=int)

    def add_data(p, annotations_required):
        p.add_argument("--manifest", required=True)
        p.add_argument("--annotations", required=annotations_required)
        p.add_argument("--rescale-length", type=int, dest="rescale_length")
        p.add_argument("--window-size", type=int, dest="window_size")
        p.add_argument("--stride", type=int)

    def add_arch(p):
        p.add_argument("--width", type=int)
        p.add_argument("--blocks", type=int)
        p.add_argument("--cardinality", type=int)
        p.add_argument("--k-neighbors", type=int, dest="k_neighbors")
        p.add_argument("--tau1", type=int)
        p.add_argument("--tau2", type=int)
        p.add_argument("--max-duration", type=int, dest="max_duration")

    def add_nms(p):
        p.add_argument("--alpha", type=float)
        p.add_argument("--nms-method", choices=["linear", "gaussian"], dest="nms_method")
        p.add_argument("--nms-threshold", type=float, dest="nms_threshold")
        p.add_argument("--nms-sigma", type=float, dest="nms_sigma")
        p.add_argument("--top-m", type=int, dest="top_m")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--num-videos", type=int, dest="num_videos")
    p.add_argument("--length", type=int)
    p.add_argument("--c-raw", type=int, dest="c_raw")
    p.add_argument("--num-classes", type=int, dest="num_classes")
    p.add_argument("--noise", type=float)

    p = sub.add_parser("train", help="train a detector")
    add_common(p)
    add_data(p, annotations_required=True)
    add_arch(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, help="total epochs, split evenly over both phases")
    p.add_argument("--lr", type=float, help="phase-1 learning rate")
    p.add_argument("--lr2", type=float, help="phase-2 learning rate (default lr/10)")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--anchors-per-window", type=int, dest="anchors_per_window")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("infer", help="score a dataset with a checkpoint")
    add_common(p)
    add_data(p, annotations_required=False)
    add_arch(p)
    add_nms(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="detection JSON path")
    p.add_argument("--save-raw", dest="save_raw", help="also write raw anchor scores here")

    p = sub.add_parser("eval", help="evaluate detections against annotations")
    add_common(p)
    add_nms(p)
    p.add_argument("--detections")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--thresholds", help="comma list or start:step:stop, e.g. 0.5:0.05:0.95")
    p.add_argument("--class-agnostic", action="store_true", dest="class_agnostic")
    p.add_argument("--grid-alpha", action="store_true", dest="grid_alpha",
                   help="sweep the fusion exponent over 0.1..0.9 (needs --raw-scores)")
    p.add_argument("--raw-scores", dest="raw_scores")

    p = sub.add_parser("export-graph", help="write per-layer semantic edges of one video")
    add_common(p)
    add_data(p, annotations_required=False)
    add_arch(p)
    p.add_argument("--checkpoint")
    p.add_argument("--video-id", dest="video_id")
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    return parser


class _Opts:
    """Resolved options: explicit flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace):
        self._values = dict(vars(args))
        config_path = self._values.get("config")
        self._file = {}
        if config_path:
            try:
                self._file = json.loads(Path(config_path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise DataError(f"{config_path}: cannot read config file") from exc
            if not isinstance(self._file, dict):
                raise DataError(f"{config_path}: config file must hold a JSON object")

    def get(self, key, default=None):
        value = self._values.get(key)
        if value is None or value is False:
            value = self._file.get(key, value)
        if value is None:
            return default
        return value


def _model_config(opts: _Opts, c_raw: int, window_length: int) -> ModelConfig:
    """Architecture from flags/config over an optional checkpoint sidecar."""
    base = ModelConfig()
    checkpoint = opts.get("checkpoint")
    if checkpoint:
        sidecar_path = Path(checkpoint).parent / "config.json"
        if sidecar_path.exists():
            try:
                stored = json.loads(sidecar_path.read_text()).get("model", {})
                base = ModelConfig.from_json_dict(stored)
            except (AttributeError, TypeError, ValueError) as exc:
                raise FormatError(f"{sidecar_path}: not a training config: {exc}") from exc
    kwargs = {key: opts.get(key, getattr(base, key)) for key in _ARCH_KEYS}
    return ModelConfig(c_raw=c_raw, window_length=window_length,
                       head_hidden=tuple(base.head_hidden), **kwargs)


def _window_settings(opts: _Opts) -> tuple[int, int, int]:
    rescale = int(opts.get("rescale_length", 100))
    window = int(opts.get("window_size", 0))
    stride = int(opts.get("stride", window // 2 if window else 0))
    return rescale, window, stride


def _parse_thresholds(spec: str | None):
    if not spec:
        return DEFAULT_THRESHOLDS
    if ":" in spec:
        start, step, stop = (float(v) for v in spec.split(":"))
        return tuple(np.round(np.arange(start, stop + step / 2, step), 6))
    return tuple(float(v) for v in spec.split(","))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(opts: _Opts) -> int:
    config = SynthConfig(
        num_videos=int(opts.get("num_videos", 200)),
        length=int(opts.get("length", 100)),
        c_raw=int(opts.get("c_raw", 32)),
        num_classes=int(opts.get("num_classes", 3)),
        noise=float(opts.get("noise", 0.5)),
        seed=int(opts.get("seed", 0)),
    )
    manifest, annotations = synth_dataset(config, opts.get("out"))
    print(f"wrote {manifest} and {annotations}")
    return 0


def _load_windows(opts: _Opts, training: bool):
    sequences, annotations = load_dataset(opts.get("manifest"), opts.get("annotations"))
    if not sequences:
        raise DataError(f"{opts.get('manifest')}: dataset is empty")
    rescale, window, stride = _window_settings(opts)
    windows = prepare_windows(sequences, annotations, rescale_length=rescale,
                              window_length=window, stride=stride, training=training)
    window_length = window if window > 0 else rescale
    return sequences, annotations, windows, window_length


def _cmd_train(opts: _Opts) -> int:
    sequences, _, windows, window_length = _load_windows(opts, training=True)
    if not windows:
        raise DataError("no training windows contain an action")
    c_raw = sequences[0].c_raw
    model_cfg = _model_config(opts, c_raw, window_length)
    total_epochs = int(opts.get("epochs", 10))
    lr1 = float(opts.get("lr", 4e-3))
    config = TrainConfig(
        model=model_cfg,
        batch_size=int(opts.get("batch_size", 16)),
        epochs_phase1=total_epochs // 2,
        epochs_phase2=total_epochs - total_epochs // 2,
        lr_phase1=lr1,
        lr_phase2=float(opts.get("lr2", lr1 / 10.0)),
        lambda1=float(opts.get("lambda1", 10.0)),
        lambda2=float(opts.get("lambda2", 1e-4)),
        anchors_per_window=int(opts.get("anchors_per_window", 256)),
        seed=int(opts.get("seed", 0)),
    )
    model = init_params(config)
    log = None if opts.get("quiet") else print
    train(model, windows, config, out_dir=opts.get("out"), log=log)
    print(f"checkpoint written to {Path(opts.get('out')) / 'checkpoint.tgck'}")
    return 0


def _cmd_infer(opts: _Opts) -> int:
    sequences, _, windows, window_length = _load_windows(opts, training=False)
    model_cfg = _model_config(opts, sequences[0].c_raw, window_length)
    model = Detector(model_cfg, np.random.default_rng(int(opts.get("seed", 0))))
    model.load(opts.get("checkpoint"))
    window_scores = score_windows(model, windows)
    if opts.get("save_raw"):
        write_raw_scores(opts.get("save_raw"), window_scores)
    detections = finalize_detections(
        window_scores,
        alpha=float(opts.get("alpha", 0.5)),
        method=opts.get("nms_method", "linear"),
        threshold=float(opts.get("nms_threshold", 0.84)),
        sigma=float(opts.get("nms_sigma", 0.4)),
        top_m=int(opts.get("top_m", 100)),
    )
    write_detections(opts.get("out"), detections)
    total = sum(len(d) for d in detections.values())
    print(f"wrote {total} detections for {len(detections)} videos to {opts.get('out')}")
    return 0


def _cmd_eval(opts: _Opts) -> int:
    from .data import load_annotations

    annotations = load_annotations(opts.get("annotations"))
    thresholds = _parse_thresholds(opts.get("thresholds"))
    agnostic = bool(opts.get("class_agnostic"))

    if opts.get("grid_alpha"):
        if not opts.get("raw_scores"):
            raise ConfigError("--grid-alpha needs --raw-scores from `infer --save-raw`")
        raw = read_raw_scores(opts.get("raw_scores"))
        best = None
        for alpha in np.round(np.arange(0.1, 0.95, 0.1), 2):
            detections = finalize_detections(
                raw, alpha=float(alpha),
                method=opts.get("nms_method", "linear"),
                threshold=float(opts.get("nms_threshold", 0.84)),
                sigma=float(opts.get("nms_sigma", 0.4)),
                top_m=int(opts.get("top_m", 100)))
            report = map_suite(detections, annotations.by_video, thresholds, agnostic)
            print(f"alpha={alpha:.1f}  average mAP={report.average_map:.4f}")
            if best is None or report.average_map > best[1].average_map:
                best = (float(alpha), report)
        alpha, report = best
        print(f"best alpha={alpha:.1f}")
    else:
        if not opts.get("detections"):
            raise ConfigError("eval needs --detections (or --grid-alpha with --raw-scores)")
        detections = read_detections(opts.get("detections"))
        report = map_suite(detections, annotations.by_video, thresholds, agnostic)

    print(report.to_table())
    if opts.get("out"):
        write_report(opts.get("out"), report)
    return 0


def _cmd_export_graph(opts: _Opts) -> int:
    sequences, _, windows, window_length = _load_windows(opts, training=False)
    video_id = opts.get("video_id", sequences[0].video_id)
    matching = [w for w in windows if w.video_id == video_id]
    if not matching:
        raise DataError(f"video '{video_id}' not found in the manifest")
    model_cfg = _model_config(opts, sequences[0].c_raw, window_length)
    model = Detector(model_cfg, np.random.default_rng(int(opts.get("seed", 0))))
    if opts.get("checkpoint"):
        model.load(opts.get("checkpoint"))
    from . import autodiff as ad

    with ad.no_grad():
        _, _, graph = model.forward_features(matching[0].features)
    Path(opts.get("out")).write_text(json.dumps(graph.to_json_dict(), indent=1))
    if opts.get("dot"):
        Path(opts.get("dot")).write_text(graph.to_dot())
    print(f"wrote {len(graph.semantic_layers)} semantic layers to {opts.get('out')}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "export-graph": _cmd_export_graph,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](_Opts(args))
    except (ConfigError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
