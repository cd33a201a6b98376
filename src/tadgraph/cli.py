"""Command-line pipeline: synth, train, infer, eval, export-graph.

Options come from flags alone. Each resolves as: explicit flag > the
checkpoint's sidecar ``config.json`` (architecture options and window length of
``infer`` and ``export-graph`` only) > the default of the dataclass or function the
option feeds. Exit codes: 0 success, 1 usage, 2 data/format error,
3 numeric failure.

Each subparser carries its handler, and a flag feeds the config that has a field
of its name: ``--batch-size`` sets ``TrainConfig.batch_size``, ``--seed`` the
``SynthConfig`` or ``TrainConfig`` seed. ``--lr``/``--lr2``, the fusion and
Soft-NMS options and the windowing options are read by hand, because they feed
functions or fields of other names.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import SynthConfig, load_annotations, load_dataset, prepare_windows, synth_dataset
from .errors import ConfigError, DataError, FormatError, NumericError
from .evaluation import DEFAULT_THRESHOLDS, map_suite, write_report
from .inference import read_raw_scores, score_windows, write_raw_scores
from .model import Detector, ModelConfig
from .postprocess import finalize_detections, read_detections, write_detections
from .training import TrainConfig, init_params, train

_NMS_KEYS = ("alpha", "nms_method", "nms_threshold", "nms_sigma", "top_m")
_NMS_RULES = {"alpha": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
              "nms_threshold": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
              "nms_sigma": ("above 0", lambda v: v > 0.0),
              "top_m": ("at least 1", lambda v: v >= 1)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tadgraph",
                                     description="Sub-graph temporal action detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def add_data(p):
        p.add_argument("--manifest", required=True)
        p.add_argument("--rescale-length", type=int, help="excludes --window-size")
        p.add_argument("--window-size", type=int, help="excludes --rescale-length")
        p.add_argument("--stride", type=int, help="needs --window-size; defaults to half of it")

    def add_arch(p):
        for name in ("width", "blocks", "cardinality", "k_neighbors", "tau1", "tau2",
                     "max_duration"):
            p.add_argument("--" + name.replace("_", "-"), type=int)

    def add_nms(p):
        p.add_argument("--nms-method", choices=["linear", "gaussian"])
        p.add_argument("--nms-threshold", type=float, help="needs --nms-method linear (the default)")
        p.add_argument("--nms-sigma", type=float, help="needs --nms-method gaussian")
        p.add_argument("--top-m", type=int)

    p = command("synth", _cmd_synth, help="generate a synthetic dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--num-videos", type=int)
    p.add_argument("--length", type=int)
    p.add_argument("--c-raw", type=int)
    p.add_argument("--num-classes", type=int)
    p.add_argument("--noise", type=float)

    p = command("train", _cmd_train, help="train a detector")
    p.add_argument("--seed", type=int)
    add_data(p)
    p.add_argument("--annotations", required=True)
    add_arch(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int, help="total epochs; lr drops after epochs // 2")
    p.add_argument("--lr", type=float, help="phase-1 learning rate")
    p.add_argument("--lr2", type=float, help="phase-2 learning rate (default lr/10)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--anchors-per-window", type=int)
    p.add_argument("--quiet", action="store_true")

    p = command("infer", _cmd_infer, help="score a dataset with a checkpoint")
    add_data(p)
    add_arch(p)
    p.add_argument("--alpha", type=float)
    add_nms(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="detection JSON path")
    p.add_argument("--save-raw", help="also write raw anchor scores here")

    p = command("eval", _cmd_eval, help="evaluate detections against annotations")
    add_nms(p)
    p.add_argument("--detections")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--thresholds", type=str,
                   help="comma list or start:step:stop, e.g. 0.5:0.05:0.95")
    p.add_argument("--class-agnostic", action="store_true")
    p.add_argument("--raw-scores", help="scores of `infer --save-raw`: sweep the fusion "
                   "exponent over 0.1..0.9")

    p = command("export-graph", _cmd_export_graph,
                help="write per-layer semantic edges of one video")
    p.add_argument("--seed", type=int)
    add_data(p)
    add_arch(p)
    p.add_argument("--checkpoint")
    p.add_argument("--video-id")
    p.add_argument("--out", required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    return parser


def _given(args: argparse.Namespace, *keys: str) -> dict:
    """The named options that a flag set; the subcommand need not have them all."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _fields_given(args: argparse.Namespace, config_type) -> dict:
    """The options that a flag set for fields of ``config_type``."""
    return _given(args, *(f.name for f in fields(config_type)))


def _sidecar_model(args: argparse.Namespace) -> ModelConfig | None:
    """The model config in the checkpoint's sidecar ``config.json``, if it has one."""
    checkpoint = getattr(args, "checkpoint", None)
    sidecar_path = Path(checkpoint).parent / "config.json" if checkpoint else None
    if sidecar_path is None or not sidecar_path.exists():
        return None
    try:
        return ModelConfig(**json.loads(sidecar_path.read_text()).get("model", {}))
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{sidecar_path}: not a training config: {exc}") from exc


def _nms_options(args: argparse.Namespace) -> dict:
    """``finalize_detections`` keywords; the ``nms_`` flags drop their prefix.
    A value outside its flag's range, or a threshold or sigma that the method in
    effect does not read, is a usage error."""
    given = _given(args, *_NMS_KEYS)
    for key, (rule, ok) in _NMS_RULES.items():
        if key in given and not ok(given[key]):
            raise ConfigError(f"--{key.replace('_', '-')} {given[key]} must be {rule}")
    method = given.get("nms_method", "linear")
    if "nms_threshold" in given and method != "linear":
        raise ConfigError("--nms-threshold: only --nms-method linear (the default) reads it")
    if "nms_sigma" in given and method != "gaussian":
        raise ConfigError("--nms-sigma: only --nms-method gaussian reads it (default linear)")
    return {key.removeprefix("nms_"): value for key, value in given.items()}


def _parse_thresholds(spec: str | None):
    """tIoU thresholds from a comma list or ``start:step:stop``; each in (0, 1]."""
    if not spec:
        return DEFAULT_THRESHOLDS
    try:
        if ":" in spec:
            start, step, stop = (float(v) for v in spec.split(":"))
        else:
            values = tuple(float(v) for v in spec.split(","))
    except ValueError as exc:
        raise ConfigError(f"--thresholds '{spec}': not a comma list or start:step:stop") from exc
    if ":" in spec:
        # values are rounded to 6 decimals, so a finer step only repeats them
        if not (step >= 1e-6 and 0.0 < start <= 1.0 and 0.0 < stop <= 1.0):
            raise ConfigError(f"--thresholds '{spec}': a range needs start and stop "
                              "in (0, 1] and a step of at least 1e-6")
        values = tuple(np.round(np.arange(start, stop + step / 2, step), 6))
    if not values or not all(0.0 < t <= 1.0 for t in values):
        raise ConfigError(f"--thresholds '{spec}': need one or more values in (0, 1]")
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig(**_fields_given(args, SynthConfig))
    manifest, annotations = synth_dataset(config, args.out)
    print(f"wrote {manifest} and {annotations}")
    return 0


def _windows_and_model(args: argparse.Namespace, training: bool):
    """The dataset's model windows, all of one (C_raw, L) shape, and the model config
    for them: each architecture option from a flag, else the checkpoint's sidecar,
    else the ModelConfig default.

    Without a windowing flag, videos are rescaled to the sidecar's window length
    (100 without a sidecar). A flag of the windowing mode not chosen, or one that
    asks for another window length, tau1 or tau2 than the sidecar's, is a usage
    error: a re-split tau still fits the head's (tau1 + tau2) * width input rows.
    """
    if args.window_size is None and args.stride is not None:
        raise ConfigError("--stride needs --window-size; without it every video "
                          "is rescaled to --rescale-length")
    if args.window_size is not None and args.rescale_length is not None:
        raise ConfigError("--rescale-length and --window-size choose different "
                          "windowing modes; pass one of them")
    if args.window_size is not None and args.window_size < 2:
        raise ConfigError(f"--window-size {args.window_size} must be at least 2")
    windowing = _given(args, "rescale_length", "stride")
    if args.window_size is not None:
        windowing["window_length"] = args.window_size
        windowing.setdefault("stride", args.window_size // 2)
    base, arch = _sidecar_model(args), _fields_given(args, ModelConfig)
    if base is not None:
        key, flag = (("window_length", "--window-size") if args.window_size is not None
                     else ("rescale_length", "--rescale-length"))
        windowing.setdefault(key, base.window_length)
        for flag, value, name, trained in [
                (flag, windowing[key], "window length", base.window_length),
                ("--tau1", arch.get("tau1", base.tau1), "tau1", base.tau1),
                ("--tau2", arch.get("tau2", base.tau2), "tau2", base.tau2)]:
            if value != trained:
                raise ConfigError(f"{flag} {value} differs from the {name} {trained} "
                                  "that the checkpoint was trained at")
    sequences, annotations = load_dataset(args.manifest, args.annotations if training else None)
    if not sequences:
        raise DataError(f"{args.manifest}: dataset is empty")
    windows = prepare_windows(sequences, annotations, training=training, **windowing)
    if not windows:
        raise DataError("no training windows contain an action")
    c_raw, window_length = windows[0].features.shape
    return windows, replace(base or ModelConfig(), c_raw=c_raw, window_length=window_length,
                            **arch)


def _cmd_train(args: argparse.Namespace) -> int:
    windows, model_config = _windows_and_model(args, training=True)
    schedule = {}
    if args.lr is not None:
        schedule.update(lr_phase1=args.lr, lr_phase2=args.lr / 10.0)
    if args.lr2 is not None:
        schedule["lr_phase2"] = args.lr2
    config = TrainConfig(model=model_config, **schedule, **_fields_given(args, TrainConfig))
    model = init_params(config)
    train(model, windows, config, out_dir=args.out, log=None if args.quiet else print)
    print(f"checkpoint written to {Path(args.out) / 'checkpoint.tgck'}")
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    nms = _nms_options(args)
    windows, model_config = _windows_and_model(args, training=False)
    model = Detector.from_checkpoint(model_config, args.checkpoint)
    window_scores = score_windows(model, windows)
    if args.save_raw:
        write_raw_scores(args.save_raw, window_scores)
    detections = finalize_detections(window_scores, **nms)
    write_detections(args.out, detections)
    total = sum(len(d) for d in detections.values())
    print(f"wrote {total} detections for {len(detections)} videos to {args.out}")
    return 0


def _check_labels(detections, annotations, args: argparse.Namespace) -> None:
    """Refuse a per-class evaluation that can only score 0, such as one of
    ``infer`` output, whose labels are all "action"."""
    predicted = {d.label for dets in detections.values() for d in dets}
    annotated = set(annotations.labels())
    if not args.class_agnostic and predicted and annotated and predicted.isdisjoint(annotated):
        raise ConfigError(f"no predicted label ({', '.join(sorted(predicted))}) occurs in "
                          f"{args.annotations}; pass --class-agnostic to score segments alone")


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.detections and (unread := _given(args, "raw_scores", *_NMS_KEYS)):
        flags = ", ".join(f"--{key.replace('_', '-')}" for key in unread)
        raise ConfigError(f"{flags}: eval scores --detections as written and reads "
                          "no raw scores or Soft-NMS options with them")
    if not (args.detections or args.raw_scores):
        raise ConfigError("eval needs --detections or --raw-scores")
    nms = _nms_options(args)
    annotations = load_annotations(args.annotations)
    thresholds = _parse_thresholds(args.thresholds)

    if args.raw_scores:
        raw = read_raw_scores(args.raw_scores)
        best = None
        for alpha in np.round(np.arange(0.1, 0.95, 0.1), 2):
            nms["alpha"] = float(alpha)
            detections = finalize_detections(raw, **nms)
            _check_labels(detections, annotations, args)
            report = map_suite(detections, annotations.by_video, thresholds, args.class_agnostic)
            print(f"alpha={alpha:.1f}  average mAP={report.average_map:.4f}")
            if best is None or report.average_map > best[1].average_map:
                best = (float(alpha), report)
        alpha, report = best
        print(f"best alpha={alpha:.1f}")
    else:
        detections = read_detections(args.detections)
        _check_labels(detections, annotations, args)
        report = map_suite(detections, annotations.by_video, thresholds, args.class_agnostic)

    print(report.to_table())
    if args.out:
        write_report(args.out, report)
    return 0


def _cmd_export_graph(args: argparse.Namespace) -> int:
    if args.checkpoint and args.seed is not None:
        raise ConfigError("--seed: export-graph draws no weights when it reads them "
                          "from --checkpoint; pass one of them")
    windows, model_config = _windows_and_model(args, training=False)
    video_id = args.video_id or windows[0].video_id
    matching = [w for w in windows if w.video_id == video_id]
    if not matching:
        raise DataError(f"video '{video_id}' not found in the manifest")
    if args.checkpoint:
        model = Detector.from_checkpoint(model_config, args.checkpoint)
    else:
        model = init_params(TrainConfig(model=model_config, **_fields_given(args, TrainConfig)))

    with ad.no_grad():
        _, _, graph = model.forward_features(matching[0].features)
    Path(args.out).write_text(json.dumps(graph.to_json_dict(), indent=1))
    if args.dot:
        Path(args.dot).write_text(graph.to_dot())
    print(f"wrote {len(graph.semantic_layers)} semantic layers to {args.out}")
    return 0


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
