"""Dataset ingestion, rescaling, windowing, and synthetic data generation.

On-disk layout: a manifest (JSON list of video entries with paths relative
to the manifest), one binary feature file per video (``FSEQ`` header then
row-major float32), and an annotation JSON shaped like the ActivityNet
database schema so real extracted features can be dropped in unchanged.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, check_lows, exact_cast, exact_name

FEATURE_MAGIC = b"FSEQ"
FEATURE_VERSION = 1


@dataclass
class FeatureSequence:
    """One video's snippet features plus timing metadata."""

    video_id: str
    features: np.ndarray        # (L_raw, C_raw) float64
    duration_seconds: float
    sampling_rate: float        # seconds covered by one snippet

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def c_raw(self) -> int:
        return self.features.shape[1]


@dataclass
class AnnotationSet:
    """Per-video (start_seconds, end_seconds, label) segments."""

    by_video: dict[str, list[tuple[float, float, str]]] = field(default_factory=dict)

    def segments(self, video_id: str) -> list[tuple[float, float, str]]:
        return self.by_video.get(video_id, [])

    def labels(self) -> list[str]:
        return sorted({label for segs in self.by_video.values() for _, _, label in segs})


# ---------------------------------------------------------------------------
# binary feature files
# ---------------------------------------------------------------------------

def write_feature_file(path, features: np.ndarray) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise DataError(f"feature matrix must be 2-D, got shape {features.shape}")
    length, channels = features.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, channels, length))
        fh.write(features.tobytes())


def read_feature_file(path) -> np.ndarray:
    """The (L, C) features of a feature file, as float64; every value must be finite."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature file (bad magic)")
    if len(raw) < 16:
        raise FormatError(f"{path}: truncated header")
    version, channels, length = struct.unpack_from("<III", raw, 4)
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature file version {version}")
    expected = 16 + 4 * channels * length
    if len(raw) != expected:
        raise FormatError(f"{path}: payload has {len(raw) - 16} bytes, header implies {expected - 16}")
    data = np.frombuffer(raw, dtype="<f4", offset=16).reshape(length, channels)
    if not np.isfinite(data).all():
        raise DataError(f"{path}: features contain non-finite values")
    return data.astype(np.float64)


# ---------------------------------------------------------------------------
# manifest + annotations
# ---------------------------------------------------------------------------

def load_annotations(path) -> AnnotationSet:
    path = Path(path)
    try:
        videos = json.loads(path.read_text())["database"].items()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not an annotation database") from exc
    out = AnnotationSet()
    for video_id, entry in videos:
        try:
            duration = exact_cast(entry["duration"], float, "duration")
            segments = []
            for ann in entry.get("annotations", []):
                start, end = (exact_cast(v, float, "segment") for v in ann["segment"])
                segments.append((start, end, exact_name(ann["label"], "label")))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed entry for video '{video_id}': {exc!r}") from exc
        for start, end, _ in segments:
            if not (0.0 <= start < end <= duration + 1e-9):
                raise DataError(
                    f"{path}: segment [{start}, {end}] outside video '{video_id}' "
                    f"of duration {duration}")
        out.by_video[video_id] = segments
    return out


def load_dataset(manifest_path, annotations_path=None) -> tuple[list[FeatureSequence], AnnotationSet]:
    """Read the manifest's feature files and, when given, the annotations. Each
    video needs its own id, a finite positive duration and sampling rate, at least
    one snippet, at least one feature channel and the first video's channels."""
    manifest_path = Path(manifest_path)
    try:
        entries = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: invalid manifest JSON") from exc
    if not isinstance(entries, list):
        raise FormatError(f"{manifest_path}: manifest must be a JSON list")
    sequences, seen = [], set()
    for entry in entries:
        try:
            feature_path = manifest_path.parent / entry["feature_file"]
            video_id = exact_name(entry["video_id"], "video_id")
            duration_seconds = exact_cast(entry["duration_seconds"], float, "duration_seconds")
            sampling_rate = exact_cast(entry["sampling_rate"], float, "sampling_rate")
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"{manifest_path}: malformed manifest entry: {exc!r}") from exc
        if not feature_path.is_file():
            raise FormatError(f"{manifest_path}: missing feature file {feature_path}")
        if video_id in seen:
            raise FormatError(f"{manifest_path}: video '{video_id}' is listed twice")
        seen.add(video_id)
        for name, value in (("duration_seconds", duration_seconds),
                            ("sampling_rate", sampling_rate)):
            if not (np.isfinite(value) and value > 0):
                raise DataError(f"{manifest_path}: video '{video_id}' has {name} {value}, "
                                f"which must be finite and above 0")
        seq = FeatureSequence(video_id, read_feature_file(feature_path), duration_seconds,
                              sampling_rate)
        if seq.length == 0 or seq.c_raw == 0:
            raise DataError(f"{manifest_path}: video '{video_id}' has no "
                            f"{'feature channels' if seq.length else 'snippets'}")
        if sequences and seq.c_raw != sequences[0].c_raw:
            raise DataError(f"{manifest_path}: video '{video_id}' has {seq.c_raw} feature "
                            f"channels, video '{sequences[0].video_id}' has "
                            f"{sequences[0].c_raw}")
        sequences.append(seq)
    annotations = load_annotations(annotations_path) if annotations_path else AnnotationSet()
    for seq in sequences:
        for start, end, _ in annotations.segments(seq.video_id):
            if end > seq.duration_seconds + 1e-9:
                raise DataError(
                    f"annotation [{start}, {end}] outside video '{seq.video_id}' "
                    f"of duration {seq.duration_seconds}")
    return sequences, annotations


# ---------------------------------------------------------------------------
# rescaling and windowing
# ---------------------------------------------------------------------------

def rescale_sequence(seq: FeatureSequence, target_length: int) -> FeatureSequence:
    """Linear interpolation along time to exactly ``target_length`` rows."""
    if seq.length == target_length:
        return seq
    src = np.arange(seq.length, dtype=np.float64)
    dst = np.linspace(0.0, seq.length - 1.0, target_length)
    out = np.empty((target_length, seq.c_raw))
    for c in range(seq.c_raw):
        out[:, c] = np.interp(dst, src, seq.features[:, c])
    return FeatureSequence(seq.video_id, out, seq.duration_seconds, seq.sampling_rate)


@dataclass
class Window:
    """One model input: a fixed-length crop plus coordinate metadata."""

    video_id: str
    features: np.ndarray           # (C_raw, L_win) F-order, zero padded past valid_length
    offset: int                    # window start in sequence index coordinates
    valid_length: int
    scale: float                   # seconds per index unit
    segments: list[tuple[float, float, str]] = field(default_factory=list)


def _crop_windows(seq: FeatureSequence, window_length: int, starts, training: bool,
                  segments_idx: list[tuple[float, float, str]]) -> list[Window]:
    """The windows of ``window_length`` indices at ``starts``, the one path that builds
    a window. Its features are the transposed view of the sequence's (L, C) row block,
    zero-padded past the video's end. Annotations (index coordinates) spanning less than
    one index once clipped into it are dropped, and in training so is a window left bare.
    """
    windows = []
    for start in starts:
        rows = seq.features[start:start + window_length]
        valid = len(rows)
        if valid < window_length:
            rows = np.concatenate([rows, np.zeros((window_length - valid, seq.c_raw))])
        local = []
        for s, e, label in segments_idx:
            ls, le = max(s - start, 0.0), min(e - start, valid - 1.0)
            if le - ls >= 1.0:
                local.append((ls, le, label))
        if training and not local:
            continue
        # F-order features: `proj @ x` over a C-order copy sums in another BLAS
        # order. At (32x32)@(32x100) that moves the last bits, and with them the
        # trained parameters and the train_l100 golden; at (32x32)@(32x256) the
        # two orders gave equal bits in 300 draws.
        windows.append(Window(video_id=seq.video_id, features=np.ascontiguousarray(rows).T,
                              offset=start, valid_length=valid, scale=seq.sampling_rate,
                              segments=local))
    return windows


def prepare_windows(sequences: list[FeatureSequence], annotations: AnnotationSet,
                    rescale_length: int = 100, window_length: int = 0,
                    stride: int = 0, training: bool = False) -> list[Window]:
    """Turn sequences into model windows.

    Default mode rescales every sequence to a fixed length and crops it
    once, from index 0, so index i maps to ``i / L * duration`` seconds.
    Setting ``window_length`` > 0 switches to strided cropping at the
    native sampling rate: windows start every ``stride`` indices until one
    reaches the end, and the last is zero-padded. Annotations are clipped
    into each window, and in training a window without any is dropped.
    Both modes build their windows with ``_crop_windows``.
    """
    if rescale_length < 1:
        raise ConfigError(f"rescale_length {rescale_length} must be at least 1")
    if window_length > 0 and not window_length > stride > 0:
        raise ConfigError(f"prepare_windows: need window length {window_length} > "
                          f"stride {stride} > 0")
    windows = []
    for seq in sequences:
        if window_length > 0:
            length = window_length
            starts = range(0, max(seq.length - length, 0) + stride, stride)
        else:
            length, starts = rescale_length, [0]
            seq = replace(rescale_sequence(seq, length),
                          sampling_rate=seq.duration_seconds / length)
        idx_segs = [(s / seq.sampling_rate, e / seq.sampling_rate, label)
                    for s, e, label in annotations.segments(seq.video_id)]
        windows.extend(_crop_windows(seq, length, starts, training, idx_segs))
    return windows


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    num_videos: int = 200
    length: int = 100
    c_raw: int = 32
    num_classes: int = 3
    actions_min: int = 1
    actions_max: int = 3
    duration_min: int = 6
    duration_max: int = 30
    noise: float = 0.5
    seconds_per_snippet: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Refuse, naming the field, a setting that cannot write a loadable dataset.
        ``length`` must hold ``actions_max`` actions of ``duration_min`` snippets, each
        followed by a one-snippet gap, between its first and last snippet."""
        check_lows(self, "synth", dict(num_videos=1, c_raw=1, num_classes=1, actions_min=1,
                                       duration_min=1, noise=0.0, seconds_per_snippet=0.0,
                                       seed=0), above=("seconds_per_snippet",))
        check_lows(self, "synth", dict(actions_max=self.actions_min))
        check_lows(self, "synth", dict(length=self.actions_max * (self.duration_min + 2) + 1))


def _pack_actions(actions: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Lay (start, end, class) actions out from snippet 1, two snippets apart,
    keeping each duration and class. The last ends at sum(d + 2) - 1 <= length - 2:
    ``synth_dataset`` caps each of ``count`` durations at (length - 2) // count - 2,
    or draws ``duration_min``, for which ``SynthConfig``'s bound on ``length`` holds."""
    packed, start = [], 1
    for s, e, cls in sorted(actions):
        packed.append((start, start + e - s, cls))
        start += e - s + 2
    return packed


def synth_dataset(config: SynthConfig, out_dir) -> tuple[Path, Path]:
    """Write a manifest + feature files + annotations with planted actions.

    Background snippets are N(0, noise^2); each action adds a per-class
    signature vector over a segment whose endpoints stay inside the anchor
    range. Returns (manifest_path, annotations_path).
    """
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    signatures = rng.normal(0.0, 1.0, size=(config.num_classes, config.c_raw))

    manifest = []
    database = {}
    spp = config.seconds_per_snippet
    for vi in range(config.num_videos):
        video_id = f"synth_{vi:04d}"
        feats = rng.normal(0.0, config.noise, size=(config.length, config.c_raw))
        count = int(rng.integers(config.actions_min, config.actions_max + 1))
        # cap durations so `count` actions plus margins always fit the video
        cap = max(config.duration_min,
                  min(config.duration_max, (config.length - 2) // count - 2))
        placed: list[tuple[int, int, int]] = []
        for _ in range(count):
            for attempt in range(200):
                duration = int(rng.integers(config.duration_min, cap + 1))
                start = int(rng.integers(1, config.length - 1 - duration))
                end = start + duration
                if all(end + 2 <= s or e + 2 <= start for s, e, _ in placed):
                    placed.append((start, end, int(rng.integers(0, config.num_classes))))
                    break
            else:
                # random placement fragmented the free space; pack what was drawn
                placed = _pack_actions(placed + [
                    (0, duration, int(rng.integers(0, config.num_classes)))])
        annotations = []
        for start, end, cls in sorted(placed):
            feats[start:end + 1] += signatures[cls]
            annotations.append({"segment": [start * spp, end * spp],
                                "label": f"class_{cls:02d}"})
        feature_file = f"features/{video_id}.fseq"
        write_feature_file(out_dir / feature_file, feats)
        manifest.append({
            "video_id": video_id,
            "feature_file": feature_file,
            "duration_seconds": config.length * spp,
            "sampling_rate": spp,
        })
        database[video_id] = {
            "duration": config.length * spp,
            "subset": "training",
            "annotations": annotations,
        }

    manifest_path = out_dir / "manifest.json"
    annotations_path = out_dir / "annotations.json"
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    annotations_path.write_text(json.dumps({"database": database}, indent=1, sort_keys=True))
    return manifest_path, annotations_path
