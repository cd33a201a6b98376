"""End-to-end optimization: batching, multi-task loss, adaptive-moment steps.

One training example is a window. Per window the backbone runs, the node
branch reads the first block's features, the localization head scores a
random anchor subset through sub-graph alignment, and the combined loss is
backpropagated; gradients accumulate across the windows of a batch before
a single optimizer step. Weight decay lives here alone: each batch's L2
value enters every window's loss as a constant, and ``Adam.step`` adds its
gradient. The learning rate drops once, halfway through the epochs.

``Adam.step`` updates every parameter and its moments in place, chunk by
chunk, bit-identical to the whole-array formula, so a step holds no
parameter-sized temporary; parameters must therefore be C-contiguous.

Each epoch starts by handing the C heap's free pages back to the operating
system (glibc's ``malloc_trim``; nothing happens where the C library has
none), so the epoch's resident memory is what it holds, not what earlier
work freed into holes that its arrays may not fit.
"""

from __future__ import annotations

import ctypes
import functools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Window
from .errors import ContractError, NumericError, check_lows
from .heads import (DEFAULT_LAMBDA1, assign_anchor_labels, assign_node_labels,
                    node_branch_forward, node_loss, subgraph_loss, total_loss)
from .model import Detector, ModelConfig

DEFAULT_LAMBDA2 = 1e-4


@dataclass
class TrainConfig:
    """Optimization settings; defaults follow the reference recipe."""

    model: ModelConfig = field(default_factory=ModelConfig)
    batch_size: int = 16
    epochs: int = 10
    lr_phase1: float = 4e-3
    lr_phase2: float = 4e-4
    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2
    anchors_per_window: int = 256
    seed: int = 0

    def __post_init__(self):
        """Refuse, naming the field, a setting that cannot train."""
        check_lows(self, "training", dict(batch_size=1, epochs=1, anchors_per_window=1, seed=0,
                                          lambda1=0.0, lambda2=0.0, lr_phase1=0.0,
                                          lr_phase2=0.0), above=("lr_phase1", "lr_phase2"))

    def lr_for_epoch(self, epoch: int) -> float:
        """``lr_phase1`` for the first ``epochs // 2`` epochs, ``lr_phase2`` after."""
        return self.lr_phase1 if epoch < self.epochs // 2 else self.lr_phase2


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements of a parameter that ``Adam.step`` updates at a time
ADAM_CHUNK = 1 << 15


class Adam:
    """Adaptive moment estimation with ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``;
    ``step`` adds the weight term's gradient 2 * lambda2 * p before the moments
    (coupled L2, not AdamW's decoupled decay).

    ``step`` updates each parameter and its moments in place, ``ADAM_CHUNK`` flat
    elements at a time through two chunk-sized scratch buffers, so it holds no
    parameter-sized temporary. Each element takes the operations of the whole-array
    formula in their order, so the result is bit-identical to it. Parameters must be
    C-contiguous: ``step`` refuses another layout with a ``ContractError`` naming the
    parameter's position and shape, before it updates any."""

    def __init__(self, params: list[ad.Tensor]):
        self.params = params
        self.m = [np.zeros(p.shape) for p in params]
        self.v = [np.zeros(p.shape) for p in params]
        self.t = 0

    def step(self, lr: float, lambda2: float) -> None:
        for i, p in enumerate(self.params):
            # the flat form of another layout is a copy, which an update never reaches
            if not p.data.flags.c_contiguous:
                raise ContractError(f"Adam parameter {i} of shape {p.shape} is not "
                                    "C-contiguous")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        decay = 2.0 * lambda2
        g_buf, t_buf = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
        for p, m, v in zip(self.params, self.m, self.v):
            flat_p, flat_m, flat_v = p.data.reshape(-1), m.reshape(-1), v.reshape(-1)
            flat_grad = None if p.grad is None else p.grad.reshape(-1)
            for lo in range(0, flat_p.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, flat_p.size)
                pc, mc, vc = flat_p[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
                g, tmp = g_buf[:hi - lo], t_buf[:hi - lo]
                # g = grad + 2 * lambda2 * p, or 0.0 + 2 * lambda2 * p without a gradient
                np.multiply(pc, decay, out=g)
                if flat_grad is None:
                    g += 0.0
                else:
                    g += flat_grad[lo:hi]
                mc *= ADAM_BETA1                                 # m = b1 m + (1 - b1) g
                np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
                mc += tmp
                vc *= ADAM_BETA2                                 # v = b2 v + ((1 - b2) g) g
                np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
                tmp *= g
                vc += tmp
                np.divide(mc, b1c, out=tmp)                      # p -= lr (m / b1c)
                tmp *= lr                                        #   / (sqrt(v / b2c) + eps)
                np.divide(vc, b2c, out=g)
                np.sqrt(g, out=g)
                g += ADAM_EPS
                tmp /= g
                pc -= tmp


def init_params(config: TrainConfig) -> Detector:
    """Deterministic model construction from the config seed."""
    return Detector(config.model, np.random.default_rng(config.seed))


@dataclass
class WindowExample:
    """A window with its precomputed training targets."""

    window: Window
    anchor_labels: np.ndarray    # (J,) max IoU per anchor
    node_labels: np.ndarray      # (L, 2) start/end flags


def build_examples(model: Detector, windows: list[Window]) -> list[WindowExample]:
    examples = []
    for window in windows:
        segments = [(s, e) for s, e, _ in window.segments]
        examples.append(WindowExample(
            window=window,
            anchor_labels=assign_anchor_labels(model.anchors, segments),
            node_labels=assign_node_labels(model.config.window_length, segments),
        ))
    return examples


def weight_decay_term(params: list[ad.Tensor], lambda2: float) -> float:
    """The L2 value lambda2 * sum of squared parameters, a constant of the graph;
    ``Adam.step`` adds its gradient."""
    return lambda2 * sum(float(np.vdot(p.data, p.data)) for p in params)


def window_loss(model: Detector, example: WindowExample, config: TrainConfig,
                subset: np.ndarray | None, weight_term: float):
    """Forward one window; returns (total, loss_g, loss_n) tensors. ``weight_term``
    is the batch's lambda2 * sum of squared parameters, a constant of the graph."""
    block1, final, graph = model.forward_features(example.window.features)
    scores = model.forward_scores(final, graph.semantic_layers[-1], subset, example.window)
    labels = example.anchor_labels if subset is None else example.anchor_labels[subset]
    loss_g = subgraph_loss(scores[:, 0], scores[:, 1], labels, config.lambda1)
    node_probs = node_branch_forward(block1, model.node_head)
    loss_n = node_loss(node_probs, example.node_labels)
    loss = total_loss(loss_g, loss_n, weight_term)
    return loss, loss_g, loss_n


def sample_anchor_subset(labels: np.ndarray, count: int,
                         rng: np.random.Generator) -> np.ndarray | None:
    """Positive-balanced anchor sample for one training step.

    Anchors with label >= 0.9 are always included so the regressor keeps
    its top calibrated; further positives (label > 0.5) fill up to half
    the sample and the rest is drawn from the remainder. Returns None
    when no subsampling is needed.
    """
    total = len(labels)
    if not 0 < count < total:
        return None
    near_exact = np.where(labels >= 0.9)[0]
    if len(near_exact) > count // 2:
        near_exact = rng.choice(near_exact, size=count // 2, replace=False)
    free = np.ones(total, dtype=bool)
    free[near_exact] = False
    positive = np.flatnonzero((labels > 0.5) & free)
    take_pos = min(len(positive), max(0, count // 2 - len(near_exact)))
    chosen_pos = rng.choice(positive, size=take_pos, replace=False) \
        if take_pos else np.zeros(0, dtype=np.int64)
    head = np.concatenate([near_exact, chosen_pos])
    free[chosen_pos] = False
    rest = np.flatnonzero(free)
    chosen_rest = rng.choice(rest, size=min(len(rest), count - len(head)), replace=False)
    return np.sort(np.concatenate([head, chosen_rest]).astype(np.int64))


@functools.cache
def _malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        return getattr(ctypes.CDLL(None), "malloc_trim", None)
    except (OSError, TypeError):
        return None


def release_free_heap() -> None:
    """Return the C heap's free pages to the operating system. Numpy arrays
    freed in the middle of the heap stay resident otherwise, and whether a later
    array fits into those holes or grows the heap depends on the order of every
    earlier allocation."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def train_epoch(model: Detector, examples: list[WindowExample], optimizer: Adam,
                config: TrainConfig, lr: float, rng: np.random.Generator) -> dict:
    """One pass over the shuffled examples; returns mean loss components. The
    C heap's free pages go back to the operating system first."""
    release_free_heap()
    order = rng.permutation(len(examples))
    params = model.params()
    totals = np.zeros(3)
    for first in range(0, len(order), config.batch_size):
        batch = order[first:first + config.batch_size]
        weight_term = weight_decay_term(params, config.lambda2)
        for pos, ei in enumerate(batch, start=first):
            example = examples[int(ei)]
            subset = sample_anchor_subset(example.anchor_labels,
                                          config.anchors_per_window, rng)
            loss, loss_g, loss_n = window_loss(model, example, config, subset, weight_term)
            values = (loss.item(), loss_g.item(), loss_n.item())
            if not all(np.isfinite(values)):
                raise NumericError(f"non-finite loss {values[0]} on window {pos} "
                                   f"(video {example.window.video_id})")
            totals += values
            ad.mul(loss, 1.0 / len(batch)).backward()
        optimizer.step(lr, config.lambda2)
        ad.zero_grad(params)
    n = max(1, len(order))
    return {"loss_total": totals[0] / n, "loss_g": totals[1] / n, "loss_n": totals[2] / n}


def _plain_number(value):
    """A numpy scalar config field as the python number json writes."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def train(model: Detector, windows: list[Window], config: TrainConfig,
          out_dir=None, log=print) -> list[dict]:
    """Full run of ``config.epochs`` epochs. Given ``out_dir``, writes the config
    sidecar before the first epoch, one JSONL metrics line per epoch and the
    checkpoint after the last."""
    examples = build_examples(model, windows)
    optimizer = Adam(model.params())
    rng = np.random.default_rng(config.seed + 1)
    history = []
    metrics_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(json.dumps(asdict(config), indent=1,
                                                        default=_plain_number))
        metrics_path = out_dir / "metrics.jsonl"
        metrics_path.write_text("")
    for epoch in range(config.epochs):
        lr = config.lr_for_epoch(epoch)
        metrics = train_epoch(model, examples, optimizer, config, lr, rng)
        record = {"epoch": epoch, **{k: round(v, 6) for k, v in metrics.items()}, "lr": lr}
        history.append(record)
        if log is not None:
            log(f"epoch {epoch}: total={metrics['loss_total']:.4f} "
                f"g={metrics['loss_g']:.4f} n={metrics['loss_n']:.4f} lr={lr:g}")
        if metrics_path is not None:
            with open(metrics_path, "a") as fh:
                fh.write(json.dumps(record) + "\n")
    if out_dir is not None:
        model.save(out_dir / "checkpoint.tgck")
    return history
