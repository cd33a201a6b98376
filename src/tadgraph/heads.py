"""Scoring heads, label assignment and the multi-task losses.

The localization head maps each anchor's aligned feature through three
fully connected layers to a two-element sigmoid output: a classification
score against the binarized max-IoU label and a regression score against
the label itself. The node branch maps the first block's per-snippet
features to start/end probabilities and is used only as a training
regularizer. Cross entropies are class-balanced per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, new_param
from .errors import ConfigError, ContractError

PROB_EPS = 1e-7
DEFAULT_LAMBDA1 = 10.0
# rows per pass of the localization head, cut by ``autodiff.row_blocks``; at the
# default 1152-wide aligned features and (512, 128) hidden units a block's aligned
# rows take 4.7 MB and its activations, one array per layer, 2.1 and 0.5 MB, where
# all 14049 anchors of L=256 would take 129 and 72 MB
LOC_BLOCK_ROWS = 512


@dataclass
class LocalizationParams:
    """Three affine layers ending in a width-2 output."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @classmethod
    def create(cls, in_width: int, hidden: Sequence[int], rng: np.random.Generator | None):
        h1, h2 = hidden
        return cls(
            w1=new_param(rng, (in_width, h1), in_width),
            b1=Tensor(np.zeros(h1), requires_grad=True),
            w2=new_param(rng, (h1, h2), h1),
            b2=Tensor(np.zeros(h2), requires_grad=True),
            w3=new_param(rng, (h2, 2), h2),
            b3=Tensor(np.zeros(2), requires_grad=True),
        )


@dataclass
class NodeParams:
    """Single affine map from snippet features to start/end logits."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, width: int, rng: np.random.Generator | None):
        return cls(w=new_param(rng, (width, 2), width),
                   b=Tensor(np.zeros(2), requires_grad=True))


def localization_forward(subgraph_features, params: LocalizationParams) -> Tensor:
    """(J, F) aligned features -> (J, 2) sigmoid scores (cls, reg columns).

    The input is a Tensor or ``align.AlignedRows``, read only through its
    ``shape`` and row slices. The layers run over the ``autodiff.row_blocks``
    of ``LOC_BLOCK_ROWS`` rows, so neither the aligned rows of ``AlignedRows``
    nor the hidden activations exist for all J anchors at once.
    """
    if subgraph_features.shape[1] != params.w1.shape[0]:
        raise ConfigError(
            f"localization head expects width {params.w1.shape[0]}, got {subgraph_features.shape[1]}")
    return ad.concat([_localization_rows(subgraph_features[lo:hi], params)
                      for lo, hi in ad.row_blocks(subgraph_features.shape[0], LOC_BLOCK_ROWS)])


# the head's layers in order: layer i has the weight w{i + 1}
_LOC_LAYERS = (lambda x, p: ad.affine_relu(x, p.w1, p.b1),
               lambda x, p: ad.affine_relu(x, p.w2, p.b2),
               lambda x, p: ad.sigmoid(ad.affine(x, p.w3, p.b3)))


def _localization_rows(x: Tensor, params: LocalizationParams) -> Tensor:
    # each layer rebinds x, so without a graph to keep it the block's aligned rows
    # are freed once the first layer has read them
    for layer in _LOC_LAYERS:
        x = layer(x, params)
    return x


def first_nonfinite_layer(subgraph_features, params: LocalizationParams) -> str:
    """The weight name (``w1``, ``w2`` or ``w3``) of the first head layer whose
    output is not finite in some row block. It re-runs the head layer by layer, to
    report a ``localization_forward`` that gave a non-finite score; so when no
    earlier layer is at fault, the last one is."""
    first = len(_LOC_LAYERS) - 1
    for lo, hi in ad.row_blocks(subgraph_features.shape[0], LOC_BLOCK_ROWS):
        x = subgraph_features[lo:hi]
        for i, layer in enumerate(_LOC_LAYERS[:first]):
            x = layer(x, params)
            if not np.isfinite(x.data).all():
                first = i
                break
    return f"w{first + 1}"


def node_branch_forward(block1_features: Tensor, params: NodeParams) -> Tensor:
    """(C, L) block-1 features -> (L, 2) start/end probabilities."""
    return ad.sigmoid(ad.affine(ad.transpose(block1_features), params.w, params.b))


# ---------------------------------------------------------------------------
# label assignment
# ---------------------------------------------------------------------------

def interval_iou(segments: np.ndarray, segment) -> np.ndarray:
    """IoU of each (start, end) row of ``segments`` with one segment; 0 where
    the union is empty."""
    s, e = float(segment[0]), float(segment[1])
    inter = np.maximum(0.0, np.minimum(segments[:, 1], e) - np.maximum(segments[:, 0], s))
    union = np.maximum(segments[:, 1], e) - np.minimum(segments[:, 0], s)
    return np.where(union > 0, inter / union, 0.0)


def assign_anchor_labels(anchors: np.ndarray, ground_truths: Iterable) -> np.ndarray:
    """Per-anchor max IoU over the ground-truth segments (0 when none)."""
    anchors = np.asarray(anchors, dtype=np.float64).reshape(-1, 2)
    labels = np.zeros(len(anchors))
    for segment in ground_truths:
        labels = np.maximum(labels, interval_iou(anchors, segment))
    return labels


def assign_node_labels(length: int, ground_truths: Iterable) -> np.ndarray:
    """(L, 2) binary start/end flags.

    A node is flagged when within ``max(1, duration / 10)`` snippets of a
    ground truth's boundary; a node may be both start and end.
    """
    flags = np.zeros((length, 2))
    ids = np.arange(length, dtype=np.float64)
    for segment in ground_truths:
        s, e = float(segment[0]), float(segment[1])
        radius = max(1.0, (e - s) / 10.0)
        flags[np.abs(ids - s) <= radius, 0] = 1.0
        flags[np.abs(ids - e) <= radius, 1] = 1.0
    return flags


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _balance_weights(targets: np.ndarray) -> np.ndarray:
    """Per-sample weights J/(2*J_pos) and J/(2*J_neg); a missing class
    leaves the present class at weight 1."""
    n = targets.size
    n_pos = float(targets.sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.ones(n)
    weights = np.where(targets > 0.5, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return weights


def weighted_bce(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Class-balanced binary cross entropy, averaged over samples."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    weights = _balance_weights(targets)
    p = ad.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    term = ad.mul(ad.log(p), targets) + ad.mul(ad.log(1.0 - p), 1.0 - targets)
    return ad.tmean(ad.mul(term, -weights))


def subgraph_loss(p_cls: Tensor, p_reg: Tensor, g_c: np.ndarray,
                  lambda1: float = DEFAULT_LAMBDA1) -> Tensor:
    """Balanced cross entropy on 1{g_c > 0.5} plus lambda1 * MSE(p_reg, g_c)."""
    g_c = np.asarray(g_c, dtype=np.float64).reshape(-1)
    if g_c.size == 0:
        raise ContractError("subgraph_loss: empty anchor batch")
    cls_target = (g_c > 0.5).astype(np.float64)
    cls_term = weighted_bce(p_cls, cls_target)
    reg_term = ad.tmean(ad.square(p_reg - g_c))
    return cls_term + lambda1 * reg_term


def node_loss(node_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Sum of the balanced cross entropies of the start and end channels."""
    labels = np.asarray(labels, dtype=np.float64)
    start = weighted_bce(node_probs[:, 0], labels[:, 0])
    end = weighted_bce(node_probs[:, 1], labels[:, 1])
    return start + end


def total_loss(loss_g: Tensor, loss_n: Tensor, weight_term: float) -> Tensor:
    """Multi-task objective: loss_g + loss_n + the weight-decay value, which
    ``training`` computes and differentiates."""
    return loss_g + loss_n + weight_term
