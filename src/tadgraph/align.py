"""Anchor enumeration and fixed-size sub-graph feature extraction.

An anchor is an integer snippet pair ``(t_s, t_e)`` with
``0 < t_s < t_e < L`` and duration below a maximum D. Each anchor's
feature is produced by sampling the snippet sequence on a regular grid
inside the anchor, linearly interpolating, and averaging consecutive runs
of samples down to a fixed resolution. Because the whole procedure is
linear in the features it is precomputed once per (anchor set, resolution)
as a sparse row-weight matrix; applying it is a single sparse product and
its adjoint routes gradients back to every sampled snippet.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .video_graph import gather_matrix


def enumerate_anchors(length: int, max_duration: int) -> np.ndarray:
    """All (t_s, t_e) with 0 < t_s < t_e < length and t_e - t_s < max_duration.

    Lexicographic (t_s, t_e) order; may be empty for degenerate inputs.
    """
    anchors = [(ts, te)
               for ts in range(1, length - 1)
               for te in range(ts + 1, min(length, ts + max_duration))]
    return np.asarray(anchors, dtype=np.int64).reshape(-1, 2)


def _anchor_sampling(t_s: int, t_e: int, tau: int, length: int):
    """Sample positions and averaging run length for one anchor.

    Duration d = t_e - t_s; run length s = max(1, floor(d / tau)) so short
    anchors oversample instead of failing; T = tau * s positions at
    ``t_s + k * d / T``, clamped into [0, length - 1].
    """
    d = t_e - t_s
    if d <= 0:
        raise ContractError(f"anchor ({t_s}, {t_e}) has non-positive duration")
    if t_s < 0 or t_e > length - 1:
        raise ContractError(f"anchor ({t_s}, {t_e}) outside [0, {length - 1}]")
    s = max(1, d // tau)
    total = tau * s
    idx = t_s + np.arange(total) * (d / total)
    return np.clip(idx, 0.0, length - 1.0), s


def _anchor_weight_rows(t_s: int, t_e: int, tau: int, length: int):
    """COO triplets of the (tau, length) weight matrix for one anchor.

    Row k holds the averaged linear-interpolation weights of output vector
    k; integral sample positions take weight 1 at their own snippet.
    """
    idx, s = _anchor_sampling(t_s, t_e, tau, length)
    lo = np.floor(idx).astype(np.int64)
    hi = np.minimum(lo + 1, length - 1)
    frac = idx - lo
    rows = np.repeat(np.arange(tau, dtype=np.int64), s)
    w_lo = (1.0 - frac) / s
    w_hi = frac / s
    keep_hi = frac > 0
    out_rows = np.concatenate([rows, rows[keep_hi]])
    out_cols = np.concatenate([lo, hi[keep_hi]])
    out_vals = np.concatenate([w_lo, w_hi[keep_hi]])
    return out_rows, out_cols, out_vals


def interp_rescale(features: Tensor | np.ndarray, anchor, tau: int) -> Tensor:
    """Fixed-resolution feature of one anchor: tau averaged vectors, concatenated."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    t_s, t_e = int(anchor[0]), int(anchor[1])
    rows, cols, vals = _anchor_weight_rows(t_s, t_e, tau, x.shape[1])
    weights = sparse.coo_matrix((vals, (rows, cols)), shape=(tau, x.shape[1])).tocsr()
    return ad.resample_columns(x, weights).reshape(tau * x.shape[0])


def build_alignment(anchors: np.ndarray, length: int, tau: int) -> sparse.csr_matrix:
    """Stacked (J * tau, length) weight matrix: ``_anchor_weight_rows`` of all anchors at once."""
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    t_s, t_e = anchors[:, 0], anchors[:, 1]
    bad = (t_e <= t_s) | (t_s < 0) | (t_e > length - 1)
    if np.any(bad):
        j = int(np.argmax(bad))
        _anchor_sampling(int(t_s[j]), int(t_e[j]), tau, length)    # raises its ContractError
    d = t_e - t_s
    runs = np.maximum(1, d // tau)
    totals = tau * runs
    # one entry per sample position; k counts positions within the sample's anchor
    owner = np.repeat(np.arange(len(anchors)), totals)
    k = np.arange(totals.sum()) - np.repeat(np.cumsum(totals) - totals, totals)
    s = runs[owner]
    idx = t_s[owner] + k * (d / totals)[owner]      # in [t_s, t_e): no clamping needed
    lo = np.floor(idx).astype(np.int64)
    frac = idx - lo
    rows = owner * tau + k // s
    keep_hi = frac > 0
    return sparse.coo_matrix(
        (np.concatenate([(1.0 - frac) / s, frac[keep_hi] / s[keep_hi]]),
         (np.concatenate([rows, rows[keep_hi]]), np.concatenate([lo, lo[keep_hi] + 1]))),
        shape=(len(anchors) * tau, length)).tocsr()


def semantic_smooth(features: Tensor, edges: np.ndarray) -> Tensor:
    """Replace each node's feature by the mean of its dynamic neighbors."""
    mean = gather_matrix(edges, features.shape[1], mean=True)
    return ad.transpose(ad.resample_columns(features, mean))


class SubgraphAligner:
    """Cached alignment operator for a fixed anchor set.

    Precomputes the temporal and semantic sparse weight stacks; applying
    them per window is then two sparse products. ``tau2 = 0`` disables the
    semantic concatenation (ablation).
    """

    def __init__(self, anchors: np.ndarray, length: int, tau1: int, tau2: int):
        self.anchors = np.asarray(anchors, dtype=np.int64)
        self.length = length
        self.tau1 = tau1
        self.tau2 = tau2
        self.plan1 = build_alignment(self.anchors, length, tau1)
        self.plan2 = build_alignment(self.anchors, length, tau2) if tau2 > 0 else None

    def feature_width(self, channels: int) -> int:
        return (self.tau1 + self.tau2) * channels

    def _apply(self, plan: sparse.csr_matrix, tau: int, features: Tensor,
               subset: np.ndarray | None) -> Tensor:
        if subset is not None:
            rows = (subset[:, None] * tau + np.arange(tau)).reshape(-1)
            plan = plan[rows]
            count = len(subset)
        else:
            count = len(self.anchors)
        out = ad.resample_columns(features, plan)          # (count * tau, C)
        return out.reshape(count, tau * features.shape[0])

    def __call__(self, features: Tensor, edges: np.ndarray,
                 subset: np.ndarray | None = None) -> Tensor:
        """Per-anchor rows: temporal part, then the neighbor-smoothed part."""
        if features.shape[1] != self.length:
            raise ContractError(f"aligner built for L={self.length}, features have {features.shape[1]}")
        temporal = self._apply(self.plan1, self.tau1, features, subset)
        if self.plan2 is None:
            return temporal
        if len(np.asarray(edges).reshape(-1, 2)) == 0:
            smoothed = features        # semantic context disabled: fall back to raw
        else:
            smoothed = semantic_smooth(features, edges)
        semantic = self._apply(self.plan2, self.tau2, smoothed, subset)
        return ad.concat([temporal, semantic], axis=1)


def sgalign_forward(features: Tensor, edges: np.ndarray, anchors: np.ndarray,
                    tau1: int, tau2: int) -> Tensor:
    """One-shot alignment of every anchor; rows follow anchor order."""
    aligner = SubgraphAligner(anchors, features.shape[1], tau1, tau2)
    return aligner(features, edges)
