"""Anchor enumeration and fixed-size sub-graph feature extraction.

An anchor is an integer snippet pair ``(t_s, t_e)`` with
``0 < t_s < t_e < L`` and duration below a maximum D. Each anchor's
feature is produced by sampling the snippet sequence on a regular grid
inside the anchor, linearly interpolating, and averaging consecutive runs
of samples down to a fixed resolution: tau1 vectors of the features and
tau2 vectors of their neighbour-smoothed copy (SGAlign). Because the whole
procedure is linear in the features, it is precomputed once per anchor set
as one stacked sparse plan, whose columns read the features and the
smoothed copy placed side by side. The plan is applied per row block, on
demand: a block of anchors costs one sparse product over its rows, so the
aligned features of all anchors never exist at once, and each product's
adjoint routes gradients back to every sampled snippet.
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
    t_s, t_e = np.ogrid[:length, :length]
    return np.ascontiguousarray(np.argwhere((0 < t_s) & (t_s < t_e) & (t_e - t_s < max_duration)),
                                dtype=np.int64)


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


def build_alignment(anchors: np.ndarray, length: int, tau1: int,
                    tau2: int = 0) -> sparse.csr_matrix:
    """The stacked alignment plan of all anchors, assembled directly in CSR form.

    Anchor j owns rows ``j * (tau1 + tau2)`` onwards: first the tau1 rows of
    ``_anchor_weight_rows`` at tau1, over columns [0, length), then the tau2
    rows at tau2, shifted to columns [length, 2 * length). So the plan has
    shape (J * (tau1 + tau2), length) when tau2 is 0 and
    (J * (tau1 + tau2), 2 * length) otherwise.
    """
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    t_s, t_e = anchors[:, 0], anchors[:, 1]
    bad = (t_e <= t_s) | (t_s < 0) | (t_e > length - 1)
    if np.any(bad):
        j = int(np.argmax(bad))
        _anchor_sampling(int(t_s[j]), int(t_e[j]), tau1, length)    # raises its ContractError
    taus = np.array((tau1, tau2) if tau2 > 0 else (tau1,))
    # one segment per (anchor, tau), in row order
    seg_tau = np.tile(taus, len(anchors))
    seg_d = np.repeat(t_e - t_s, len(taus))
    runs = np.maximum(1, seg_d // seg_tau)
    totals = seg_tau * runs
    itype = np.int32 if 2 * totals.sum() < np.iinfo(np.int32).max else np.int64
    # one entry per sample position; k counts positions within the sample's segment
    k = (np.arange(totals.sum(), dtype=itype)
         - np.repeat((np.cumsum(totals) - totals).astype(itype), totals))
    idx = np.repeat(np.repeat(t_s, len(taus)), totals) + k * np.repeat(seg_d / totals, totals)
    lo = np.floor(idx)
    frac = idx - lo
    lo = lo.astype(itype)
    # A row averages s samples 1 to 2 snippets apart (or one sample when d < tau),
    # so its weights fill one column range: from its first sample's low neighbour
    # to its last sample's high one, if that has weight. Each column takes at
    # most one low and one high weight, and two floats add to the same sum in
    # either order, so the entries match a sort-and-sum assembly bit for bit.
    per_row = np.repeat(runs, seg_tau)
    last = np.cumsum(per_row) - 1
    first = lo[last - per_row + 1]
    width = lo[last] - first + 1 + (frac[last] > 0)
    indptr = np.concatenate([[0], np.cumsum(width)])
    nnz = int(indptr[-1])
    pos = lo + np.repeat((indptr[:-1] - first).astype(itype), per_row)
    s = np.repeat(runs, totals)
    data = np.zeros(nnz + 1)            # the spare slot takes the last row's zero high weight
    data[pos] = (1.0 - frac) / s
    data[pos + 1] += frac / s           # a zero high weight adds 0.0 to the next row's first
    first += np.repeat(np.tile(np.arange(len(taus)) * length, len(anchors)), seg_tau).astype(itype)
    indices = np.arange(nnz, dtype=itype) - np.repeat((indptr[:-1] - first).astype(itype), width)
    return sparse.csr_matrix((data[:nnz], indices, indptr),
                             shape=(len(per_row), len(taus) * length))


def semantic_smooth(features: Tensor, edges: np.ndarray) -> Tensor:
    """Replace each node's feature by the mean of its dynamic neighbors."""
    mean = gather_matrix(edges, features.shape[1], mean=True)
    return ad.transpose(ad.resample_columns(features, mean))


class SubgraphAligner:
    """Cached alignment operator for a fixed anchor set.

    ``plan`` is the stacked plan of ``build_alignment``: per anchor, tau1
    temporal rows over the features, then tau2 semantic rows over their
    neighbour-smoothed copy. A call places the two side by side and returns
    ``AlignedRows``, which applies the plan per row block when a block is
    asked for, so a consumer reading blocks holds one block's features at a
    time. A subset takes its anchors' rows of the same plan. ``tau2 = 0``
    leaves out the semantic rows and columns (ablation).
    """

    def __init__(self, anchors: np.ndarray, length: int, tau1: int, tau2: int):
        self.anchors = np.asarray(anchors, dtype=np.int64)
        self.length = length
        self.tau1 = tau1
        self.tau2 = tau2
        self.plan = build_alignment(self.anchors, length, tau1, tau2)

    def feature_width(self, channels: int) -> int:
        return (self.tau1 + self.tau2) * channels

    def __call__(self, features: Tensor, edges: np.ndarray,
                 subset: np.ndarray | None = None) -> AlignedRows:
        """Per-anchor rows: temporal part, then the neighbor-smoothed part."""
        if features.shape[1] != self.length:
            raise ContractError(f"aligner built for L={self.length}, features have {features.shape[1]}")
        plan = self.plan
        per_anchor = self.tau1 + self.tau2
        if subset is not None:
            plan = plan[(subset[:, None] * per_anchor + np.arange(per_anchor)).reshape(-1)]
        if self.tau2 > 0:
            if len(np.asarray(edges).reshape(-1, 2)) == 0:
                smoothed = features        # semantic context disabled: fall back to raw
            else:
                smoothed = semantic_smooth(features, edges)
            features = ad.concat([features, smoothed], axis=1)
        return AlignedRows(features, plan, per_anchor)


class AlignedRows:
    """The (J, F) aligned anchor features, computed per row range on demand.

    ``rows[lo:hi]`` is the Tensor of anchors lo to hi: one sparse product of
    the plan's rows ``lo * per_anchor`` to ``hi * per_anchor`` with the
    source, whose (count * per_anchor, C) result reshapes without a copy into
    (count, per_anchor * C). Each plan row is computed on its own, so a row
    reads the same bits whichever range it is taken in. ``rows[:]`` is all J.
    """

    def __init__(self, source: Tensor, plan, per_anchor: int):
        self.source = source
        self.plan = plan
        self.per_anchor = per_anchor
        self.shape = (plan.shape[0] // per_anchor, per_anchor * source.shape[0])

    def __getitem__(self, key: slice) -> Tensor:
        lo, hi, step = key.indices(self.shape[0])
        if step != 1:
            raise ContractError(f"aligned rows take a contiguous row range, got step {step}")
        # the block from slices of the plan's arrays, which scipy copies whole;
        # ``plan[a:b]`` extracts them row by row, 3.5 times slower at L=256
        a, b = lo * self.per_anchor, max(lo, hi) * self.per_anchor
        start, stop = self.plan.indptr[a], self.plan.indptr[b]
        rows = sparse.csr_matrix((self.plan.data[start:stop], self.plan.indices[start:stop],
                                  self.plan.indptr[a:b + 1] - start),
                                 shape=(b - a, self.plan.shape[1]))
        return ad.resample_columns(self.source, rows).reshape(-1, self.shape[1])


def sgalign_forward(features: Tensor, edges: np.ndarray, anchors: np.ndarray,
                    tau1: int, tau2: int) -> Tensor:
    """One-shot alignment of every anchor; rows follow anchor order."""
    aligner = SubgraphAligner(anchors, features.shape[1], tau1, tau2)
    return aligner(features, edges)[:]
