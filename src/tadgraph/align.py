"""Anchor enumeration and fixed-size sub-graph feature extraction.

An anchor is an integer snippet pair ``(t_s, t_e)`` with
``0 < t_s < t_e < L`` and duration below a maximum D. Each anchor's
feature is produced by sampling the snippet sequence on a regular grid
inside the anchor, linearly interpolating, and averaging consecutive runs
of samples down to a fixed resolution: tau1 vectors of the features and
tau2 vectors of their neighbour-smoothed copy (SGAlign). The whole
procedure is linear in the features, so an anchor's feature is a product
of sparse plan rows, whose columns read the features and the smoothed copy
placed side by side. Samples sit at offsets within their anchor, so an
anchor's rows are those of the anchor (0, d) of its duration shifted t_s
columns. The one plan kept per anchor set is therefore a table of the
anchors (0, d), one per duration; the rows of a block of anchors are copied
from it when the block is needed, and a block costs one sparse product over
them. So neither the plan of all anchors nor their aligned features ever
exist at once, and each product's adjoint routes gradients back to every
sampled snippet.
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


def _duration_weight_rows(durations: np.ndarray, tau: int, stride: int):
    """COO triplets of the tau weight rows of each anchor (0, d), d in ``durations``.

    The i-th duration's rows start at row ``i * stride``. Duration d has run
    length s = max(1, floor(d / tau)), so short anchors oversample instead of
    failing, and T = tau * s samples at offsets ``k * d / T``, each below d.
    Row r averages the linear-interpolation weights of samples r * s to
    r * s + s - 1; an integral offset takes weight 1 at its own snippet. Each
    row lists the low snippet of every sample in sample order, then the high
    snippet of every fractional one.
    """
    durations = np.asarray(durations, dtype=np.int64)
    s = np.maximum(1, durations // tau)
    total = tau * s
    owner = np.repeat(np.arange(len(durations)), total)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(total) - total, total)
    offset = k * np.repeat(durations / total, total)
    base = np.floor(offset)
    frac = offset - base
    lo = base.astype(np.int64)
    run = s[owner]
    rows = owner * stride + k // run
    keep_hi = frac > 0
    return (np.concatenate([rows, rows[keep_hi]]), np.concatenate([lo, lo[keep_hi] + 1]),
            np.concatenate([(1.0 - frac) / run, frac[keep_hi] / run[keep_hi]]))


def _anchor_weight_rows(t_s: int, t_e: int, tau: int, length: int):
    """COO triplets of the (tau, length) weight matrix for one anchor.

    The weights depend on the duration only: the rows of (t_s, t_s + d) are
    those of (0, d) shifted t_s columns.
    """
    _checked_anchors((t_s, t_e), length)
    rows, cols, vals = _duration_weight_rows(np.array([t_e - t_s]), tau, tau)
    return rows, cols + t_s, vals


def interp_rescale(features: Tensor | np.ndarray, anchor, tau: int) -> Tensor:
    """Fixed-resolution feature of one anchor: tau averaged vectors, concatenated."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    t_s, t_e = int(anchor[0]), int(anchor[1])
    rows, cols, vals = _anchor_weight_rows(t_s, t_e, tau, x.shape[1])
    weights = sparse.coo_matrix((vals, (rows, cols)), shape=(tau, x.shape[1])).tocsr()
    return ad.resample_columns(x, weights).reshape(tau * x.shape[0])


def _checked_anchors(anchors, length: int) -> np.ndarray:
    """``anchors`` as a (J, 2) int64 array; the first anchor of non-positive duration
    or outside [0, length - 1] raises ``ContractError``."""
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    bad = (anchors[:, 1] <= anchors[:, 0]) | (anchors[:, 0] < 0) | (anchors[:, 1] > length - 1)
    if np.any(bad):
        t_s, t_e = anchors[np.argmax(bad)].tolist()
        if t_e <= t_s:
            raise ContractError(f"anchor ({t_s}, {t_e}) has non-positive duration")
        raise ContractError(f"anchor ({t_s}, {t_e}) outside [0, {length - 1}]")
    return anchors


def build_alignment(anchors: np.ndarray, length: int, tau1: int,
                    tau2: int = 0) -> sparse.csr_matrix:
    """The stacked alignment plan of all anchors, in CSR form.

    Anchor j owns rows ``j * (tau1 + tau2)`` onwards: first the tau1 rows of
    ``_anchor_weight_rows`` at tau1, over columns [0, length), then the tau2
    rows at tau2, shifted to columns [length, 2 * length). So the plan has
    shape (J * (tau1 + tau2), length) when tau2 is 0 and
    (J * (tau1 + tau2), 2 * length) otherwise. The rows of the anchors (0, d),
    d = 1 to the longest duration, are built in one pass per tau into a
    per-duration table, and ``_plan_rows`` copies every anchor's rows from it.
    """
    anchors = _checked_anchors(anchors, length)
    taus = (tau1, tau2) if tau2 > 0 else (tau1,)
    per_anchor, parts = sum(taus), []
    max_d = int((anchors[:, 1] - anchors[:, 0]).max(initial=0))
    for tau, row0, col0 in zip(taus, (0, tau1), (0, length)):
        rows, cols, vals = _duration_weight_rows(np.arange(1, max_d + 1), tau, per_anchor)
        parts.append((rows + row0, cols + col0, vals))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    table = sparse.csr_matrix((vals, (rows, cols)), shape=(max_d * per_anchor, len(taus) * length))
    return _plan_rows(table, anchors, per_anchor)


def _plan_rows(table: sparse.csr_matrix, anchors: np.ndarray,
               per_anchor: int) -> sparse.csr_matrix:
    """The plan rows of ``anchors``, in their order, copied from a per-duration table.

    Rows ``(d - 1) * per_anchor`` to ``d * per_anchor`` of ``table`` are those of the
    anchor (0, d); the anchor (t_s, t_s + d) has them shifted t_s columns, in both
    halves. A run of anchors that share a start and have consecutive durations
    (one run per start of a contiguous range in ``enumerate_anchors`` order) reads
    one contiguous slice of the table, so the copy takes one slice per run.
    """
    shape = (len(anchors) * per_anchor, table.shape[1])
    if len(anchors) == 0:
        return sparse.csr_matrix(shape)
    t_s, dur = anchors[:, 0], anchors[:, 1] - anchors[:, 0]
    first = np.flatnonzero((np.diff(t_s, prepend=-1) != 0) | (np.diff(dur, prepend=-1) != 1))
    stop = np.append(first[1:], len(anchors))
    # run i copies table rows [q0, q1), entries [lo, hi), to entries [end - (hi - lo), end)
    q0, q1 = (dur[first] - 1) * per_anchor, dur[stop - 1] * per_anchor
    lo, hi = table.indptr[q0], table.indptr[q1]
    end = np.cumsum(hi - lo)
    itype = np.int32 if end[-1] < np.iinfo(np.int32).max else np.int64
    # one output array at a time, each temporary freed before the next array: a
    # plan's build peaks near its own three arrays
    indptr = np.zeros(shape[0] + 1, itype)
    np.concatenate([table.indptr[a + 1:b + 1] for a, b in zip(q0.tolist(), q1.tolist())],
                   out=indptr[1:])
    indptr[1:] += np.repeat((end - hi).astype(itype), q1 - q0)
    runs = list(zip(lo.tolist(), hi.tolist()))
    indices = np.concatenate([table.indices[a:b] for a, b in runs]).astype(itype, copy=False)
    indices += np.repeat(t_s[first].astype(itype), hi - lo)
    data = np.concatenate([table.data[a:b] for a, b in runs])
    return sparse.csr_matrix((data, indices, indptr), shape=shape)


def semantic_smooth(features: Tensor, edges: np.ndarray) -> Tensor:
    """Replace each node's feature by the mean of its dynamic neighbors."""
    mean = gather_matrix(edges, features.shape[1], mean=True)
    return ad.transpose(ad.resample_columns(features, mean))


class SubgraphAligner:
    """Alignment operator for a fixed anchor set.

    ``table`` is the plan of ``build_alignment`` for the anchors (0, d), d = 1
    to the set's longest duration: per duration, tau1 temporal rows over the
    features, then tau2 semantic rows over their neighbour-smoothed copy. It
    is the only plan the aligner keeps, (longest duration) * (tau1 + tau2)
    rows, whatever the number of anchors. A call places the features and
    their smoothed copy side by side and returns ``AlignedRows``, which copies
    a block's plan rows from the table when the block is asked for, so a
    consumer reading blocks holds one block's rows and features at a time. A
    subset takes the rows of its own anchors the same way. ``tau2 = 0``
    leaves out the semantic rows and columns (ablation).
    """

    def __init__(self, anchors: np.ndarray, length: int, tau1: int, tau2: int):
        self.anchors = _checked_anchors(anchors, length)
        self.length = length
        self.tau1 = tau1
        self.tau2 = tau2
        longest = int((self.anchors[:, 1] - self.anchors[:, 0]).max(initial=0))
        durations = np.arange(1, longest + 1)
        self.table = build_alignment(np.stack([np.zeros_like(durations), durations], axis=1),
                                     length, tau1, tau2)

    def feature_width(self, channels: int) -> int:
        return (self.tau1 + self.tau2) * channels

    def __call__(self, features: Tensor, edges: np.ndarray,
                 subset: np.ndarray | None = None) -> AlignedRows:
        """Per-anchor rows: temporal part, then the neighbor-smoothed part."""
        if features.shape[1] != self.length:
            raise ContractError(f"aligner built for L={self.length}, features have {features.shape[1]}")
        if self.tau2 > 0:
            if len(np.asarray(edges).reshape(-1, 2)) == 0:
                smoothed = features        # semantic context disabled: fall back to raw
            else:
                smoothed = semantic_smooth(features, edges)
            features = ad.concat([features, smoothed], axis=1)
        anchors = self.anchors if subset is None else self.anchors[subset]
        return AlignedRows(features, self.table, anchors, self.tau1 + self.tau2)


class AlignedRows:
    """The (J, F) aligned anchor features, computed per row range on demand.

    ``rows[lo:hi]`` is the Tensor of anchors lo to hi: their plan rows, copied
    from the per-duration ``table`` by ``_plan_rows``, in one sparse product
    with the source, whose (count * per_anchor, C) result reshapes without a
    copy into (count, per_anchor * C). Each plan row is computed on its own,
    so a row reads the same bits whichever range it is taken in. ``rows[:]``
    is all J.
    """

    def __init__(self, source: Tensor, table: sparse.csr_matrix, anchors: np.ndarray,
                 per_anchor: int):
        self.source = source
        self.table = table
        self.anchors = anchors
        self.per_anchor = per_anchor
        self.shape = (len(anchors), per_anchor * source.shape[0])

    def __getitem__(self, key: slice) -> Tensor:
        lo, hi, step = key.indices(self.shape[0])
        if step != 1:
            raise ContractError(f"aligned rows take a contiguous row range, got step {step}")
        rows = _plan_rows(self.table, self.anchors[lo:hi], self.per_anchor)
        return ad.resample_columns(self.source, rows).reshape(-1, self.shape[1])


def sgalign_forward(features: Tensor, edges: np.ndarray, anchors: np.ndarray,
                    tau1: int, tau2: int) -> Tensor:
    """One-shot alignment of every anchor; rows follow anchor order."""
    aligner = SubgraphAligner(anchors, features.shape[1], tau1, tau2)
    return aligner(features, edges)[:]
