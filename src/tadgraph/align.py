"""Anchor enumeration and fixed-size sub-graph feature extraction.

An anchor is an integer snippet pair ``(t_s, t_e)`` with
``0 < t_s < t_e < L`` and duration below a maximum D. Each anchor's
feature is produced by sampling the snippet sequence on a regular grid
inside the anchor, linearly interpolating, and averaging consecutive runs
of samples down to a fixed resolution: tau1 vectors of the features and
tau2 vectors of their neighbour-smoothed copy (SGAlign). The whole
procedure is linear in the features, and its weights depend on the
duration alone: samples sit at offsets within their anchor, so the rows of
``(t_s, t_s + d)`` are those of ``(0, d)`` moved t_s snippets. The one plan
kept per anchor set is therefore, per tau, the weight rows of the anchors
(0, d), one set per duration (``DurationRows``). A block of anchors' rows is
computed from it when the block is needed, in one of two ways:

- Grid. When every temporal row of a duration is one sample at a multiple
  of 1/tau1 (a duration below 2 * tau1 whose offsets come out exact; at
  tau1 = 32 every duration up to 63 does), its rows are gathered from
  ``_lerp_grid``, which holds the features lerped at every multiple of
  1/tau1 and is built once per call. The gather is exact: the sample's row
  holds the same two weights, and the grid forms the same two products and
  adds them in column order, as a sum over the row's entries does; phase 0
  is the snippet itself. The grid ends in one zero row, which every other
  row gathers before the products below overwrite it, and whose gradient
  the adjoint drops.
- Per duration. Every other row (the semantic rows, and temporal rows that
  average several samples) takes one dense product per anchor: the
  duration's (tau, d + 1) weight rows times the anchor's d + 1 snippets, all
  of a block's anchors of one duration in one batched product. Every anchor
  of a duration runs the same product on its own snippets, so its rows read
  the same bits in whichever block they are computed.

So neither the plan of all anchors nor their aligned features ever exist at
once, and each block's adjoint routes gradients back to every sampled
snippet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .video_graph import gather_edges

# anchors per dense product in the adjoint of the per-duration products; at
# L = 100 and tau2 = 4 their placed weight rows take at most 0.35 MB
ADJOINT_ANCHORS = 64


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


def _summed(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int):
    """The triplets sorted by (row, column) with duplicate entries summed, as a CSR
    matrix holds them. Samples lie at least one snippet apart, so a column takes at
    most two entries of a row and their sum is the same in either order."""
    keys, slot = np.unique(rows * width + cols, return_inverse=True)
    rows, cols = np.divmod(keys, width)
    return rows, cols, np.bincount(slot, weights=vals)


def interp_rescale(features: Tensor | np.ndarray, anchor, tau: int) -> Tensor:
    """Fixed-resolution feature of one anchor: tau averaged vectors, concatenated.

    Each vector sums its weighted snippets in column order, as the row of a CSR
    plan does."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    t_s, t_e = int(anchor[0]), int(anchor[1])
    rows, cols, vals = _summed(*_anchor_weight_rows(t_s, t_e, tau, x.shape[1]), x.shape[1])
    return ad.reshape(ad.transpose(ad.gather_sum(x, cols, rows, vals, tau)), tau * x.shape[0])


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
                    tau2: int = 0) -> AlignmentPlan:
    """The alignment plan of an anchor set: the ``DurationRows`` of tau1, and of tau2
    unless it is 0, for durations 1 to the longest of ``anchors``. Anchor j's
    feature is its tau1 rows over the features, then its tau2 rows over their
    neighbour-smoothed copy. Only the tau1 rows read a grid: a grid of the
    smoothed copy would serve tau2's few durations below 2 * tau2 alone."""
    anchors = _checked_anchors(anchors, length)
    longest = int((anchors[:, 1] - anchors[:, 0]).max(initial=0))
    parts = [DurationRows.build(longest, tau1)]
    if tau2 > 0:
        parts.append(DurationRows.build(longest, tau2, grid=False))
    return AlignmentPlan(parts)


@dataclass
class DurationRows:
    """The tau weight rows of the anchors (0, d), d = 1 to the longest duration.

    ``on_grid[d - 1]`` says that each of duration d's rows is one sample at a
    multiple of 1/tau, whose two weights are those ``_lerp_grid`` uses: row r
    of the anchor (t_s, t_s + d) is its sample at snippet
    ``t_s + (r * d) // tau``, phase ``(r * d) % tau``. Every other duration
    keeps its rows as a dense (tau, longest + 1) matrix over the snippets t_s
    onwards, zero past t_s + d: ``weights[slot[d - 1]]``. ``nnz`` counts the
    nonzero weights of all durations' rows.
    """

    tau: int
    on_grid: np.ndarray
    slot: np.ndarray
    weights: np.ndarray
    nnz: int

    @classmethod
    def build(cls, longest: int, tau: int, grid: bool = True) -> "DurationRows":
        durations = np.arange(1, longest + 1)
        # a run of one sample holds sample k at k * (d / tau), as _duration_weight_rows
        # computes it; the grid has it at snippet (k * d) // tau, phase (k * d) % tau
        k = np.arange(tau)
        offset = k * (durations / tau)[:, None]
        whole, m = np.floor(offset), k * durations[:, None]
        on_grid = grid & (durations < 2 * tau) & np.all(
            (whole == m // tau) & (offset - whole == m % tau / tau), axis=1)
        slot = np.cumsum(~on_grid) - 1
        slot[on_grid] = -1
        off = durations[~on_grid]
        weights = np.zeros((len(off), tau, longest + 1))
        rows, cols, vals = _duration_weight_rows(off, tau, tau)
        np.add.at(weights, (rows // tau, rows % tau, cols), vals)
        # a sample on the grid weighs its low snippet, and its high one past phase 0
        nnz = (np.count_nonzero(weights) + tau * int(on_grid.sum())
               + int(np.count_nonzero(m[on_grid] % tau)))
        return cls(tau, on_grid, slot, weights, nnz)


@dataclass
class AlignmentPlan:
    """One ``DurationRows`` per tau, in feature order."""

    parts: list[DurationRows]

    @property
    def nnz(self) -> int:
        return sum(part.nnz for part in self.parts)


def _lerp_grid(xt: np.ndarray, tau: int) -> np.ndarray:
    """The (tau * S + 1, C) samples of the (S, C) snippet rows ``xt`` at every
    multiple of 1/tau, phase by phase, then one zero row.

    Row ``q * S + i`` is ``(1 - q/tau) * xt[i] + (q/tau) * xt[i + 1]``, the two
    products formed first and then added; row i of phase 0 is ``xt[i]`` itself. No
    sample lies past the last snippet, so its rows at other phases are 0. Row
    ``tau * S`` is the zero row that a row off the grid gathers.
    """
    span, channels = xt.shape
    frac = np.arange(tau) / tau
    grid = np.empty((tau * span + 1, channels))
    phases = grid[:-1].reshape(tau, span, channels)
    phases[0] = xt
    lerp = phases[1:, :-1]
    np.multiply((1.0 - frac[1:])[:, None, None], xt[:-1], out=lerp)
    lerp += frac[1:, None, None] * xt[1:]
    phases[1:, -1] = 0.0
    grid[-1] = 0.0
    return grid


def _lerp_adjoint(g: np.ndarray, index: np.ndarray, tau: int, span: int) -> np.ndarray:
    """The (S, C) adjoint of gathering rows ``index`` (...) of the ``_lerp_grid`` of S
    snippets, for the gathered rows' gradient ``g`` (..., C): the rows of ``g`` sum
    into their grid rows, the zero row's sum is dropped, and the phases fold back
    onto the snippets."""
    channels = g.shape[-1]
    slots = (index.reshape(-1, 1) * channels + np.arange(channels)).reshape(-1)
    g = np.bincount(slots, weights=g.reshape(-1), minlength=(tau * span + 1) * channels)
    g = g[:-channels].reshape(tau, span, channels)
    frac = np.arange(tau) / tau
    gx = np.tensordot(1.0 - frac, g, 1)
    gx[1:] += np.tensordot(frac, g[:, :-1], 1)
    return gx


def semantic_smooth(features: Tensor, edges: np.ndarray) -> Tensor:
    """Replace each node's feature by the mean of its dynamic neighbors."""
    length = features.shape[1]
    return ad.gather_sum(features, *gather_edges(edges, length, mean=True), length)


class SubgraphAligner:
    """Alignment operator for a fixed anchor set.

    ``plan`` is the ``build_alignment`` of the set: per tau, the weight rows of
    the anchors (0, d), d = 1 to the set's longest duration, whatever the number
    of anchors. A call smooths the features over their neighbours and returns
    ``AlignedRows``, which computes a block's rows when the block is asked for,
    so a consumer reading blocks holds one block's rows at a time. A subset
    takes the rows of its own anchors the same way. ``tau2 = 0`` leaves out the
    semantic rows (ablation).
    """

    def __init__(self, anchors: np.ndarray, length: int, tau1: int, tau2: int):
        self.anchors = _checked_anchors(anchors, length)
        self.length = length
        self.tau1 = tau1
        self.tau2 = tau2
        self.plan = build_alignment(self.anchors, length, tau1, tau2)

    def __call__(self, features: Tensor, edges: np.ndarray,
                 subset: np.ndarray | None = None) -> AlignedRows:
        """Per-anchor rows: temporal part, then the neighbor-smoothed part."""
        if features.shape[1] != self.length:
            raise ContractError(f"aligner built for L={self.length}, features have {features.shape[1]}")
        sources = [features]
        if self.tau2 > 0:
            if len(np.asarray(edges).reshape(-1, 2)) == 0:
                sources.append(features)   # semantic context disabled: fall back to raw
            else:
                sources.append(semantic_smooth(features, edges))
        anchors = self.anchors if subset is None else self.anchors[subset]
        return AlignedRows(list(zip(self.plan.parts, sources)), anchors)


class AlignedRows:
    """The (J, F) aligned anchor features, computed per row range on demand.

    ``rows[lo:hi]`` is the Tensor of anchors lo to hi: one node over every tau's
    source, whose (count, per_anchor, C) array reshapes without a copy into
    (count, per_anchor * C). All its rows come in one gather from the
    ``_lerp_grid`` of the features, built once per call: a temporal row on the
    grid from its sample, every other row from the grid's zero row, which the
    per-duration products then overwrite. Each row is computed on its own, so it
    reads the same bits whichever range it is taken in. ``rows[:]`` is all J.
    """

    def __init__(self, parts: list[tuple[DurationRows, Tensor]], anchors: np.ndarray):
        self.anchors = anchors
        durations = anchors[:, 1] - anchors[:, 0]
        self.parts = [_Dense(rows, source, durations) for rows, source in parts]
        self.cuts = np.cumsum([0] + [rows.tau for rows, _ in parts]).tolist()
        self.channels = parts[0][1].shape[0]
        self.shape = (len(anchors), self.cuts[-1] * self.channels)
        temporal = self.parts[0]
        self.grid = _lerp_grid(np.ascontiguousarray(temporal.source.data.T), temporal.rows.tau)

    def __getitem__(self, key: slice) -> Tensor:
        lo, hi, step = key.indices(self.shape[0])
        if step != 1:
            raise ContractError(f"aligned rows take a contiguous row range, got step {step}")
        anchors = self.anchors[lo:hi]
        t_s, dur = anchors[:, 0], anchors[:, 1] - anchors[:, 0]
        count, per_anchor = len(anchors), self.cuts[-1]
        temporal = self.parts[0]
        tau = temporal.rows.tau
        length = temporal.source.shape[1]
        at = np.flatnonzero(temporal.rows.on_grid[dur - 1])
        index = np.full((count, per_anchor), len(self.grid) - 1)
        # row r of the anchor (t_s, t_s + d) is its sample at snippet
        # t_s + (r * d) // tau, phase (r * d) % tau
        offset = np.arange(tau) * dur[at, None]
        index[at, :tau] = offset % tau * length + offset // tau + t_s[at, None]
        out = np.take(self.grid, index, axis=0)
        spans = list(zip(self.parts, self.cuts, self.cuts[1:]))
        dense = [part.fill(out[:, a:b], t_s, dur) for part, a, b in spans]

        def backward(g):
            g = g.reshape(out.shape)
            grads = [part.adjoint(g[:, a:b], t_s, dur, off) if part.source.requires_grad
                     else None for (part, a, b), off in zip(spans, dense)]
            if temporal.source.requires_grad:
                grads[0] += _lerp_adjoint(g, index, tau, length)
            for (part, _, _), grad in zip(spans, grads):
                if grad is not None:
                    part.source._accumulate(grad.T)

        return ad._make(out.reshape(count, self.shape[1]), "align_rows",
                        [part.source for part in self.parts], backward)


class _Dense:
    """One tau's source during a call and its rows off the grid: per duration, one
    product per anchor. ``windows`` views every window of longest + 1 snippets
    (zero past the last one) when any anchor reads such rows; a duration-d
    anchor's snippets are the first d + 1 rows of its window."""

    def __init__(self, rows: DurationRows, source: Tensor, durations: np.ndarray):
        self.rows = rows
        self.source = source
        self.windows = None
        if not rows.on_grid[durations - 1].all():
            channels, length = source.shape
            longest = len(rows.on_grid)
            padded = np.zeros((length + longest, channels))
            padded[:length] = source.data.T
            self.windows = sliding_window_view(padded, longest + 1,
                                               axis=0)[:length].transpose(0, 2, 1)

    def fill(self, dst: np.ndarray, t_s: np.ndarray, dur: np.ndarray) -> np.ndarray:
        """Write the (count, tau, C) rows off the grid of the anchors (t_s, t_s + dur)
        into ``dst``; returns those anchors' positions, which the adjoint reads."""
        at, groups = _by_duration(np.flatnonzero(~self.rows.on_grid[dur - 1]), t_s, dur)
        rows = np.empty((len(at), self.rows.tau, dst.shape[2]))
        for d, a, b, consecutive in groups:
            # one (tau, d + 1) by (d + 1, C) product per anchor, on a view of its
            # snippets when the starts run consecutively and on a copy otherwise: the
            # same product on the same values either way
            windows = (self.windows[t_s[at[a]]:t_s[at[a]] + b - a, :d + 1] if consecutive
                       else self.windows[t_s[at[a:b]], :d + 1])
            np.matmul(self.rows.weights[self.rows.slot[d - 1], :, :d + 1], windows,
                      out=rows[a:b])
        dst[at] = rows
        return at

    def adjoint(self, g: np.ndarray, t_s: np.ndarray, dur: np.ndarray,
                at: np.ndarray) -> np.ndarray:
        """The (L, C) adjoint of ``fill`` for its rows' gradient ``g``: the weight rows
        of its anchors, placed at their starts, transposed, times their gradient
        rows, in one dense product per ``ADJOINT_ANCHORS`` anchors."""
        (channels, length), tau = self.source.shape, self.rows.tau
        width = self.rows.weights.shape[2]
        grad = np.zeros((length + width, channels))
        for lo, hi in ad.row_blocks(len(at), ADJOINT_ANCHORS) if len(at) else ():
            part = at[lo:hi]
            first = int(t_s[part].min())
            span = int(t_s[part].max()) - first + width
            placed = np.zeros((hi - lo) * tau * span)
            cols = ((np.arange(hi - lo)[:, None, None] * tau + np.arange(tau)[:, None]) * span
                    + (t_s[part] - first)[:, None, None] + np.arange(width))
            placed[cols.reshape(-1)] = self.rows.weights[self.rows.slot[dur[part] - 1]].reshape(-1)
            grad[first:first + span] += (placed.reshape(-1, span).T
                                         @ g[part].reshape(-1, channels))
        return grad[:length]


def _by_duration(at: np.ndarray, t_s: np.ndarray, dur: np.ndarray):
    """The positions ``at`` sorted by their duration (stably), and per duration
    ``(d, a, b, consecutive)``: its positions are sorted ones a to b, and
    ``consecutive`` says their starts run one apart."""
    at = at[np.argsort(dur[at], kind="stable")]
    cuts = [0, *(np.flatnonzero(np.diff(dur[at])) + 1).tolist(), len(at)] if len(at) else [0]
    # breaks[i]: how many neighbours before position i are not one start apart
    breaks = np.concatenate([[0], np.cumsum(np.diff(t_s[at]) != 1)]).tolist()
    return at, [(int(dur[at[a]]), a, b, breaks[b - 1] == breaks[a])
                for a, b in zip(cuts, cuts[1:])]


def sgalign_forward(features: Tensor, edges: np.ndarray, anchors: np.ndarray,
                    tau1: int, tau2: int) -> Tensor:
    """One-shot alignment of every anchor; rows follow anchor order."""
    aligner = SubgraphAligner(anchors, features.shape[1], tau1, tau2)
    return aligner(features, edges)[:]
