"""Shared test utilities."""

import numpy as np

from tadgraph import autodiff as ad
from tadgraph.errors import ShapeError


def relu_margin(loss: ad.Tensor) -> float:
    """Smallest |pre-activation| over every relu in the recorded graph.

    Finite-difference checks are only trustworthy away from relu kinks, so
    tests resample their seed until this margin clears a threshold.
    """
    margin = np.inf
    for node in ad.graph_nodes(loss):
        if node.op == "relu":
            margin = min(margin, float(np.min(np.abs(node._parents[0].data))))
    return margin


def zero_block(params) -> None:
    """Zero every stream weight of a block (residual-only behaviour)."""
    for name in ("t_in", "t_conv", "t_out", "s_in", "s_self", "s_neigh", "s_out"):
        getattr(params, name).data[...] = 0.0


def expand_grouped_taps(w: np.ndarray, groups: int) -> np.ndarray:
    """Embed grouped (k, C/g, C) taps into dense block-diagonal (k, C, C) taps."""
    k, c_g, c_out = w.shape
    c_in = c_g * groups
    c_out_g = c_out // groups
    dense = np.zeros((k, c_in, c_out))
    for g in range(groups):
        rows = slice(g * c_g, (g + 1) * c_g)
        cols = slice(g * c_out_g, (g + 1) * c_out_g)
        dense[:, rows, cols] = w[:, :, cols]
    return dense


# ---------------------------------------------------------------------------
# reference implementations that the production code must reproduce bit for bit
# ---------------------------------------------------------------------------

def total_loss_over_params(loss_g: ad.Tensor, loss_n: ad.Tensor, params,
                           lambda2: float) -> ad.Tensor:
    """The objective as it was once computed on every window: the loss terms plus
    ``lambda2`` times the squared parameters, summed over ``params`` in order."""
    weight_term = sum(float(np.vdot(p.data, p.data)) for p in params)
    return loss_g + loss_n + lambda2 * weight_term


def zeros_then_add_accumulate(self: ad.Tensor, g: np.ndarray) -> None:
    """``Tensor._accumulate`` with no ownership: the first gradient is a fresh
    zero array that ``g`` is added into, so no handed-over array is kept."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def add_with_constant_branch(a, b) -> ad.Tensor:
    """``autodiff.add`` with a second path for a python-scalar or ndarray operand."""
    if not isinstance(b, ad.Tensor) or not isinstance(a, ad.Tensor):
        t, s = (a, b) if isinstance(a, ad.Tensor) else (b, a)
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 0 and s.shape != t.shape:
            raise ShapeError(f"add: shapes {t.shape} and {s.shape} do not match")
        out_data = t.data + s

        def bwd(g, t=t):
            t._accumulate(g)

        return ad._make(out_data, "add", (t,), bwd)
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not match")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.copy() if a.requires_grad else g)

    return ad._make(a.data + b.data, "add", (a, b), bwd)


def mul_with_constant_branch(a, b) -> ad.Tensor:
    """``autodiff.mul`` with a second path for a python-scalar or ndarray operand."""
    if not isinstance(b, ad.Tensor) or not isinstance(a, ad.Tensor):
        t, s = (a, b) if isinstance(a, ad.Tensor) else (b, a)
        s = np.asarray(s, dtype=np.float64)
        if s.ndim != 0 and s.shape != t.shape:
            raise ShapeError(f"mul: shapes {t.shape} and {s.shape} do not match")
        out_data = t.data * s

        def bwd(g, t=t, s=s):
            t._accumulate(g * s)

        return ad._make(out_data, "mul", (t,), bwd)
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not match")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return ad._make(a.data * b.data, "mul", (a, b), bwd)


def grouped_conv1d_per_group(x: ad.Tensor, w: ad.Tensor, groups: int = 1) -> ad.Tensor:
    """``autodiff.grouped_conv1d`` as one 2-D product per group and tap."""
    c_in, length = x.shape
    k, c_in_g, c_out = w.shape
    pad = (k - 1) // 2
    c_out_g = c_out // groups

    xp = np.zeros((c_in, length + 2 * pad))
    xp[:, pad:pad + length] = x.data
    out = np.zeros((c_out, length))
    for gi in range(groups):
        rows_in = slice(gi * c_in_g, (gi + 1) * c_in_g)
        rows_out = slice(gi * c_out_g, (gi + 1) * c_out_g)
        for t in range(k):
            out[rows_out] += w.data[t, :, rows_out].T @ xp[rows_in, t:t + length]

    def bwd(g):
        gxp = np.zeros_like(xp) if x.requires_grad else None
        gw = np.zeros_like(w.data) if w.requires_grad else None
        for gi in range(groups):
            rows_in = slice(gi * c_in_g, (gi + 1) * c_in_g)
            rows_out = slice(gi * c_out_g, (gi + 1) * c_out_g)
            for t in range(k):
                if gxp is not None:
                    gxp[rows_in, t:t + length] += w.data[t, :, rows_out] @ g[rows_out]
                if gw is not None:
                    gw[t, :, rows_out] += xp[rows_in, t:t + length] @ g[rows_out].T
        if gxp is not None:
            x._accumulate(gxp[:, pad:pad + length])
        if gw is not None:
            w._accumulate(gw)

    return ad._make(out, "grouped_conv1d", (x, w), bwd)


def sample_anchor_subset_setdiff(labels: np.ndarray, count: int,
                                 rng: np.random.Generator) -> np.ndarray | None:
    """``training.sample_anchor_subset`` with the exclusions taken by ``np.setdiff1d``."""
    total = len(labels)
    if not 0 < count < total:
        return None
    near_exact = np.where(labels >= 0.9)[0]
    if len(near_exact) > count // 2:
        near_exact = rng.choice(near_exact, size=count // 2, replace=False)
    positive = np.setdiff1d(np.where(labels > 0.5)[0], near_exact)
    take_pos = min(len(positive), max(0, count // 2 - len(near_exact)))
    chosen_pos = rng.choice(positive, size=take_pos, replace=False) \
        if take_pos else np.zeros(0, dtype=np.int64)
    head = np.concatenate([near_exact, chosen_pos])
    rest = np.setdiff1d(np.arange(total), head)
    chosen_rest = rng.choice(rest, size=min(len(rest), count - len(head)), replace=False)
    return np.sort(np.concatenate([head, chosen_rest]).astype(np.int64))


def knn_semantic_edges_dense(features: np.ndarray, k: int) -> np.ndarray:
    """``video_graph.knn_semantic_edges`` as a full (L, L) distance buffer summed
    channel by channel, then a stable argsort of every column without the node itself."""
    features = np.asarray(features, dtype=np.float64)
    length = features.shape[1]
    d2 = np.zeros((length, length))
    for row in features:
        d2 += np.subtract.outer(row, row) ** 2
    order = np.argsort(d2, axis=0, kind="stable").T             # (L, L): node, nearest first
    others = order[order != np.arange(length)[:, None]].reshape(length, length - 1)
    return np.stack([others[:, :k].reshape(-1), np.repeat(np.arange(length), k)], axis=1)
