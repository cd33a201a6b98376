"""Shared test utilities."""

import numpy as np
from scipy import sparse

from tadgraph import autodiff as ad
from tadgraph.errors import ContractError
from tadgraph.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


def relu_margin(loss: ad.Tensor) -> float:
    """Smallest |pre-activation| over every relu in the recorded graph.

    Finite-difference checks are only trustworthy away from relu kinks, so
    tests resample their seed until this margin clears a threshold. An
    ``affine_relu`` node keeps only its clamped output, so its pre-activation
    is recomputed from the (x, w, b) its adjoint holds.
    """
    margin = np.inf
    for node in ad.graph_nodes(loss):
        if node.op == "relu":
            margin = min(margin, float(np.min(np.abs(node._parents[0].data))))
        elif node.op == "affine_relu":
            x, w, b = node._backward.__defaults__
            margin = min(margin, float(np.min(np.abs(x.data @ w.data + b.data))))
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


def adam_step_whole_array(optimizer, lr: float, lambda2: float) -> None:
    """``training.Adam.step`` as whole-array expressions, which build their own
    parameter-sized temporaries; it steps ``optimizer``'s parameters and moments."""
    optimizer.t += 1
    b1c = 1.0 - ADAM_BETA1 ** optimizer.t
    b2c = 1.0 - ADAM_BETA2 ** optimizer.t
    for p, m, v in zip(optimizer.params, optimizer.m, optimizer.v):
        g = (0.0 if p.grad is None else p.grad) + 2.0 * lambda2 * p.data
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


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
            raise ContractError(f"add: shapes {t.shape} and {s.shape} do not match")
        out_data = t.data + s

        def bwd(g, t=t):
            t._accumulate(g)

        return ad._make(out_data, "add", (t,), bwd)
    if a.shape != b.shape:
        raise ContractError(f"add: shapes {a.shape} and {b.shape} do not match")

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
            raise ContractError(f"mul: shapes {t.shape} and {s.shape} do not match")
        out_data = t.data * s

        def bwd(g, t=t, s=s):
            t._accumulate(g * s)

        return ad._make(out_data, "mul", (t,), bwd)
    if a.shape != b.shape:
        raise ContractError(f"mul: shapes {a.shape} and {b.shape} do not match")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return ad._make(a.data * b.data, "mul", (a, b), bwd)


def matmul_own_adjoint(a, b) -> ad.Tensor:
    """``autodiff.matmul`` as its own node, with its own shape check and an adjoint
    that adds a later gradient of ``b`` as one whole product."""
    a, b = ad._wrap(a), ad._wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ContractError(f"matmul: cannot multiply {a.shape} by {b.shape}")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return ad._make(a.data @ b.data, "matmul", (a, b), bwd)


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


def gather_matrix_csr(edges: np.ndarray, length: int, mean: bool = False) -> sparse.csr_matrix:
    """The sparse (L, L) W whose ``W[j, i]`` counts the edges ``(i, j)``, row j divided
    by j's in-degree with ``mean``: ``(W @ x.T).T`` holds, in column j, the sum (mean)
    of node j's neighbour columns, as ``video_graph.gather_edges`` once built it."""
    src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    degree = np.bincount(dst, minlength=length)
    weights = 1.0 / degree[dst] if mean else np.ones(len(src))
    return sparse.csr_matrix((weights, (dst, src)), shape=(length, length))


def anchor_weight_rows_per_anchor(t_s: int, t_e: int, tau: int) -> tuple:
    """``align._anchor_weight_rows`` for one anchor on its own: T = tau * s samples
    at offsets ``k * d / T``, s = max(1, d // tau), the low snippet of every sample,
    then the high snippet of every fractional one."""
    d = t_e - t_s
    s = max(1, d // tau)
    total = tau * s
    offset = np.arange(total) * (d / total)
    base = np.floor(offset)
    frac = offset - base
    lo = t_s + base.astype(np.int64)
    rows = np.repeat(np.arange(tau, dtype=np.int64), s)
    keep_hi = frac > 0
    return (np.concatenate([rows, rows[keep_hi]]), np.concatenate([lo, lo[keep_hi] + 1]),
            np.concatenate([(1.0 - frac) / s, frac[keep_hi] / s]))


def build_alignment_per_duration(anchors: np.ndarray, length: int, tau1: int,
                                 tau2: int = 0) -> sparse.csr_matrix:
    """``align.build_alignment`` with its table of the anchors (0, d) built by one
    ``anchor_weight_rows_per_anchor`` call per duration and tau."""
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1, 2)
    t_s, t_e = anchors[:, 0], anchors[:, 1]
    taus = (tau1, tau2) if tau2 > 0 else (tau1,)
    per_anchor, dur = sum(taus), t_e - t_s
    shape = (len(anchors) * per_anchor, len(taus) * length)
    if len(anchors) == 0:
        return sparse.csr_matrix(shape)
    max_d, parts = int(dur.max()), []
    for d in range(1, max_d + 1):
        for tau, row0, col0 in zip(taus, (0, tau1), (0, length)):
            rows, cols, vals = anchor_weight_rows_per_anchor(0, d, tau)
            parts.append((rows + (d - 1) * per_anchor + row0, cols + col0, vals))
    rows, cols, vals = map(np.concatenate, zip(*parts))
    table = sparse.csr_matrix((vals, (rows, cols)), shape=(max_d * per_anchor, shape[1]))
    first = np.flatnonzero((np.diff(t_s, prepend=-1) != 0) | (np.diff(dur, prepend=-1) != 1))
    stop = np.append(first[1:], len(anchors))
    q0, q1 = (dur[first] - 1) * per_anchor, dur[stop - 1] * per_anchor
    at = np.concatenate([[0], np.cumsum(table.indptr[q1] - table.indptr[q0])])
    itype = np.int32 if at[-1] < np.iinfo(np.int32).max else np.int64
    data, indices = np.empty(at[-1]), np.empty(at[-1], itype)
    indptr = np.zeros(shape[0] + 1, itype)
    for r0, r1, a, b, o, start in zip(first * per_anchor, stop * per_anchor, q0, q1, at,
                                      t_s[first]):
        lo, hi = table.indptr[a], table.indptr[b]
        data[o:o + hi - lo] = table.data[lo:hi]
        indices[o:o + hi - lo] = table.indices[lo:hi] + start
        indptr[r0 + 1:r1 + 1] = table.indptr[a + 1:b + 1] + (o - lo)
    return sparse.csr_matrix((data, indices, indptr), shape=shape)
