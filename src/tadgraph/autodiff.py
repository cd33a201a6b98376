"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Values are float64 numpy arrays. Every operation that participates in
gradient computation records the parents that require grad and a closure
that propagates the incoming adjoint, so the graph holds only tensors that
need a gradient: inputs and constants are never nodes. ``backward`` replays
those closures in reverse topological order, visiting each node once and
then freeing its gradient; only leaves keep ``Tensor.grad``, which
accumulates until ``zero_grad``.

Each adjoint hands ``_accumulate`` an array that nothing else reads or
writes (fresh, or a view of its node's gradient, which ``backward`` frees
next), and the receiver keeps it; ``add`` copies for its second operand.
``_dense`` hands its right operand ``w`` its first gradient the same way and
adds each later one into ``w.grad`` in place, over ``row_blocks`` of about
``GRAD_BLOCK_BYTES`` each, so no weight-sized product is built; the sum is
bit-identical to adding the whole product unless a one-column ``w`` (a gemv,
which rounds by where a block starts) is cut.

A one-operand op records through ``_unary``, whose adjoint hands ``adjoint(g)``
to the operand. ``add`` and ``mul`` take a tensor, scalar or ndarray on either
side through one path; shapes must match, but an operand that needs no gradient
may be 0-d. Every dense product is one ``_dense`` node with one adjoint:
``matmul`` is the case without a bias, ``affine`` adds the bias into the
product's own array, and ``affine_relu`` also clamps that array in place.
``concat``, ``tslice`` and ``grouped_conv1d`` keep their own records, and
``align`` records each block of aligned anchor rows as one ``_make`` node.
``gather_sum``, the sum of columns over an entry list, is one bincount each way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, ContractError

_grad_enabled = True

# bytes of one row block of a weight gradient that a dense product's adjoint adds in place
GRAD_BLOCK_BYTES = 1 << 21


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional record of how it was computed."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, op: str = "",
                 parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = parents
        self._backward = backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op or 'leaf'}, requires_grad={self.requires_grad})"

    # -- gradient bookkeeping ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Keep ``g``, which nothing else may read or write, as the first gradient and
        add later ones into it in place. A view that is not C-contiguous is copied, so
        each adjoint reduces over the layout a fresh array has."""
        if self.grad is None:
            self.grad = np.asarray(g, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) into every reachable ``grad``.

        ``self`` must be a scalar (one element). Intermediate ``grad``s are freed
        as their nodes run; repeated calls accumulate into leaves until ``zero_grad``.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        order = graph_nodes(self)
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(-self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, key):
        return tslice(self, key)


def uniform_param(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Trainable leaf drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def new_param(rng: np.random.Generator | None, shape, fan_in: int) -> Tensor:
    """A trainable leaf of ``shape``: drawn by ``uniform_param``, or with no ``rng``
    allocated unfilled, for a checkpoint to fill."""
    if rng is None:
        return Tensor(np.empty(shape), requires_grad=True)
    return uniform_param(rng, shape, fan_in)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data, op: str, parents: Sequence[Tensor], backward: Callable) -> Tensor:
    """Record a node whose parents are those that require grad; with none (or
    under ``no_grad``) return a constant. Inputs and constants are never graph
    nodes, so ``add`` and ``mul`` take a constant operand, which may be 0-d,
    through their one path, and a one-operand adjoint need not check its operand."""
    parents = tuple(p for p in parents if p.requires_grad) if _grad_enabled else ()
    if parents:
        return Tensor(data, requires_grad=True, op=op, parents=parents, backward=backward)
    return Tensor(data)


def graph_nodes(root: Tensor) -> list[Tensor]:
    """Topological order of the graph below ``root`` (parents first)."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def zero_grad(params: Iterable[Tensor]) -> None:
    """Explicit gradient reset; accumulation continues until this is called."""
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# elementwise and reduction operations
# ---------------------------------------------------------------------------

def _operands(a, b, opname: str) -> tuple[Tensor, Tensor]:
    """Wrap both operands; their shapes must match, except that an operand that
    needs no gradient may be 0-d."""
    a, b = _wrap(a), _wrap(b)
    if a.shape != b.shape and not any(t.data.ndim == 0 and not t.requires_grad for t in (a, b)):
        raise ContractError(f"{opname}: shapes {a.shape} and {b.shape} do not match")
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands(a, b, "add")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.copy() if a.requires_grad else g)

    return _make(a.data + b.data, "add", (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product; either operand may be a python scalar or ndarray."""
    a, b = _operands(a, b, "mul")

    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return _make(a.data * b.data, "mul", (a, b), bwd)


def _unary(x: Tensor, value, op: str, adjoint: Callable) -> Tensor:
    """The node ``op`` of ``value``; its adjoint hands ``adjoint(g)`` to ``x``."""
    def bwd(g, x=x):
        x._accumulate(adjoint(g))

    return _make(value, op, (x,), bwd)


def square(x: Tensor) -> Tensor:
    return _unary(x, x.data * x.data, "square", lambda g: g * (2.0 * x.data))


def relu(x: Tensor) -> Tensor:
    """``max(x, 0)``; NaN propagates. The adjoint passes gradient where x > 0
    and builds that mask only when it runs."""
    return _unary(x, np.maximum(x.data, 0.0), "relu", lambda g: g * (x.data > 0))


def sigmoid(x: Tensor) -> Tensor:
    """``1 / (1 + exp(-x))``. Below about -709, ``exp(-x)`` overflows to inf, silently,
    and the value is 0; NaN stays NaN."""
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))
    return _unary(x, s, "sigmoid", lambda g: g * s * (1.0 - s))


def log(x: Tensor) -> Tensor:
    return _unary(x, np.log(x.data), "log", lambda g: g / x.data)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through the strict interior."""
    return _unary(x, np.clip(x.data, lo, hi), "clip",
                  lambda g: g * ((x.data > lo) & (x.data < hi)))


def tsum(x: Tensor) -> Tensor:
    return _unary(x, x.data.sum(), "sum", lambda g: np.full_like(x.data, g.reshape(())))


def tmean(x: Tensor) -> Tensor:
    """The mean of every element, as a 0-d tensor."""
    return _unary(x, x.data.mean(), "mean",
                  lambda g: np.full_like(x.data, g.reshape(()) / x.data.size))


# ---------------------------------------------------------------------------
# linear algebra and shaping
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` for an (m, k) a and (k, n) b: a dense layer without a bias."""
    return _dense(_wrap(a), _wrap(b), None, "matmul")


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for an (m, k) x, (k, n) w and length-n bias b, as one
    node: the bias is added into the product's array in place."""
    return _dense(x, w, b, "affine")


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``relu(affine(x, w, b))`` as one node, bit for bit: the product's array
    is clamped in place. The output is positive exactly where ``x @ w + b`` is
    (a NaN stays NaN), so the adjoint masks by the output's sign."""
    return _dense(x, w, b, "affine_relu")


def row_blocks(n: int, rows: int) -> list[tuple[int, int]]:
    """The one cut of ``n`` rows into consecutive (lo, hi) blocks, for any op that
    computes a product block by block. Each block but the last has ``max(rows, 2)``
    rows, and a one-row tail joins the block before it, so no block has one row
    unless ``n`` is 1: numpy takes a one-row product through gemv, which may sum
    in another order than the gemm of the rows around it. ``n`` = 0 gives the one
    empty block (0, 0)."""
    cuts = [*range(0, max(n - 1, 1), max(rows, 2)), n]
    return list(zip(cuts, cuts[1:]))


def _dense(x: Tensor, w: Tensor, b: Tensor | None, op: str) -> Tensor:
    """``x @ w``, plus ``b`` unless it is None, as one node of parents (x, w[, b])."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b is not None and (b.data.ndim != 1 or w.shape[1] != b.shape[0])):
        bias = "" if b is None else f" plus bias {b.shape}"
        raise ContractError(f"{op}: cannot map {x.shape} through {w.shape}{bias}")
    out = x.data @ w.data
    if b is not None:
        out += b.data
    if op == "affine_relu":
        np.maximum(out, 0.0, out=out)

    def bwd(g, x=x, w=w, b=b):
        if op == "affine_relu":
            g = g * (out > 0)
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            if w.grad is None:
                w._accumulate(x.data.T @ g)
            else:
                rows = GRAD_BLOCK_BYTES // max(1, g.shape[1] * g.itemsize)
                for lo, hi in row_blocks(w.shape[0], rows):
                    w.grad[lo:hi] += x.data[:, lo:hi].T @ g
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _make(out, op, (x, w) if b is None else (x, w, b), bwd)


def transpose(x: Tensor) -> Tensor:
    return _unary(x, x.data.T, "transpose", lambda g: g.T)


def reshape(x: Tensor, shape) -> Tensor:
    return _unary(x, x.data.reshape(shape), "reshape", lambda g: g.reshape(x.data.shape))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """The tensors joined along ``axis``; a single tensor is returned as it is."""
    tensors = [_wrap(t) for t in tensors]
    ndim = tensors[0].data.ndim
    if not (-ndim <= axis < ndim):
        raise ContractError(f"concat: axis {axis} invalid for ndim {ndim}")
    if len(tensors) == 1:
        return tensors[0]
    cuts = np.cumsum([t.data.shape[axis] for t in tensors[:-1]])

    def bwd(g, tensors=tensors, cuts=cuts, axis=axis):
        for t, part in zip(tensors, np.split(g, cuts, axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 "concat", tuple(tensors), bwd)


def tslice(x: Tensor, key) -> Tensor:
    """``x.data[key]``: a view for basic slices, so taking rows copies none.
    The adjoint adds into the selected entries only; an entry that an index
    array selects twice receives the gradient twice."""

    def bwd(g, x=x, key=key):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        np.add.at(x.grad, key, g)

    return _make(x.data[key], "slice", (x,), bwd)


def gather_sum(x: Tensor, src: np.ndarray, dst: np.ndarray, weights: np.ndarray,
               width: int) -> Tensor:
    """The (C, width) tensor whose column j sums ``weights[e] * x[:, src[e]]`` over the
    entries e with ``dst[e] == j``, added one by one in entry order.

    The adjoint adds ``weights[e] * g[:, dst[e]]`` into column ``src[e]``, in entry
    order too. With entries sorted by (dst, src) both orders are those of a CSR
    matrix with rows ``dst`` and its transpose, so the sums match its products bit
    for bit.
    """
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    if x.data.ndim != 2 or len(src) and (src.min() < 0 or src.max() >= x.shape[1]
                                         or dst.min() < 0 or dst.max() >= width):
        raise ContractError(f"gather_sum: entries outside {x.shape} -> {width} columns")
    lane = np.arange(x.shape[0])[:, None]

    def spread(values, at, columns):
        # one bincount over (channel, column) slots: each slot sums its entries in order
        out = np.bincount((lane * columns + at).reshape(-1), weights=values.reshape(-1),
                          minlength=x.shape[0] * columns)
        return out.astype(np.float64, copy=False).reshape(x.shape[0], columns)

    return _unary(x, spread(x.data[:, src] * weights, dst, width), "gather_sum",
                  lambda g: spread(g[:, dst] * weights, src, x.shape[1]))


# ---------------------------------------------------------------------------
# grouped 1-D convolution over the temporal axis
# ---------------------------------------------------------------------------

def grouped_conv1d(x: Tensor, w: Tensor, groups: int = 1) -> Tensor:
    """Per-group cross-correlation of an (C_in, L) signal with (k, C_in/g, C_out) taps.

    Zero padding of ``(k - 1) // 2`` on both ends preserves L. Output
    channel block j of group i sees only input channel block i, matching
    the usual grouped-convolution wiring.
    """
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ContractError(f"grouped_conv1d: expected (C,L) and (k,C_in/g,C_out), got {x.shape}, {w.shape}")
    c_in, length = x.shape
    k, c_in_g, c_out = w.shape
    if k % 2 != 1:
        raise ConfigError(f"grouped_conv1d: kernel size {k} must be odd")
    if c_in % groups != 0 or c_out % groups != 0:
        raise ConfigError(f"grouped_conv1d: channels ({c_in} in, {c_out} out) not divisible by {groups} groups")
    if c_in // groups != c_in_g:
        raise ContractError(f"grouped_conv1d: weight expects {c_in_g} channels/group, input provides {c_in // groups}")
    pad = (k - 1) // 2
    c_out_g = c_out // groups

    # one batched product per tap; each group's 2-D block keeps the strides of
    # a per-group slice, so it takes the same BLAS path and summation order
    xp = np.zeros((c_in, length + 2 * pad))
    xp[:, pad:pad + length] = x.data
    xg = xp.reshape(groups, c_in_g, -1)
    wg = w.data.reshape(k, c_in_g, groups, c_out_g).transpose(0, 2, 1, 3)
    out = np.zeros((groups, c_out_g, length))
    for t in range(k):
        out += wg[t].transpose(0, 2, 1) @ xg[:, :, t:t + length]

    def bwd(g):
        gg = g.reshape(groups, c_out_g, length)
        if x.requires_grad:
            gxg = np.zeros_like(xg)
            for t in range(k):
                gxg[:, :, t:t + length] += wg[t] @ gg
            x._accumulate(gxg.reshape(c_in, -1)[:, pad:pad + length])
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            gwg = gw.reshape(k, c_in_g, groups, c_out_g).transpose(0, 2, 1, 3)
            for t in range(k):
                gwg[t] += xg[:, :, t:t + length] @ gg.transpose(0, 2, 1)
            w._accumulate(gw)

    return _make(out.reshape(c_out, length), "grouped_conv1d", (x, w), bwd)


# ---------------------------------------------------------------------------
# finite-difference audit
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Tensor | Sequence[Tensor],
               h: float = 1e-4) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    Returns the maximum over all parameter coordinates of
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    if isinstance(params, Tensor):
        params = [params]
    zero_grad(params)
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                fp = f().item()
            flat[i] = orig - h
            with no_grad():
                fm = f().item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    zero_grad(params)
    return worst
