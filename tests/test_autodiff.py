"""Tensor engine: forward semantics, backward rules, finite-difference audit."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import (add_with_constant_branch, grouped_conv1d_per_group, matmul_own_adjoint,
                     mul_with_constant_branch, relu_margin, zeros_then_add_accumulate)
from hypothesis import example, given
from hypothesis import strategies as st

from tadgraph import autodiff as ad
from tadgraph.autodiff import Tensor
from tadgraph.data import SynthConfig, load_dataset, prepare_windows, synth_dataset
from tadgraph.errors import ContractError
from tadgraph.training import Adam, TrainConfig, build_examples, init_params, train_epoch


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_hand_product():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    err = ad.grad_check(lambda: ad.tsum(ad.matmul(a, b)), [a, b])
    assert err < 1e-3


def _matmul_run(m, k, n, kinds, block_rows, seed):
    """The op name and value of ``ad.matmul`` (whichever is installed) and the
    gradients of its operands of ``kinds``; a right operand of kind "kept" already
    holds a gradient, which its adjoint adds into over blocks of ``block_rows`` rows.
    A one-column gradient is a gemv, whose rows may round by where a block starts,
    so it keeps the default block size: one block for every weight drawn here."""
    rng = np.random.default_rng(seed)
    a, b = (Tensor(rng.normal(size=shape), requires_grad=kind != "const")
            for kind, shape in zip(kinds, ((m, k), (k, n))))
    if kinds[1] == "kept":
        b.grad = rng.normal(size=(k, n))
    upstream = rng.normal(size=(m, n))
    with pytest.MonkeyPatch.context() as patch:
        if n > 1:
            patch.setattr(ad, "GRAD_BLOCK_BYTES", block_rows * n * 8)
        out = ad.matmul(a, b)
        assert [p for p in (a, b) if p.requires_grad] == list(out._parents)
        if out.requires_grad:
            ad.tsum(ad.mul(out, upstream)).backward()
    return out.op, [out.data, a.grad, b.grad]


@given(m=st.integers(1, 6), k=st.integers(1, 9), n=st.integers(1, 5),
       kinds=st.sampled_from([("grad", "grad"), ("grad", "kept"), ("const", "kept"),
                              ("const", "grad"), ("grad", "const"), ("const", "const")]),
       block_rows=st.sampled_from([1, 2, 3, 1 << 18]), seed=st.integers(0, 2**16))
@example(m=4, k=7, n=3, kinds=("grad", "kept"), block_rows=2, seed=0)
@example(m=1, k=5, n=2, kinds=("const", "kept"), block_rows=2, seed=0)
@example(m=2, k=4, n=1, kinds=("grad", "kept"), block_rows=1, seed=1)
def test_matmul_equals_its_own_adjoint_version_bit_for_bit(m, k, n, kinds, block_rows, seed):
    got_op, got = _matmul_run(m, k, n, kinds, block_rows, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "matmul", matmul_own_adjoint)
        want_op, want = _matmul_run(m, k, n, kinds, block_rows, seed)
    assert got_op == want_op
    for name, g, w in zip(("out", "a", "b"), got, want):
        assert (g is None) == (w is None), name
        assert g is None or (g.shape == w.shape and g.tobytes() == w.tobytes()), name


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_keeps_nan_and_passes_no_gradient_at_or_below_zero():
    x = Tensor([np.nan, -2.0, 0.0, -0.0, 3.0], requires_grad=True)
    out = ad.relu(x)
    np.testing.assert_array_equal(out.data, [np.nan, 0.0, 0.0, 0.0, 3.0])
    ad.tsum(ad.mul(out, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_affine_is_product_plus_bias_in_one_node():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = ad.affine(x, Tensor([[1.0], [1.0]]), Tensor([0.5]))
    np.testing.assert_array_equal(out.data, [[3.5], [7.5]])
    assert [n.op for n in ad.graph_nodes(out) if n.op] == ["affine"]


@pytest.mark.parametrize("w_shape, b_shape", [((3, 2), (2,)), ((2, 2), (3,)), ((2, 2), (2, 1))],
                         ids=["w_rows", "b_length", "b_rank"])
def test_affine_shape_error_names_all_shapes(w_shape, b_shape):
    with pytest.raises(ContractError, match=r"affine: .*\(4, 2\).*" + re.escape(str(w_shape))):
        ad.affine(Tensor(np.zeros((4, 2))), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def test_affine_relu_shape_error_names_its_op():
    with pytest.raises(ContractError, match=r"affine_relu: .*\(4, 2\).*\(3, 2\)"):
        ad.affine_relu(Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))


def test_affine_relu_is_one_node():
    x = Tensor([[1.0, 2.0], [3.0, -4.0]], requires_grad=True)
    out = ad.affine_relu(x, Tensor([[1.0], [1.0]]), Tensor([0.5]))
    np.testing.assert_array_equal(out.data, [[3.5], [0.0]])
    assert [n.op for n in ad.graph_nodes(out) if n.op] == ["affine_relu"]


@pytest.mark.parametrize("seed", range(6))
def test_affine_relu_equals_relu_of_affine_bit_for_bit(seed):
    # small integers make many pre-activations exactly 0; a NaN in x makes its
    # row NaN, which relu keeps
    rng = np.random.default_rng(seed)
    x, w, b = (rng.integers(-2, 3, size=shape).astype(float) for shape in ((7, 4), (4, 5), (5,)))
    x[0, 1] = np.nan
    upstream = rng.normal(size=(7, 5))
    results = []
    for layer in (ad.affine_relu, lambda *t: ad.relu(ad.affine(*t))):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in (x, w, b)]
        out = layer(*tensors)
        ad.tsum(ad.mul(out, upstream)).backward()
        results.append([out.data] + [t.grad for t in tensors])
    pre = x @ w + b
    assert np.isnan(pre).any() and (pre == 0).any() and (pre < 0).any() and (pre > 0).any()
    for name, fused, composed in zip(("out", "x", "w", "b"), *results):
        assert fused.shape == composed.shape and fused.tobytes() == composed.tobytes(), name


def test_grad_check_affine_relu_away_from_kink():
    # pre-activations [[0.8, -5.2, 2.6], [1.55, 5.3, -2.65]]: none within 1e-4 of 0
    x = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    w = Tensor([[1.0, -1.0, 0.5], [0.25, 2.0, -1.0]], requires_grad=True)
    b = Tensor([0.3, -0.2, 0.1], requires_grad=True)
    assert ad.grad_check(lambda: ad.tsum(ad.square(ad.affine_relu(x, w, b))), [x, w, b]) < 1e-6


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)


def test_sigmoid_saturates_without_warning_and_keeps_nan():
    # exp(1000) overflows to inf, which gives exactly 0; a NaN input stays NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad.sigmoid(Tensor([-1000.0, 1000.0, np.nan, -np.inf, np.inf])).data
    np.testing.assert_array_equal(out[[0, 1, 3, 4]], [0.0, 1.0, 0.0, 1.0])
    assert np.isnan(out[2])


def test_sigmoid_matches_its_formula_and_gradient():
    x = np.linspace(-40.0, 40.0, 801)
    np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))
    t = Tensor(x, requires_grad=True)
    ad.tsum(ad.sigmoid(t)).backward()
    s = 1.0 / (1.0 + np.exp(-x))
    np.testing.assert_array_equal(t.grad, s * (1.0 - s))


def test_gather_sum_adds_entries_in_order():
    # column j sums weight * x[:, src] over the entries with dst == j, in entry order;
    # the adjoint adds weight * g[:, dst] into column src in entry order too
    x = Tensor(np.array([[1.0, 1e16, -1e16]]), requires_grad=True)
    src, dst = np.array([1, 2, 0, 0]), np.array([0, 0, 0, 1])
    weights = np.ones(4)
    out = ad.gather_sum(x, src, dst, weights, 3)
    np.testing.assert_array_equal(out.data, [[1.0, 1.0, 0.0]])    # (1e16 - 1e16) + 1
    ad.tsum(ad.mul(out, np.array([[2.0, 3.0, 5.0]]))).backward()
    np.testing.assert_array_equal(x.grad, [[5.0, 2.0, 2.0]])


def test_gather_sum_refuses_entries_outside_its_shapes():
    x = Tensor(np.zeros((2, 3)))
    for src, dst in (([3], [0]), ([0], [4]), ([-1], [0])):
        with pytest.raises(ContractError, match="gather_sum"):
            ad.gather_sum(x, np.array(src), np.array(dst), np.ones(1), 4)


def test_mean_of_constant_is_constant():
    out = ad.tmean(Tensor(np.full((3, 5), 2.5)))
    np.testing.assert_allclose(out.data, 2.5)
    assert out.shape == ()


def test_add_requires_matched_shapes():
    with pytest.raises(ContractError):
        ad.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))


def test_backward_sum_gives_ones():
    theta = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.tsum(theta).backward()
    np.testing.assert_array_equal(theta.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_two_theta():
    theta = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
    ad.tsum(ad.square(theta)).backward()
    np.testing.assert_allclose(theta.grad, 2.0 * theta.data)


def test_backward_requires_scalar():
    theta = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        ad.square(theta).backward()


def test_backward_accumulates_until_reset():
    theta = Tensor(np.ones(4), requires_grad=True)
    ad.tsum(theta).backward()
    ad.tsum(theta).backward()
    np.testing.assert_array_equal(theta.grad, 2.0 * np.ones(4))
    ad.zero_grad([theta])
    assert theta.grad is None


def test_second_backward_on_one_graph_counts_once():
    # the first call must not leave intermediate gradients to be propagated again
    w = Tensor(np.array([2.0]), requires_grad=True)
    h = ad.mul(w, 3.0)
    loss = ad.tsum(ad.square(h))
    loss.backward()
    np.testing.assert_array_equal(w.grad, [36.0])
    assert h.grad is None
    loss.backward()
    np.testing.assert_array_equal(w.grad, [72.0])


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(3, 2, 4))

    def run():
        return ad.grouped_conv1d(Tensor(x), Tensor(w), groups=2).data

    np.testing.assert_array_equal(run(), run())


def test_no_grad_blocks_recording():
    theta = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = ad.tsum(ad.square(theta))
    assert not out.requires_grad and out._parents == ()


# ---------------------------------------------------------------------------
# grouped 1-D convolution
# ---------------------------------------------------------------------------

class TestGroupedConv1d:
    def test_pointwise_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)))
        w = Tensor(np.eye(3)[None])       # k=1, identity mapping
        out = ad.grouped_conv1d(x, w, groups=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_kernel3_ramp_by_direct_summation(self):
        # single channel, length-4 ramp, taps (w1, w2, w3); oracle sums by hand
        x_vals = np.array([0.0, 1.0, 2.0, 3.0])
        w1, w2, w3 = 0.5, -1.0, 2.0
        padded = np.concatenate([[0.0], x_vals, [0.0]])
        expected = np.array([w1 * padded[t] + w2 * padded[t + 1] + w3 * padded[t + 2]
                             for t in range(4)])
        w = Tensor(np.array([w1, w2, w3]).reshape(3, 1, 1))
        out = ad.grouped_conv1d(Tensor(x_vals[None, :]), w, groups=1)
        np.testing.assert_allclose(out.data[0], expected)

    def test_two_groups_equal_split_compute_concat(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 9))
        w = rng.normal(size=(3, 3, 4))   # C_in/g = 3, C_out = 4 (2 per group)
        full = ad.grouped_conv1d(Tensor(x), Tensor(w), groups=2).data
        top = ad.grouped_conv1d(Tensor(x[:3]), Tensor(w[:, :, :2]), groups=1).data
        bottom = ad.grouped_conv1d(Tensor(x[3:]), Tensor(w[:, :, 2:]), groups=1).data
        np.testing.assert_allclose(full, np.concatenate([top, bottom]), atol=1e-12)

    def test_groups_match_independent_convs_many_seeds(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            groups, c_g, length = 4, 2, 7
            c_in = groups * c_g
            x = rng.normal(size=(c_in, length))
            w = rng.normal(size=(3, c_g, c_in))
            full = ad.grouped_conv1d(Tensor(x), Tensor(w), groups=groups).data
            parts = []
            for g in range(groups):
                xs = x[g * c_g:(g + 1) * c_g]
                ws = w[:, :, g * c_g:(g + 1) * c_g]
                parts.append(ad.grouped_conv1d(Tensor(xs), Tensor(ws), groups=1).data)
            np.testing.assert_allclose(full, np.concatenate(parts), atol=1e-12)

    @pytest.mark.parametrize("needs", ["both", "x", "w"])
    @pytest.mark.parametrize("length", [1, 2, 100])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_matches_per_group_loop_bit_for_bit(self, groups, k, length, needs):
        rng = np.random.default_rng(groups * 100 + k * 10 + length)
        x_data = rng.normal(size=(4 * groups, length))
        w_data = rng.normal(size=(k, 4, 3 * groups))
        upstream = rng.normal(size=(3 * groups, length))
        results = []
        for conv in (ad.grouped_conv1d, grouped_conv1d_per_group):
            x = Tensor(x_data, requires_grad=needs in ("both", "x"))
            w = Tensor(w_data, requires_grad=needs in ("both", "w"))
            out = conv(x, w, groups=groups)
            ad.tsum(ad.mul(out, upstream)).backward()     # the conv's adjoint receives `upstream`
            results.append((out.data, x.grad, w.grad))
        (out, gx, gw), (want_out, want_gx, want_gw) = results
        np.testing.assert_array_equal(out, want_out)
        for got, want in ((gx, want_gx), (gw, want_gw)):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ContractError):
            ad.grouped_conv1d(Tensor(np.zeros((5, 4))), Tensor(np.zeros((3, 2, 4))), groups=2)

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractError):
            ad.grouped_conv1d(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 2, 2))), groups=1)


# ---------------------------------------------------------------------------
# finite-difference audit of every registered operation
# ---------------------------------------------------------------------------

def _op_cases(rng):
    """(name, builder) pairs; each builder returns (f, params)."""
    def mk(shape, offset=0.0, positive=False):
        base = rng.normal(size=shape)
        if positive:
            base = np.abs(base) + 0.5
        return Tensor(base + offset, requires_grad=True)

    a = mk((2, 3))
    b = mk((2, 3))
    m1 = mk((2, 4))
    m2 = mk((4, 3))
    pos = mk((2, 3), positive=True)
    away = Tensor(rng.normal(size=(2, 3)) + np.where(rng.normal(size=(2, 3)) > 0, 1.0, -1.0),
                  requires_grad=True)
    bias = mk((3,))
    conv_x = mk((4, 5))
    conv_w = mk((3, 2, 4))
    # entries (src, dst, weight) into 4 columns: column 2 sums two, column 3 none
    src, dst, weights = np.array([2, 0, 1, 2]), np.array([0, 1, 2, 2]), rng.normal(size=4)

    return [
        ("add", lambda: ad.tsum(ad.square(ad.add(a, b))), [a, b]),
        ("add_const", lambda: ad.tsum(ad.square(ad.add(a, 1.5))), [a]),
        ("mul", lambda: ad.tsum(ad.mul(a, b)), [a, b]),
        ("mul_const_array", lambda: ad.tsum(ad.mul(a, np.full((2, 3), 0.7))), [a]),
        ("square", lambda: ad.tsum(ad.square(a)), [a]),
        ("relu", lambda: ad.tsum(ad.square(ad.relu(away))), [away]),
        ("sigmoid", lambda: ad.tsum(ad.square(ad.sigmoid(a))), [a]),
        ("log", lambda: ad.tsum(ad.log(pos)), [pos]),
        ("clip_interior", lambda: ad.tsum(ad.square(ad.clip(a, -50.0, 50.0))), [a]),
        ("mean_all", lambda: ad.square(ad.tmean(a)), [a]),
        ("matmul", lambda: ad.tsum(ad.square(ad.matmul(m1, m2))), [m1, m2]),
        ("affine", lambda: ad.tsum(ad.square(ad.affine(m1, m2, bias))), [m1, m2, bias]),
        ("transpose", lambda: ad.tsum(ad.square(ad.transpose(a))), [a]),
        ("reshape", lambda: ad.tsum(ad.square(ad.reshape(a, (3, 2)))), [a]),
        ("concat", lambda: ad.tsum(ad.square(ad.concat([a, b], axis=1))), [a, b]),
        ("slice", lambda: ad.tsum(ad.square(a[0:1, 1:])), [a]),
        ("gather_sum", lambda: ad.tsum(ad.square(ad.gather_sum(a, src, dst, weights, 4))), [a]),
        ("grouped_conv1d", lambda: ad.tsum(ad.square(
            ad.grouped_conv1d(conv_x, conv_w, groups=2))), [conv_x, conv_w]),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_every_op_backward_passes_grad_check(seed):
    rng = np.random.default_rng(seed)
    for name, f, params in _op_cases(rng):
        err = ad.grad_check(f, params)
        assert err < 1e-3, f"op {name} failed grad check with rel err {err}"


def test_slice_gradient_counts_repeated_index():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.tsum(a[[0, 0, 1]]).backward()
    np.testing.assert_array_equal(a.grad, [[2.0, 2.0, 2.0], [1.0, 1.0, 1.0]])


def test_grad_check_on_linear_function_near_zero_error():
    theta = Tensor(np.arange(1.0, 5.0), requires_grad=True)
    assert ad.grad_check(lambda: ad.tsum(theta), theta) < 1e-8


def test_grad_check_relu_away_from_kink():
    theta = Tensor(np.array([1.0, -2.0, 3.0, -4.0]), requires_grad=True)
    assert ad.grad_check(lambda: ad.tsum(ad.relu(theta)), theta) < 1e-6


# ---------------------------------------------------------------------------
# gradient ownership: a kept array must never be shared
# ---------------------------------------------------------------------------

# a graph is a list of (op, i, j): op reads pool entries i and j (taken modulo the
# pool's size, so entries are read by several ops and an op may read one twice)
# and appends an (n, m) result to the pool, which starts as the leaves x and y;
# the loss weights the entries no op read, so a leaf's first gradient comes from
# the graph, where a shared array would be kept twice
GRAPH_OPS = ("add", "mul", "sub", "sigmoid", "matmul", "affine_t", "reshape",
             "concat_rows", "concat_cols", "slice_repeat")


def _graph_leaves(n: int, m: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    shapes = {"x": (n, m), "y": (n, m), "w": (m, m), "v": (n, n), "b": (n,)}
    return {name: rng.uniform(-1.0, 1.0, size=shape) for name, shape in shapes.items()}


def _graph_loss(program, leaves: dict, seed: int):
    """Build ``program`` over ``leaves`` and return (loss builder, leaf tensors)."""
    params = {name: Tensor(value, requires_grad=True) for name, value in leaves.items()}
    n, m = leaves["x"].shape
    rng = np.random.default_rng(seed + 1)
    cols = rng.normal(size=(2 * m, m))
    weights = rng.normal(size=(len(program) + 2, n, m))
    rows = rng.integers(0, 2 * n, size=n)       # repeats whenever n > 1

    def f():
        pool = [params["x"], params["y"]]
        read = set()
        for op, i, j in program:
            i, j = i % len(pool), j % len(pool)
            a, b = pool[i], pool[j]
            read.update((i, j) if op in ("add", "mul", "sub", "concat_rows", "concat_cols") else (i,))
            if op == "add":
                out = ad.add(a, b)
            elif op == "mul":
                out = ad.mul(a, b)
            elif op == "sub":
                out = a - b
            elif op == "sigmoid":
                out = ad.sigmoid(a)
            elif op == "matmul":
                out = ad.matmul(a, params["w"])
            elif op == "affine_t":
                out = ad.transpose(ad.affine(ad.transpose(a), params["v"], params["b"]))
            elif op == "reshape":
                out = ad.reshape(ad.reshape(ad.reshape(a, (m, n)), -1), (n, m))
            elif op == "concat_rows":
                out = ad.concat([a, b], axis=0)[rows]
            elif op == "concat_cols":
                out = ad.matmul(ad.concat([a, b], axis=1), Tensor(cols))
            else:
                out = a[rows % n]
            pool.append(out)
        terms = [ad.tsum(ad.mul(t, c)) for k, (t, c) in enumerate(zip(pool, weights))
                 if k not in read]
        return sum(terms[1:], terms[0])

    return f, params


def _twice_backward_grads(program, leaves, seed) -> dict:
    f, params = _graph_loss(program, leaves, seed)
    loss = f()
    loss.backward()
    loss.backward()
    return {name: p.grad for name, p in params.items()}


@given(program=st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 50),
                                  st.integers(0, 50)), min_size=1, max_size=5),
       n=st.integers(1, 4), m=st.integers(1, 10), seed=st.integers(0, 2**16))
@example(program=[("add", 0, 0)], n=2, m=3, seed=0)
@example(program=[("mul", 0, 0)], n=2, m=3, seed=0)
@example(program=[("concat_cols", 0, 0)], n=2, m=3, seed=0)
@example(program=[("add", 0, 1), ("add", 2, 0)], n=2, m=3, seed=0)
@example(program=[("concat_rows", 1, 1), ("add", 0, 2)], n=3, m=2, seed=0)
@example(program=[("slice_repeat", 0, 0), ("slice_repeat", 2, 0)], n=4, m=3, seed=0)
@example(program=[("add", 0, 1), ("affine_t", 2, 0), ("reshape", 3, 0)], n=4, m=10, seed=0)
def test_kept_gradients_equal_zeros_then_add_and_pass_grad_check(program, n, m, seed):
    leaves = _graph_leaves(n, m, seed)
    got = _twice_backward_grads(program, leaves, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Tensor, "_accumulate", zeros_then_add_accumulate)
        want = _twice_backward_grads(program, leaves, seed)
    for name in want:
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
    f, params = _graph_loss(program, leaves, seed)
    assert ad.grad_check(f, list(params.values())) < 1e-3


# ---------------------------------------------------------------------------
# one elementwise path: constants and inputs are operands, never graph nodes
# ---------------------------------------------------------------------------

OPERAND_KINDS = ("grad", "nograd", "scalar", "zerod", "array")


def _operand(kind, shape, rng):
    """A tensor that needs a gradient, a tensor that does not, a python scalar,
    a 0-d array or an array of ``shape``."""
    value = np.asarray(rng.normal(size=shape))
    if kind == "grad":
        return Tensor(value, requires_grad=True)
    if kind == "nograd":
        return Tensor(value)
    if kind == "scalar":
        return float(rng.normal())
    return np.asarray(rng.normal()) if kind == "zerod" else value


def _elementwise_run(kinds, shape, seed):
    """Outputs and leaf gradients of add, mul and subtraction in both orders on
    operands of ``kinds``, under whichever ``ad.add`` and ``ad.mul`` are installed."""
    rng = np.random.default_rng(seed)
    a, b = (_operand(kind, shape, rng) for kind in kinds)
    outs = [ad.add(a, b), ad.add(b, a), ad.mul(a, b), ad.mul(b, a)]
    outs += [x - y for x, y in ((a, b), (b, a)) if not isinstance(x, np.ndarray)]
    loss = ad.tsum(ad.mul(sum(outs[1:], outs[0]), rng.normal(size=shape)))
    if loss.requires_grad:
        loss.backward()
    return [out.data for out in outs], [t.grad for t in (a, b) if isinstance(t, Tensor)]


@given(kinds=st.tuples(st.sampled_from(OPERAND_KINDS), st.sampled_from(OPERAND_KINDS))
       .filter(lambda kinds: {"grad", "nograd"} & set(kinds)),
       shape=st.sampled_from([(), (3,), (2, 3)]), seed=st.integers(0, 2**16))
@example(kinds=("grad", "grad"), shape=(2, 3), seed=0)
@example(kinds=("scalar", "grad"), shape=(3,), seed=0)
@example(kinds=("nograd", "zerod"), shape=(2, 3), seed=0)
def test_add_and_mul_equal_the_constant_branch_versions(kinds, shape, seed):
    got = _elementwise_run(kinds, shape, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "add", add_with_constant_branch)
        patch.setattr(ad, "mul", mul_with_constant_branch)
        want = _elementwise_run(kinds, shape, seed)
    for got_part, want_part in zip(got, want):
        assert len(got_part) == len(want_part)
        for g, w in zip(got_part, want_part):
            assert (g is None) == (w is None)
            if w is not None:
                np.testing.assert_array_equal(g, w)


def test_subtraction_in_both_orders():
    x = Tensor([1.0, 2.0, 4.0], requires_grad=True)
    y = Tensor([0.5, 0.5, 0.5], requires_grad=True)
    for other in (0.5, np.full(3, 0.5), y):
        np.testing.assert_array_equal((x - other).data, [0.5, 1.5, 3.5])
    np.testing.assert_array_equal((0.5 - x).data, [-0.5, -1.5, -3.5])
    w = np.array([1.0, 2.0, 3.0])
    (ad.tsum(ad.mul(x - y, w)) + ad.tsum(ad.mul(2.0 - y, w))).backward()
    np.testing.assert_array_equal(x.grad, w)
    np.testing.assert_array_equal(y.grad, -2.0 * w)


def test_graph_holds_no_input_or_constant():
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    x = Tensor(np.arange(6.0).reshape(2, 3))
    half = Tensor(np.float64(0.5))
    loss = ad.tsum(ad.mul(ad.add(ad.mul(x, w), 2.0), half))
    nodes = ad.graph_nodes(loss)
    assert [n.op for n in nodes] == ["", "mul", "add", "mul", "sum"]
    assert nodes[0] is w and all(n.requires_grad for n in nodes)
    assert ad.add(x, 1.0)._parents == () and not ad.mul(x, half).requires_grad


@pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
@pytest.mark.parametrize("a, b", [
    (Tensor(np.float64(1.0), requires_grad=True), Tensor(np.zeros(3))),
    (Tensor(np.float64(1.0), requires_grad=True), np.zeros(3)),
    (Tensor(np.zeros(2), requires_grad=True), np.zeros(3)),
    (Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)), requires_grad=True)),
], ids=["0d-grad-with-tensor", "0d-grad-with-array", "mismatched-array",
        "mismatched-tensors"])
def test_shaped_operands_must_match(op, a, b):
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ContractError, match=op.__name__):
            op(first, second)


# ---------------------------------------------------------------------------
# row blocks: the one cut of a blocked product
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", range(2, 8))
def test_row_blocks_cover_every_row_and_never_cut_one_row(rows):
    for n in range(51):
        blocks = ad.row_blocks(n, rows)
        assert blocks[0][0] == 0 and blocks[-1][1] == n, (n, blocks)
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:])), (n, blocks)
        sizes = [hi - lo for lo, hi in blocks]
        assert all(size == rows for size in sizes[:-1]), (n, sizes)
        assert 1 not in sizes or n == 1, (n, sizes)
        assert sizes[-1] <= rows + 1 and (sizes[-1] > 0 or n == 0), (n, sizes)


def test_concat_of_one_tensor_is_that_tensor():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    assert ad.concat([t], axis=0) is t
    with pytest.raises(ContractError, match="axis 2"):
        ad.concat([t], axis=2)


# ---------------------------------------------------------------------------
# a dense layer adds a weight's later gradients into its grad in place
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layer", [ad.affine, ad.affine_relu], ids=["affine", "affine_relu"])
def test_later_weight_gradient_adds_into_the_kept_one_over_row_blocks(monkeypatch, layer):
    # a (10, 4) weight in 3-row blocks: rows 9 and 6-8 form one block, since a
    # one-row product would go through gemv and may round otherwise
    monkeypatch.setattr(ad, "GRAD_BLOCK_BYTES", 3 * 4 * 8)
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    terms = []
    for _ in range(2):
        x, upstream = rng.normal(size=(6, 10)), rng.normal(size=(6, 4))
        ad.tsum(ad.mul(layer(Tensor(x), w, b), upstream)).backward()
        if layer is ad.affine_relu:
            upstream = upstream * (x @ w.data + b.data > 0)
        terms.append(x.T @ upstream)
        if len(terms) == 1:
            kept = w.grad
    assert w.grad is kept
    np.testing.assert_array_equal(w.grad, terms[0] + terms[1])


def test_grad_check_through_an_in_place_weight_gradient(monkeypatch):
    # w feeds two layers of one graph, so the second adjoint to run adds into the
    # first one's gradient, in blocks of 2 of its 5 rows
    monkeypatch.setattr(ad, "GRAD_BLOCK_BYTES", 2 * 3 * 8)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x1, x2 = (Tensor(rng.normal(size=(rows, 5)), requires_grad=True) for rows in (4, 6))
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def f():
            return (ad.tsum(ad.square(ad.affine(x1, w, b)))
                    + ad.tsum(ad.square(ad.affine_relu(x2, w, b))))

        if relu_margin(f()) > 1e-2:
            break
    assert ad.grad_check(f, [x1, x2, w, b]) < 1e-6


def test_one_training_batch_holds_no_weight_sized_temporary(tmp_path):
    # default configs at L = 100, 16 windows in one batch of 16. A whole-array Adam
    # step and a fresh x.T @ g per window for loc.w1 (4.7 MB each) peaked at
    # 29.2 MB; the in-place Adam step alone leaves 19.5 MB, and with the in-place
    # weight gradient 17.0 MB
    manifest, annotations = synth_dataset(SynthConfig(num_videos=16, length=100, seed=5),
                                          tmp_path)
    windows = prepare_windows(*load_dataset(manifest, annotations), rescale_length=100,
                              training=True)
    config = TrainConfig()
    model = init_params(config)
    examples = build_examples(model, windows)
    optimizer = Adam(model.params())
    tracemalloc.start()
    try:
        train_epoch(model, examples, optimizer, config, config.lr_phase1,
                    np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18.5e6
