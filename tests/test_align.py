"""Anchor enumeration and sub-graph feature alignment."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import anchor_weight_rows_per_anchor, build_alignment_per_duration

from tadgraph import autodiff as ad
from tadgraph.align import (SubgraphAligner, _anchor_weight_rows, build_alignment,
                            enumerate_anchors, interp_rescale, semantic_smooth,
                            sgalign_forward)
from tadgraph.autodiff import Tensor
from tadgraph.errors import ContractError
from tadgraph.training import sample_anchor_subset
from tadgraph.video_graph import knn_semantic_edges


def _counting_oracle(length, max_duration):
    # sum over durations d of the number of (t_s, t_e) pairs with that duration
    return sum(max(0, length - 1 - d) for d in range(1, max_duration))


def _anchor_lists(length):
    """Anchors as ``enumerate_anchors`` lists them, or runs of consecutive durations
    from drawn starts, concatenated in drawn order: unsorted, duplicated, with gaps in
    duration, and a single anchor when one run of one anchor is drawn."""
    run = st.tuples(st.integers(0, length - 2), st.integers(1, length - 1), st.integers(1, 4))
    return st.one_of(
        st.integers(2, length).map(lambda max_duration: enumerate_anchors(length, max_duration)),
        st.lists(run, min_size=1, max_size=8).map(lambda runs: np.array(
            [(t_s, t_s + d) for t_s, d0, n in runs for d in range(d0, d0 + n)
             if t_s + d < length], dtype=np.int64).reshape(-1, 2)))


@st.composite
def _shifted_anchors(draw):
    """(length, t_s, d) of a valid anchor (t_s, t_s + d) with t_s > 0."""
    length = draw(st.integers(3, 256))
    d = draw(st.integers(1, length - 2))
    return length, draw(st.integers(1, length - 1 - d)), d


class TestEnumerateAnchors:
    def test_reference_count(self):
        anchors = enumerate_anchors(100, 64)
        assert len(anchors) == 4221
        assert len(anchors) == _counting_oracle(100, 64)

    def test_degenerate_length_empty(self):
        assert len(enumerate_anchors(2, 4)) == 0

    def test_tiny_exhaustive(self):
        anchors = enumerate_anchors(5, 2)
        assert anchors.tolist() == [[1, 2], [2, 3], [3, 4]]

    def test_exhaustive_cross_check(self):
        for length in range(1, 21):
            for max_duration in range(1, 11):
                anchors = enumerate_anchors(length, max_duration)
                brute = [(ts, te)
                         for ts in range(length) for te in range(length)
                         if 0 < ts < te < length and te - ts < max_duration]
                assert anchors.tolist() == [list(p) for p in sorted(brute)]

    def test_invariants_hold(self):
        anchors = enumerate_anchors(30, 12)
        assert np.all(anchors[:, 0] > 0)
        assert np.all(anchors[:, 1] > anchors[:, 0])
        assert np.all(anchors[:, 1] < 30)
        assert np.all(anchors[:, 1] - anchors[:, 0] < 12)


class TestInterpRescale:
    def test_ramp_hand_trace(self):
        # d=4, s=2, samples at 2,3,4,5 averaged in pairs
        x = np.arange(8.0)[None, :]
        out = interp_rescale(Tensor(x), (2, 6), 2)
        np.testing.assert_allclose(out.data, [2.5, 4.5], atol=1e-15)

    def test_constant_preserved(self):
        rng = np.random.default_rng(0)
        x = np.full((3, 12), 4.25)
        for _ in range(20):
            ts = int(rng.integers(1, 10))
            te = int(rng.integers(ts + 1, 12))
            tau = int(rng.integers(1, 9))
            out = interp_rescale(Tensor(x), (ts, te), tau)
            np.testing.assert_allclose(out.data, 4.25, atol=1e-12)

    def test_short_anchor_oversamples(self):
        # d=1 < tau=4: run length clamps to 1, samples at 1, 1.25, 1.5, 1.75
        x = np.arange(6.0)[None, :]
        out = interp_rescale(Tensor(x), (1, 2), 4)
        np.testing.assert_allclose(out.data, [1.0, 1.25, 1.5, 1.75], atol=1e-15)

    def test_bad_anchor_rejected(self):
        with pytest.raises(ContractError, match=r"^anchor \(3, 3\) has non-positive duration$"):
            interp_rescale(Tensor(np.zeros((1, 5))), (3, 3), 2)
        with pytest.raises(ContractError, match=r"^anchor \(2, 7\) outside \[0, 4\]$"):
            interp_rescale(Tensor(np.zeros((1, 5))), (2, 7), 2)

    def test_gradient_reaches_covered_snippets(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 10)), requires_grad=True)
        loss = ad.tsum(ad.square(interp_rescale(x, (2, 7), 3)))
        loss.backward()
        grad_mass = np.abs(x.grad).sum(axis=0)
        assert np.all(grad_mass[2:7] > 0)          # sampled positions
        assert np.all(grad_mass[:2] == 0) and np.all(grad_mass[8:] == 0)


def _stacked_plan(anchors, length, tau1, tau2=0):
    """Every anchor's rows by ``_anchor_weight_rows``, stacked densely: tau1 rows over
    columns [0, L), then tau2 rows over [L, 2L)."""
    taus = ((tau1, 0, 0), (tau2, tau1, length)) if tau2 else ((tau1, 0, 0),)
    plan = np.zeros((len(anchors) * (tau1 + tau2), len(taus) * length))
    for j, (t_s, t_e) in enumerate(anchors):
        for tau, row0, col0 in taus:
            rows, cols, vals = _anchor_weight_rows(int(t_s), int(t_e), tau, length)
            np.add.at(plan, (rows + j * (tau1 + tau2) + row0, cols + col0), vals)
    return plan


def _aligned(x, anchors, tau1, tau2, edges=None, subset=None):
    """``SubgraphAligner`` rows of ``anchors`` over the features ``x`` (smoothed over
    ``edges``, or the raw features without them), and the aligner."""
    aligner = SubgraphAligner(anchors, x.shape[1], tau1, tau2)
    edges = np.zeros((0, 2)) if edges is None else edges
    return aligner(Tensor(x), edges, subset)[:].data, aligner


def _assert_rows_match(got, want, x, aligner, anchors, exact_on_grid=True):
    """Every entry lies within (longest + 1) units in the last place of the largest
    |feature|, the rounding a sum of that many weighted snippets can make; with
    ``exact_on_grid`` (``want`` sums each row's entries in column order, as a CSR
    product does), the temporal rows on the grid equal ``want`` bit for bit."""
    assert got.shape == want.shape
    if exact_on_grid:
        on_grid = aligner.plan.parts[0].on_grid[anchors[:, 1] - anchors[:, 0] - 1]
        temporal = aligner.tau1 * x.shape[0]
        np.testing.assert_array_equal(got[on_grid, :temporal], want[on_grid, :temporal])
    longest = len(aligner.plan.parts[0].on_grid)
    bound = (longest + 1) * 2.0**-52 * float(np.abs(x).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0, atol=bound)


def _csr_rows(x, smoothed, anchors, tau1, tau2):
    """The rows of the CSR oracle: its plan times the features and their smoothed copy
    placed side by side."""
    plan = build_alignment_per_duration(anchors, x.shape[1], tau1, tau2)
    source = np.concatenate([x, smoothed], axis=1) if tau2 else x
    return np.asarray(plan @ source.T).reshape(len(anchors), (tau1 + tau2) * x.shape[0])


class TestBuildAlignment:
    @settings(max_examples=150)
    @given(st.integers(3, 40), st.data())
    def test_equals_stacked_anchor_rows(self, length, data):
        # tau above the shortest durations exercises the oversampling branch (d < tau);
        # the plan counts the nonzero weights of the anchors (0, d), d = 1 to the longest
        anchors = data.draw(_anchor_lists(length))
        tau = data.draw(st.integers(1, 8))
        x = np.random.default_rng(length).normal(size=(3, length))
        got, aligner = _aligned(x, anchors, tau, 0)
        want = (_stacked_plan(anchors, length, tau) @ x.T).reshape(got.shape)
        _assert_rows_match(got, want, x, aligner, anchors, exact_on_grid=False)
        longest = int((anchors[:, 1] - anchors[:, 0]).max(initial=0))
        table = _stacked_plan([(0, d) for d in range(1, longest + 1)], length, tau)
        assert build_alignment(anchors, length, tau).nnz == np.count_nonzero(table)

    @settings(max_examples=100)
    @given(st.integers(3, 30), st.data())
    def test_two_taus_stack_per_anchor(self, length, data):
        # per anchor: tau1 rows over the features, then tau2 rows over their smoothed
        # copy, which is the raw features when there are no edges
        anchors = data.draw(_anchor_lists(length))
        tau1, tau2 = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        x = np.random.default_rng(length).normal(size=(2, length))
        got, aligner = _aligned(x, anchors, tau1, tau2)
        plan = _stacked_plan(anchors, length, tau1, tau2)
        want = (plan @ np.concatenate([x, x], axis=1).T).reshape(got.shape)
        _assert_rows_match(got, want, x, aligner, anchors, exact_on_grid=False)

    @settings(max_examples=150)
    @given(_shifted_anchors(), st.integers(1, 40), st.integers(1, 40))
    @example((256, 200, 55), 32, 4)                 # infer_l256's length and taus
    def test_rows_shift_with_the_start(self, drawn, tau1, tau2):
        # the weights depend on the duration alone, so (t_s, t_s + d) reads the features
        # as (0, d) reads them moved t_s columns left, bit for bit, in both parts
        length, t_s, d = drawn
        x = np.random.default_rng(d).normal(size=(3, length))
        base, _ = _aligned(x[:, t_s:], np.array([[0, d]]), tau1, tau2)
        moved, _ = _aligned(x, np.array([[t_s, t_s + d]]), tau1, tau2)
        np.testing.assert_array_equal(moved, base)

    @settings(max_examples=100)
    @given(st.integers(3, 80), st.data())
    def test_matches_per_duration_build(self, length, data):
        # against the CSR plan of the per-duration oracle, with neighbour-smoothed rows
        anchors = data.draw(_anchor_lists(length))
        tau1, tau2 = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 40))
        rng = np.random.default_rng(length)
        x = rng.normal(size=(3, length)) * 10.0 ** rng.integers(-3, 4)
        edges = knn_semantic_edges(x, 1)
        got, aligner = _aligned(x, anchors, tau1, tau2, edges)
        smoothed = semantic_smooth(Tensor(x), edges).data
        _assert_rows_match(got, _csr_rows(x, smoothed, anchors, tau1, tau2), x, aligner,
                           anchors)

    @pytest.mark.parametrize("length", [100, 256], ids=["train_l100", "infer_l256"])
    def test_matches_per_duration_build_at_bench_sizes(self, length):
        # the default taus and D: every temporal row is one sample on the grid and equals
        # the CSR product bit for bit, for the whole window, its 512-row blocks and a
        # training subset; the semantic rows stay within the rounding bound
        rng = np.random.default_rng(length)
        x = rng.normal(size=(32, length))
        edges = knn_semantic_edges(x, 4)
        anchors = enumerate_anchors(length, 64)
        aligner = SubgraphAligner(anchors, length, 32, 4)
        assert aligner.plan.parts[0].on_grid.all()
        aligned = aligner(Tensor(x), edges)
        want = _csr_rows(x, semantic_smooth(Tensor(x), edges).data, anchors, 32, 4)
        whole = aligned[:].data
        _assert_rows_match(whole, want, x, aligner, anchors)
        blocks = np.concatenate([aligned[lo:hi].data
                                 for lo, hi in ad.row_blocks(len(anchors), 512)])
        np.testing.assert_array_equal(blocks, whole)
        subset = np.sort(rng.choice(len(anchors), 256, replace=False))
        picked = aligner(Tensor(x), edges, subset)[:].data
        _assert_rows_match(picked, want[subset], x, aligner, anchors[subset])
        np.testing.assert_array_equal(picked, whole[subset])

    @pytest.mark.parametrize("tau1, tau2, max_duration", [(8, 2, 32), (32, 0, 64)],
                             ids=["ci-config", "tau2-zero"])
    def test_rows_off_the_grid_stay_within_the_bound(self, tau1, tau2, max_duration):
        # CI's smoke config: durations from 2 * tau1 = 16 average several samples per
        # row, so their temporal rows are dense products too
        rng = np.random.default_rng(tau1)
        x = rng.normal(size=(16, 100))
        edges = knn_semantic_edges(x, 2)
        anchors = enumerate_anchors(100, max_duration)
        got, aligner = _aligned(x, anchors, tau1, tau2, edges)
        smoothed = semantic_smooth(Tensor(x), edges).data
        want = _csr_rows(x, smoothed, anchors, tau1, tau2)
        _assert_rows_match(got, want, x, aligner, anchors)
        on_grid = aligner.plan.parts[0].on_grid
        assert on_grid.sum() == min(2 * tau1 - 1, max_duration - 1)

    @settings(max_examples=150)
    @given(_shifted_anchors(), st.integers(1, 40))
    def test_anchor_rows_match_per_anchor_weights(self, drawn, tau):
        # interp_rescale's weights: the same triplets, in the same order
        length, t_s, d = drawn
        got = _anchor_weight_rows(t_s, t_s + d, tau, length)
        for mine, want in zip(got, anchor_weight_rows_per_anchor(t_s, t_s + d, tau)):
            assert mine.dtype == want.dtype
            np.testing.assert_array_equal(mine, want)

    def test_peak_memory_stays_near_the_plan(self):
        # infer_l256's anchors: the plan keeps the dense tau2 rows of 63 durations and a
        # flag per duration, 130 kB, where the CSR plan of all 14049 anchors took 17.8 MB
        anchors = enumerate_anchors(256, 64)
        build_alignment(anchors[:10], 256, 32, 4)
        tracemalloc.start()
        try:
            plan = build_alignment(anchors, 256, 32, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(p.weights.nbytes + p.on_grid.nbytes + p.slot.nbytes for p in plan.parts)
        assert held < 140e3 and peak < 3 * held

    def test_no_anchors_empty_plan(self):
        plan = build_alignment(np.zeros((0, 2)), 5, 3, 2)
        assert plan.nnz == 0 and [len(p.on_grid) for p in plan.parts] == [0, 0]
        out, _ = _aligned(np.ones((4, 5)), np.zeros((0, 2)), 3, 2)
        assert out.shape == (0, 20)

    @pytest.mark.parametrize("anchors, message", [
        ([[1, 2], [3, 3]], r"\(3, 3\) has non-positive duration"),
        ([[1, 2], [2, 7]], r"\(2, 7\) outside \[0, 4\]"),
        ([[-1, 2]], r"\(-1, 2\) outside \[0, 4\]"),
    ], ids=["zero-duration", "past-end", "negative-start"])
    def test_bad_anchor_rejected(self, anchors, message):
        with pytest.raises(ContractError, match=f"^anchor {message}$"):
            build_alignment(np.array(anchors), 5, 2)


class TestSemanticSmooth:
    def test_identical_features_fixed_point(self):
        x = Tensor(np.tile([[1.0], [2.0]], (1, 4)))
        edges = knn_semantic_edges(x.data, 2)
        out = semantic_smooth(x, edges)
        np.testing.assert_allclose(out.data, x.data)

    def test_single_neighbor_swap(self):
        x = Tensor(np.array([[1.0, 5.0], [2.0, 6.0]]))
        edges = np.array([[1, 0], [0, 1]])
        out = semantic_smooth(x, edges)
        np.testing.assert_array_equal(out.data, x.data[:, ::-1])

    def test_matches_per_node_average(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 7))
        edges = knn_semantic_edges(x, 2)
        out = semantic_smooth(Tensor(x), edges).data
        for node in range(7):
            neighbors = edges[edges[:, 1] == node, 0]
            np.testing.assert_allclose(out[:, node], x[:, neighbors].mean(axis=1))

    def test_zero_neighbor_node_rejected(self):
        with pytest.raises(ContractError):
            semantic_smooth(Tensor(np.zeros((2, 3))), np.array([[0, 1]]))


class TestSGAlign:
    def test_output_width(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(32, 40)))
        edges = knn_semantic_edges(x.data, 4)
        anchors = enumerate_anchors(40, 10)
        out = sgalign_forward(x, edges, anchors, 32, 4)
        assert out.shape == (len(anchors), (32 + 4) * 32)

    def test_tau2_zero_is_temporal_only(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 20)))
        edges = knn_semantic_edges(x.data, 2)
        anchors = enumerate_anchors(20, 6)
        out = sgalign_forward(x, edges, anchors, 8, 0)
        assert out.shape == (len(anchors), 8 * 4)

    def test_constant_features_constant_rows(self):
        x = Tensor(np.full((3, 15), -1.5))
        edges = np.array([[j, i] for i in range(15) for j in (max(0, i - 1), (i + 1) % 15)])
        anchors = enumerate_anchors(15, 5)
        out = sgalign_forward(x, edges, anchors, 4, 2)
        np.testing.assert_allclose(out.data, -1.5, atol=1e-12)

    def test_determinism_and_row_order(self):
        rng = np.random.default_rng(8)
        x_data = rng.normal(size=(3, 18))
        edges = knn_semantic_edges(x_data, 3)
        anchors = enumerate_anchors(18, 6)
        a = sgalign_forward(Tensor(x_data), edges, anchors, 4, 2).data
        b = sgalign_forward(Tensor(x_data.copy()), edges, anchors, 4, 2).data
        np.testing.assert_array_equal(a, b)
        # row j corresponds to anchor j
        single = interp_rescale(Tensor(x_data), anchors[5], 4).data
        np.testing.assert_allclose(a[5, :12], single)

    def test_temporal_locality(self):
        rng = np.random.default_rng(9)
        x1 = rng.normal(size=(2, 16))
        x2 = x1.copy()
        x2[:, 12] += 10.0      # outside the anchor below
        anchor = np.array([[3, 9]])
        out1 = sgalign_forward(Tensor(x1), np.zeros((0, 2)), anchor, 4, 0).data
        out2 = sgalign_forward(Tensor(x2), np.zeros((0, 2)), anchor, 4, 0).data
        np.testing.assert_array_equal(out1, out2)

    def test_subset_matches_full_rows(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(3, 20)))
        edges = knn_semantic_edges(x.data, 2)
        anchors = enumerate_anchors(20, 8)
        aligner = SubgraphAligner(anchors, 20, 6, 2)
        full = aligner(x, edges)[:].data
        subset = np.array([0, 7, 31, len(anchors) - 1])
        picked = aligner(x, edges, subset)[:].data
        np.testing.assert_allclose(picked, full[subset], atol=1e-13)

    def test_row_ranges_equal_rows_of_whole(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 20)))
        aligned = SubgraphAligner(enumerate_anchors(20, 8), 20, 6, 2)(
            x, knn_semantic_edges(x.data, 2))
        full = aligned[:].data
        assert aligned.shape == full.shape == (105, 8 * 3)
        for key in (slice(0, 1), slice(7, 30), slice(100, None), slice(-4, None),
                    slice(30, 7), slice(0, 500)):
            np.testing.assert_array_equal(aligned[key].data, full[key])
        with pytest.raises(ContractError, match="step 2"):
            aligned[::2]

    @settings(max_examples=100)
    @given(st.integers(3, 80), st.data())
    def test_assembled_rows_equal_rows_of_the_plan(self, length, data):
        # a block's or a subset's rows, computed on their own, equal the rows of the
        # whole anchor set bit for bit: on the grid and off it alike
        max_duration = data.draw(st.integers(2, length))
        tau1, tau2 = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 40))
        anchors = enumerate_anchors(length, max_duration)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = Tensor(rng.normal(size=(3, length)))
        edges = knn_semantic_edges(x.data, 1)
        aligner = SubgraphAligner(anchors, length, tau1, tau2)
        aligned = aligner(x, edges)
        whole, count = aligned[:].data, len(anchors)
        lo = data.draw(st.integers(0, count))
        hi = data.draw(st.integers(lo, count))
        for a, b in ((lo, hi), (lo, lo), (lo, min(lo + 1, count))):   # also empty and one
            np.testing.assert_array_equal(aligned[a:b].data, whole[a:b])
        if count > 1:
            subset = sample_anchor_subset(rng.random(count), data.draw(st.integers(1, count - 1)),
                                          rng)
            np.testing.assert_array_equal(aligner(x, edges, subset)[:].data, whole[subset])

    def test_aligner_keeps_only_the_per_duration_table(self):
        # infer_l256's anchor set: per duration, a grid flag for the tau1 rows and the
        # dense tau2 rows, 5982 nonzero weights in all, where the plan of all 14049
        # anchors had 1.3M entries in 17.8 MB
        anchors = enumerate_anchors(256, 64)
        tracemalloc.start()
        try:
            aligner = SubgraphAligner(anchors, 256, 32, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        temporal, semantic = aligner.plan.parts
        assert aligner.plan.nnz == 5982
        assert temporal.on_grid.all() and temporal.weights.shape == (0, 32, 64)
        assert not semantic.on_grid.any() and semantic.weights.shape == (63, 4, 64)

    @pytest.mark.parametrize("tau2", [0, 3])
    @pytest.mark.parametrize("edge_kind", ["knn", "empty"])
    @pytest.mark.parametrize("subset", [None, [0, 5, 6, 40, -1]], ids=["all", "subset"])
    def test_rows_equal_per_anchor_oracle(self, tau2, edge_kind, subset):
        # each row: interp_rescale of the features at tau1, then of their
        # neighbour-smoothed copy (the raw features without edges) at tau2; a
        # temporal row on the grid equals it bit for bit, any other within rounding
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(3, 24)))
        edges = knn_semantic_edges(x.data, 3) if edge_kind == "knn" else np.zeros((0, 2))
        anchors = enumerate_anchors(24, 9)
        aligner = SubgraphAligner(anchors, 24, 5, tau2)
        picked = np.arange(len(anchors)) if subset is None else np.arange(len(anchors))[subset]
        out = aligner(x, edges, None if subset is None else picked)[:].data
        smoothed = semantic_smooth(x, edges) if edge_kind == "knn" else x
        assert out.shape == (len(picked), (5 + tau2) * 3)
        want = np.stack([np.concatenate([interp_rescale(x, anchors[j], 5).data]
                                        + ([interp_rescale(smoothed, anchors[j], tau2).data]
                                           if tau2 else [])) for j in picked])
        # d = 5 is the one duration whose offsets k * (d / 5) come out exact
        assert aligner.plan.parts[0].on_grid.tolist() == [False] * 4 + [True] + [False] * 3
        _assert_rows_match(out, want, x.data, aligner, anchors[picked])

    def test_gradients_on_and_off_the_grid_pass_grad_check(self):
        # tau1 = 3 puts durations 1 and 3 on the grid and the rest off it; blocks of
        # 4 anchors each add their adjoint into the features and the smoothed copy.
        # Each of those blocks holds an anchor on the grid; a one-anchor slice off it
        # gathers every row from the grid's zero row and spreads its gradient there
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 12)), requires_grad=True)
        edges = knn_semantic_edges(x.data, 2)
        anchors = enumerate_anchors(12, 7)
        aligner = SubgraphAligner(anchors, 12, 3, 2)
        on_grid = aligner.plan.parts[0].on_grid
        assert on_grid.tolist() == [True, False, True, False, False, False]
        weights = rng.normal(size=(len(anchors), 5 * 2))
        dur = anchors[:, 1] - anchors[:, 0]
        blocks = list(ad.row_blocks(len(anchors), 4))
        assert all(on_grid[dur[lo:hi] - 1].any() for lo, hi in blocks)
        singles = [(j, j + 1) for j in np.flatnonzero(~on_grid[dur - 1]).tolist()]
        assert sorted({int(dur[lo]) for lo, _ in singles}) == [2, 4, 5, 6]

        for cut in (blocks, singles):
            def f():
                rows = aligner(x, edges)
                return ad.tsum(ad.concat([ad.mul(ad.square(rows[lo:hi]), weights[lo:hi])
                                          for lo, hi in cut]))

            assert {"align_rows", "gather_sum"} <= {n.op for n in ad.graph_nodes(f())}
            assert ad.grad_check(f, x) < 1e-6

    def test_alignment_gradients_flow_to_features(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 14)), requires_grad=True)
        edges = knn_semantic_edges(x.data, 2)
        anchors = enumerate_anchors(14, 6)
        err = ad.grad_check(
            lambda: ad.tsum(ad.square(sgalign_forward(x, edges, anchors, 3, 2))), x)
        assert err < 1e-3
