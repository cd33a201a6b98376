"""Optimization loop: initialization, reproducibility, convergence."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from conftest import small_model_config
from helpers import (adam_step_whole_array, add_with_constant_branch,
                     grouped_conv1d_per_group, mul_with_constant_branch,
                     sample_anchor_subset_setdiff, total_loss_over_params,
                     zeros_then_add_accumulate)
from hypothesis import example, given
from hypothesis import strategies as st

from tadgraph import autodiff as ad
from tadgraph import backbone, training, video_graph
from tadgraph.autodiff import Tensor
from tadgraph.data import SynthConfig, Window, load_dataset, prepare_windows, synth_dataset
from tadgraph.errors import ConfigError, ContractError, NumericError
from tadgraph.heads import node_branch_forward
from tadgraph.model import ModelConfig
from tadgraph.training import (ADAM_BETA1, Adam, TrainConfig, build_examples, init_params,
                               sample_anchor_subset, train, train_epoch, window_loss)

# config.json as written for the default TrainConfig; its "model" object is
# the layout that the earlier hand-listed serializer wrote, which checkpoints
# written then must still load.
DEFAULT_CONFIG_JSON = """{
 "model": {
  "c_raw": 32,
  "width": 32,
  "blocks": 3,
  "cardinality": 8,
  "bottleneck_ratio": 2,
  "k_neighbors": 4,
  "tau1": 32,
  "tau2": 4,
  "window_length": 100,
  "max_duration": 64,
  "head_hidden": [
   512,
   128
  ]
 },
 "batch_size": 16,
 "epochs": 10,
 "lr_phase1": 0.004,
 "lr_phase2": 0.0004,
 "lambda1": 10.0,
 "lambda2": 0.0001,
 "anchors_per_window": 256,
 "seed": 0
}"""


# an anchor sample at least as large as every window's anchor set scores them all
ALL_ANCHORS = 10**6


def _config(**overrides) -> TrainConfig:
    model_overrides = overrides.pop("model_overrides", {})
    base = dict(model=small_model_config(**model_overrides), batch_size=8,
                epochs=3, lr_phase1=4e-3, lr_phase2=4e-4, anchors_per_window=64, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


class TestInit:
    def test_same_seed_bit_identical(self):
        config = _config()
        a = init_params(config)
        b = init_params(config)
        for (name, ta), tb in zip(a.named_params().items(), b.named_params().values()):
            np.testing.assert_array_equal(ta.data, tb.data, err_msg=name)

    def test_default_parameter_names_in_order(self):
        blocks = [f"block{i}.{name}" for i in range(3)
                  for name in ("t_in", "t_conv", "t_out", "s_in", "s_self", "s_neigh", "s_out")]
        assert list(init_params(TrainConfig()).named_params()) == [
            "proj", *blocks, "loc.w1", "loc.b1", "loc.w2", "loc.b2", "loc.w3", "loc.b3",
            "node.w", "node.b"]

    def test_every_trained_leaf_is_a_parameter(self, small_synth):
        # a leaf left out of the parameters would never be updated, decayed or saved
        config = _config()
        model = init_params(config)
        example = build_examples(model, small_synth["windows"][:1])[0]
        subset = sample_anchor_subset(example.anchor_labels, config.anchors_per_window,
                                      np.random.default_rng(0))
        loss, _, _ = window_loss(model, example, config, subset, 0.0)
        leaves = [t for t in ad.graph_nodes(loss) if t.requires_grad and not t._parents]
        assert {id(t) for t in leaves} == {id(p) for p in model.params()}

    def test_different_seeds_differ(self):
        a = init_params(_config(seed=0))
        b = init_params(_config(seed=1))
        assert any(not np.array_equal(ta.data, tb.data)
                   for ta, tb in zip(a.params(), b.params()))

    def test_initial_scores_concentrate_near_half(self, small_synth):
        model = init_params(_config())
        window = small_synth["windows"][0]
        with ad.no_grad():
            _, final, graph = model.forward_features(window.features)
            subset = np.arange(100)
            scores = model.forward_scores(final, graph.semantic_layers[-1], subset)
        assert abs(scores.data[:, 0].mean() - 0.5) < 0.1
        assert abs(scores.data[:, 1].mean() - 0.5) < 0.1


class TestTrainEpoch:
    def test_zero_learning_rate_freezes_parameters(self, small_synth):
        config = _config()
        model = init_params(config)
        before = {n: t.data.copy() for n, t in model.named_params().items()}
        examples = build_examples(model, small_synth["windows"][:6])
        optimizer = Adam(model.params())
        rng = np.random.default_rng(0)
        first = train_epoch(model, examples, optimizer, config, lr=0.0, rng=rng)
        second = train_epoch(model, examples, optimizer, config, lr=0.0,
                             rng=np.random.default_rng(0))
        for name, tensor in model.named_params().items():
            np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)
        assert first["loss_total"] == pytest.approx(second["loss_total"])

    def test_non_finite_loss_aborts_naming_window(self, small_synth):
        config = _config()
        model = init_params(config)
        model.loc_head.w3.data[...] = np.nan      # drives the loss non-finite
        windows = [small_synth["windows"][0]]
        examples = build_examples(model, windows)
        with pytest.raises(NumericError, match=windows[0].video_id):
            train_epoch(model, examples, Adam(model.params()), config, 4e-3,
                        np.random.default_rng(0))

    def test_each_epoch_first_releases_the_free_heap(self, small_synth, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "release_free_heap", lambda: calls.append("release"))
        real_window_loss = training.window_loss
        monkeypatch.setattr(training, "window_loss",
                            lambda *a: calls.append("window") or real_window_loss(*a))
        config = _config(batch_size=2)
        model = init_params(config)
        examples = build_examples(model, small_synth["windows"][:3])
        optimizer = Adam(model.params())
        for _ in range(2):
            train_epoch(model, examples, optimizer, config, 4e-3, np.random.default_rng(0))
        assert calls == ["release"] + ["window"] * 3 + ["release"] + ["window"] * 3

    @pytest.mark.skipif(training._malloc_trim() is None, reason="no malloc_trim in this C library")
    def test_released_heap_holes_leave_resident_memory(self):
        def resident_mb():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * 4096 / 2**20

        # 64 KB blocks sit below glibc's smallest mmap threshold, so they come from
        # the heap; the small array after each one keeps its hole from merging
        pairs = [(np.ones(1 << 13), np.ones(300)) for _ in range(256)]
        keep = [small for _, small in pairs]
        del pairs
        held = resident_mb()
        training.release_free_heap()
        assert held - resident_mb() > 8, "16 MB of freed blocks stayed resident"
        del keep

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_config_error(self, batch_size):
        with pytest.raises(ConfigError, match="'batch_size'"):
            _config(batch_size=batch_size)

    def test_small_step_does_not_increase_loss(self, small_synth):
        # first-order descent check on a fixed batch, full anchor set
        config = _config(anchors_per_window=ALL_ANCHORS, batch_size=4)
        model = init_params(config)
        examples = build_examples(model, small_synth["windows"][:4])

        def batch_loss():
            weight_term = config.lambda2 * sum(float(np.vdot(p.data, p.data))
                                               for p in model.params())
            with ad.no_grad():
                return float(np.mean([window_loss(model, e, config, None, weight_term)[0].item()
                                      for e in examples]))

        before = batch_loss()
        optimizer = Adam(model.params())
        train_epoch(model, examples, optimizer, config, lr=1e-6,
                    rng=np.random.default_rng(0))
        assert batch_loss() <= before + 1e-6


class TestAnchorSubset:
    @given(labels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80),
           count=st.integers(0, 90), seed=st.integers(0, 2**16))
    @example(labels=[0.1, 0.4, 0.5, 0.0] * 20, count=16, seed=0)      # no positives
    @example(labels=[0.9, 0.95, 1.0] * 20, count=16, seed=0)          # all near-exact
    @example(labels=[0.9, 0.6, 0.2, 0.95] * 10, count=10, seed=3)     # near-exact subsampled
    @example(labels=[0.6, 0.2] * 10, count=20, seed=0)                # count == J
    @example(labels=[0.6, 0.2] * 10, count=25, seed=0)                # count > J
    def test_matches_setdiff_oracle_and_leaves_same_generator_state(self, labels, count, seed):
        labels = np.asarray(labels)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_anchor_subset(labels, count, rng)
        want = sample_anchor_subset_setdiff(labels, count, oracle_rng)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert rng.random() == oracle_rng.random()


class TestWeightDecay:
    LAMBDA2 = 1e-4

    def _epoch(self, small_synth, config, total_loss=None) -> dict:
        """One epoch on 6 windows; ``total_loss(model, loss_g, loss_n)``, when
        given, replaces the production objective."""
        model = init_params(config)
        examples = build_examples(model, small_synth["windows"][:6])
        with pytest.MonkeyPatch.context() as patch:
            if total_loss is not None:
                patch.setattr(training, "total_loss",
                              lambda loss_g, loss_n, weight_term: total_loss(model, loss_g, loss_n))
            train_epoch(model, examples, Adam(model.params()), config, lr=4e-3,
                        rng=np.random.default_rng(0))
        return {n: t.data for n, t in model.named_params().items()}

    def test_adam_decay_matches_in_graph_term(self, small_synth):
        # the former path: the L2 term built into every window's graph
        new = self._epoch(small_synth, _config(lambda2=self.LAMBDA2))

        def in_graph_total_loss(model, loss_g, loss_n):
            reg = None
            for p in model.params():
                term = ad.tsum(ad.square(p))
                reg = term if reg is None else reg + term
            return loss_g + loss_n + self.LAMBDA2 * reg

        old = self._epoch(small_synth, _config(lambda2=0.0), in_graph_total_loss)
        for name in old:
            np.testing.assert_allclose(new[name], old[name], rtol=0, atol=1e-10, err_msg=name)

    def test_weight_term_computed_once_per_batch(self, small_synth, monkeypatch):
        # 6 windows in batches of 4 and 2: each window's loss gets lambda2 * sum of
        # squared parameters as they stand at its batch's start, summed once per batch
        config = _config(batch_size=4, lambda2=self.LAMBDA2)
        model = init_params(config)
        examples = build_examples(model, small_synth["windows"][:6])
        params = model.params()
        terms, vdots = [], []
        real_total_loss, real_vdot = training.total_loss, np.vdot

        def recording_total_loss(loss_g, loss_n, weight_term):
            want = self.LAMBDA2 * sum(float(real_vdot(p.data, p.data)) for p in params)
            terms.append((weight_term, want))
            return real_total_loss(loss_g, loss_n, weight_term)

        def counting_vdot(a, b):
            vdots.append(1)
            return real_vdot(a, b)

        monkeypatch.setattr(training, "total_loss", recording_total_loss)
        monkeypatch.setattr(training.np, "vdot", counting_vdot)
        train_epoch(model, examples, Adam(params), config, lr=4e-3,
                    rng=np.random.default_rng(0))
        assert len(vdots) == 2 * len(params)
        assert [got for got, _ in terms] == [want for _, want in terms]
        assert len({got for got, _ in terms[:4]}) == 1
        assert terms[4][0] == terms[5][0] != terms[0][0]

    def test_first_moment_includes_decay_gradient(self):
        rng = np.random.default_rng(4)
        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2)]
        params[0].grad = rng.normal(size=(3, 2))     # params[1] received no gradient
        expected = [(1.0 - ADAM_BETA1) * (params[0].grad + 2.0 * self.LAMBDA2 * params[0].data),
                    (1.0 - ADAM_BETA1) * (2.0 * self.LAMBDA2 * params[1].data)]
        optimizer = Adam(params)
        optimizer.step(1e-3, self.LAMBDA2)
        for m, want in zip(optimizer.m, expected):
            np.testing.assert_allclose(m, want, rtol=1e-15)


class TestAdam:
    CHUNK = 8

    @staticmethod
    def _three_steps(data, grads, lambda2, step):
        """Three steps from copies of ``data``; ``grads[t][i]`` is parameter i's gradient
        at step t. Returns the parameters and both moments."""
        params = [Tensor(d.copy(), requires_grad=True) for d in data]
        optimizer = Adam(params)
        for lr, step_grads in zip((4e-3, 4e-3, 4e-4), grads):
            for p, g in zip(params, step_grads):
                p.grad = g
            step(optimizer, lr, lambda2)
        return [p.data for p in params], optimizer.m, optimizer.v

    @pytest.mark.parametrize("lambda2", [0.0, 0.25])
    def test_chunked_step_equals_the_whole_array_formula(self, monkeypatch, lambda2):
        # sizes below the chunk, equal to it, a multiple of it and not a multiple of
        # it; the last parameter never receives a gradient. Signed zeros in the
        # parameters and gradients and magnitudes over 10 decades probe the rounding.
        monkeypatch.setattr(training, "ADAM_CHUNK", self.CHUNK)
        rng = np.random.default_rng(7)
        shapes = [(5,), (2, 4), (3, 8), (29,), (3, 3)]

        def draw(shape):
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
            values.reshape(-1)[:2] = (0.0, -0.0)
            return values

        data = [draw(shape) for shape in shapes]
        grads = [[draw(shape) for shape in shapes[:-1]] + [None] for _ in range(3)]
        got = self._three_steps(data, grads, lambda2, Adam.step)
        want = self._three_steps(data, grads, lambda2, adam_step_whole_array)
        for name, got_arrays, want_arrays in zip("pmv", got, want):
            for i, (g, w) in enumerate(zip(got_arrays, want_arrays)):
                np.testing.assert_array_equal(g, w, err_msg=f"{name}[{i}]")
                assert g.tobytes() == w.tobytes(), f"{name}[{i}] differs in a zero's sign"
        assert not np.array_equal(got[0][3], data[3])

    def test_step_on_the_default_model_allocates_under_1_mb(self):
        # the whole-array formula peaks at 18.9 MB: four copies of loc.w1 (4.7 MB)
        params = init_params(TrainConfig()).params()
        for p in params:
            p.grad = np.ones(p.shape)
        optimizer = Adam(params)
        tracemalloc.start()
        try:
            optimizer.step(4e-3, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_non_contiguous_parameter_is_refused_by_name_before_any_update(self):
        rng = np.random.default_rng(2)
        params = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  Tensor(rng.normal(size=(4, 3)).T, requires_grad=True)]
        before = [p.data.copy() for p in params]
        optimizer = Adam(params)
        with pytest.raises(ContractError, match=r"parameter 1 of shape \(3, 4\) is not "
                                                r"C-contiguous"):
            optimizer.step(4e-3, 1e-4)
        assert optimizer.t == 0
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)


class TestTrainLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_decreases_over_first_epochs(self, small_synth, seed):
        config = _config(seed=seed, epochs=3, lr_phase2=4e-3)
        model = init_params(config)
        history = train(model, small_synth["windows"], config, log=None)
        losses = [h["loss_total"] for h in history]
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]

    def test_single_window_overfit(self, small_synth):
        config = _config(anchors_per_window=ALL_ANCHORS, batch_size=1, epochs=200,
                         lr_phase2=4e-3)
        model = init_params(config)
        history = train(model, small_synth["windows"][:1], config, log=None)
        assert history[-1]["loss_total"] < 0.1

    def test_trajectory_reproducible(self, small_synth):
        config = _config(epochs=2, lr_phase2=4e-3)
        runs = []
        for _ in range(2):
            model = init_params(config)
            train(model, small_synth["windows"][:8], config, log=None)
            runs.append({n: t.data.copy() for n, t in model.named_params().items()})
        for name in runs[0]:
            np.testing.assert_array_equal(runs[0][name], runs[1][name], err_msg=name)

    def test_three_epochs_equal_a_run_under_the_reference_implementations(self, small_synth):
        # zeros-then-add gradients, the per-group conv loop, the setdiff subset and
        # add/mul with their constant-operand branches
        config = _config(model_overrides={"cardinality": 4})

        def run():
            model = init_params(config)
            examples = build_examples(model, small_synth["windows"])
            optimizer, rng = Adam(model.params()), np.random.default_rng(5)
            for epoch in range(3):
                train_epoch(model, examples, optimizer, config, config.lr_for_epoch(epoch), rng)
            return {n: t.data.copy() for n, t in model.named_params().items()}

        got = run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Tensor, "_accumulate", zeros_then_add_accumulate)
            patch.setattr(ad, "grouped_conv1d", grouped_conv1d_per_group)
            patch.setattr(training, "sample_anchor_subset", sample_anchor_subset_setdiff)
            patch.setattr(ad, "add", add_with_constant_branch)
            patch.setattr(ad, "mul", mul_with_constant_branch)
            want = run()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("synth_seed", [5, 9])
    def test_default_training_equals_per_window_weight_term(self, tmp_path, synth_seed):
        # default configs at L=100, 16 videos, batch 4: parameters and epoch losses
        # equal a run that sums the weight term on every window from the parameters
        manifest, annotations = synth_dataset(
            SynthConfig(num_videos=16, length=100, seed=synth_seed), tmp_path)
        windows = prepare_windows(*load_dataset(manifest, annotations), rescale_length=100,
                                  training=True)
        config = TrainConfig(batch_size=4)

        def run(reference: bool):
            model = init_params(config)
            examples = build_examples(model, windows)
            optimizer, rng = Adam(model.params()), np.random.default_rng(config.seed + 1)
            with pytest.MonkeyPatch.context() as patch:
                if reference:
                    patch.setattr(training, "total_loss", lambda loss_g, loss_n, weight_term:
                                  total_loss_over_params(loss_g, loss_n, model.params(),
                                                         config.lambda2))
                losses = [list(train_epoch(model, examples, optimizer, config,
                                           config.lr_for_epoch(epoch), rng).values())
                          for epoch in range(3)]
            return losses, [t.data.copy() for t in model.params()]

        got_losses, got = run(reference=False)
        want_losses, want = run(reference=True)
        np.testing.assert_array_equal(got_losses, want_losses)
        assert len(got) == 30
        for name, g, w in zip(init_params(config).named_params(), got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_learning_rate_schedule_and_metrics_log(self, small_synth, tmp_path):
        config = _config(epochs=2)
        model = init_params(config)
        train(model, small_synth["windows"][:4], config, out_dir=tmp_path, log=None)
        lines = (tmp_path / "metrics.jsonl").read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["epoch"] for r in records] == [0, 1]
        assert records[0]["lr"] == pytest.approx(4e-3)
        assert records[1]["lr"] == pytest.approx(4e-4)
        assert all({"loss_total", "loss_g", "loss_n"} <= set(r) for r in records)

    def test_checkpoint_round_trip_reproduces_outputs(self, small_synth, tmp_path):
        config = _config(epochs=1, lr_phase2=4e-3)
        model = init_params(config)
        train(model, small_synth["windows"][:4], config, out_dir=tmp_path, log=None)
        window = small_synth["windows"][0]
        with ad.no_grad():
            _, final, graph = model.forward_features(window.features)
            expected = model.forward_scores(final, graph.semantic_layers[-1]).data
        clone = init_params(_config(seed=123))
        clone.load(tmp_path / "checkpoint.tgck")
        with ad.no_grad():
            _, final2, graph2 = clone.forward_features(window.features)
            actual = clone.forward_scores(final2, graph2.semantic_layers[-1]).data
        np.testing.assert_array_equal(actual, expected)


class TestSchedule:
    def test_default_drops_the_rate_after_five_epochs(self):
        config = TrainConfig()
        assert [config.lr_for_epoch(e) for e in range(10)] == \
            [config.lr_phase1] * 5 + [config.lr_phase2] * 5

    @pytest.mark.parametrize("epochs", range(1, 12))
    def test_drop_at_half_the_epochs(self, epochs):
        # the split that `train --epochs N` always made: N // 2 epochs, then the rest
        config = TrainConfig(epochs=epochs)
        want = [config.lr_phase1] * (epochs // 2) + [config.lr_phase2] * (epochs - epochs // 2)
        assert [config.lr_for_epoch(e) for e in range(epochs)] == want


class TestConfigJson:
    def test_default_config_file_unchanged(self, tmp_path):
        config = TrainConfig()
        features = np.random.default_rng(0).normal(size=(32, 100))
        window = Window(video_id="v", features=features, offset=0, valid_length=100,
                        scale=1.0, segments=[(20.0, 40.0, "a")])
        train(init_params(config), [window], config, out_dir=tmp_path, log=None)
        assert (tmp_path / "config.json").read_text() == DEFAULT_CONFIG_JSON

    def test_numpy_scalar_fields_are_written_as_numbers(self, tmp_path, small_synth):
        plain = _config(epochs=1)
        config = _config(epochs=np.int64(1), batch_size=np.int32(8), lr_phase1=np.float32(0.5),
                         model_overrides=dict(width=np.int64(16),
                                              head_hidden=(np.int64(32), np.int16(16))))
        train(init_params(config), small_synth["windows"][:1], config,
              out_dir=tmp_path, log=None)
        written = json.loads((tmp_path / "config.json").read_text())
        assert written == {**asdict(plain), "lr_phase1": 0.5,
                           "model": {**asdict(plain.model), "head_hidden": [32, 16]}}
        assert type(written["epochs"]) is int and type(written["model"]["width"]) is int

    def test_config_is_written_before_the_first_epoch(self, tmp_path, monkeypatch, small_synth):
        class Interrupted(Exception):
            pass

        def interrupted(*args, **kwargs):
            raise Interrupted

        monkeypatch.setattr(training, "train_epoch", interrupted)
        config = _config()
        with pytest.raises(Interrupted):
            train(init_params(config), small_synth["windows"][:1], config,
                  out_dir=tmp_path, log=None)
        assert json.loads((tmp_path / "config.json").read_text()) == \
            json.loads(json.dumps(asdict(config)))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("epochs", -2), ("anchors_per_window", 0), ("seed", -1),
        ("lr_phase1", -1.0), ("lr_phase1", 0.0), ("lr_phase2", float("nan")),
        ("lr_phase2", float("inf")), ("lambda1", -1.0), ("lambda1", float("nan")),
        ("lambda2", -1e-4), ("lambda2", float("inf")), ("epochs", 2.5), ("batch_size", True),
        ("lr_phase1", "0.1"),
    ])
    def test_impossible_train_config_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"'{field}'"):
            TrainConfig(**{field: value})

    def test_zero_weight_terms_are_valid(self):
        assert TrainConfig(lambda1=0.0, lambda2=0.0).lambda2 == 0.0

    @pytest.mark.parametrize("config", [ModelConfig(), small_model_config()])
    def test_model_config_round_trip(self, config):
        assert ModelConfig(**asdict(config)) == config
        assert ModelConfig(**json.loads(json.dumps(asdict(config)))) == config

    @pytest.mark.parametrize("field, value", [
        ("c_raw", 0), ("bottleneck_ratio", 0), ("head_hidden", (512, 0)),
        ("window_length", 2), ("k_neighbors", -1), ("k_neighbors", 100),
        ("blocks", True), ("width", "32"), ("width", None), ("head_hidden", (512, 2.5)),
        ("head_hidden", 512), ("cardinality", 3),
        pytest.param("bottleneck_ratio", dict(width=30, bottleneck_ratio=4),
                     id="width-30-bottleneck_ratio-4"),
    ])
    def test_impossible_model_config_names_the_field(self, field, value):
        # a dict value sets several fields, each valid alone
        with pytest.raises(ConfigError, match=f"'{field}'"):
            ModelConfig(**(value if isinstance(value, dict) else {field: value}))

    def test_numpy_integers_are_integers(self):
        config = ModelConfig(width=np.int64(16), head_hidden=[np.int32(8), 4])
        assert config.head_hidden == (8, 4)


def test_production_path_builds_no_dense_adjacency(small_synth, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense adjacency built on the forward/backward path")

    for module in (video_graph, backbone):
        for name in ("temporal_adjacency", "semantic_adjacency"):
            monkeypatch.setattr(module, name, forbidden)
    config = _config()
    model = init_params(config)
    examples = build_examples(model, small_synth["windows"][:2])
    with ad.no_grad():
        block1, final, graph = model.forward_features(examples[0].window.features)
        model.forward_scores(final, graph.semantic_layers[-1])
        node_branch_forward(block1, model.node_head)
    train_epoch(model, examples, Adam(model.params()), config, lr=1e-3,
                rng=np.random.default_rng(0))
