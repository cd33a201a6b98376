"""Parameter archive round trips and corruption handling."""

import tracemalloc

import numpy as np
import pytest
from conftest import small_model_config

from tadgraph import autodiff
from tadgraph.checkpoint import load_checkpoint, save_checkpoint
from tadgraph.errors import FormatError
from tadgraph.model import Detector, ModelConfig


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "proj": rng.normal(size=(8, 3)),
        "block0.t_conv": rng.normal(size=(3, 2, 4)),
        "loc.b3": np.zeros(2),
    }
    path = tmp_path / "model.tgck"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
        assert loaded[name].dtype == np.float64


def test_loaded_parameters_are_writable_copies(tmp_path):
    # each array owns its data, so training can update it in place; a (0, 3)
    # parameter and one after it still round trip
    params = {"empty": np.zeros((0, 3)), "w": np.arange(6.0).reshape(2, 3)}
    path = tmp_path / "model.tgck"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    for name, value in loaded.items():
        assert value.flags.owndata and value.flags.writeable and value.flags.c_contiguous, name
        np.testing.assert_array_equal(value, params[name])
    assert loaded["empty"].shape == (0, 3)


@pytest.mark.parametrize("dropped", [1, 7, 8, 32])
def test_payload_truncated_anywhere_rejected(tmp_path, dropped):
    # 'b' is the last entry, with a 32-byte payload
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"a": np.ones(3), "b": np.ones((2, 2))})
    path.write_bytes(path.read_bytes()[:-dropped])
    with pytest.raises(FormatError, match="truncated payload for parameter 'b'"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones(2)})
    raw = bytearray(path.read_bytes())
    raw[4] += 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones(2)})
    path.write_bytes(path.read_bytes().replace(b"w", b"\xff", 1))
    with pytest.raises(FormatError, match="not UTF-8"):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones(2)})
    path.write_bytes(path.read_bytes()[:16])
    with pytest.raises(FormatError, match="truncated checkpoint header"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.tgck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones((4, 4))})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_repeated_parameter_name_rejected(tmp_path):
    # 'v' renamed 'w' in place, so the file holds 'w' twice; the second copy
    # must not silently replace the first
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones(2), "v": np.zeros(2)})
    path.write_bytes(path.read_bytes().replace(b"\x01\x00v", b"\x01\x00w"))
    with pytest.raises(FormatError, match="parameter 'w' appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("extra", [1, 8, 40])
def test_bytes_after_the_last_entry_rejected(tmp_path, extra):
    path = tmp_path / "model.tgck"
    save_checkpoint(path, {"w": np.ones((2, 2))})
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(FormatError, match=f"{extra} bytes after the last parameter"):
        load_checkpoint(path)


def test_model_rejects_parameter_it_does_not_have(tmp_path):
    path = tmp_path / "model.tgck"
    Detector(small_model_config(blocks=3), np.random.default_rng(0)).save(path)
    model = Detector(small_model_config(blocks=2), np.random.default_rng(1))
    before = {name: t.data.copy() for name, t in model.named_params().items()}
    with pytest.raises(FormatError, match="'block2.t_in' is not in the model"):
        model.load(path)
    for name, tensor in model.named_params().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


def test_model_mismatch_replaces_no_parameter(tmp_path):
    # loc.w2 is the first mismatch, after every backbone parameter and loc.w1
    path = tmp_path / "model.tgck"
    Detector(small_model_config(head_hidden=(32, 8)), np.random.default_rng(0)).save(path)
    model = Detector(small_model_config(head_hidden=(32, 16)), np.random.default_rng(1))
    before = {name: t.data.copy() for name, t in model.named_params().items()}
    with pytest.raises(FormatError, match="'loc.w2' has shape"):
        model.load(path)
    for name, tensor in model.named_params().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


def test_model_missing_a_parameter_replaces_no_parameter(tmp_path):
    # block1.t_in is the first parameter that a one-block checkpoint lacks
    path = tmp_path / "model.tgck"
    Detector(small_model_config(blocks=1), np.random.default_rng(0)).save(path)
    model = Detector(small_model_config(blocks=2), np.random.default_rng(1))
    before = {name: t.data.copy() for name, t in model.named_params().items()}
    with pytest.raises(FormatError, match="checkpoint missing parameter 'block1.t_in'"):
        model.load(path)
    for name, tensor in model.named_params().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_model_rejects_non_finite_parameter_by_name(tmp_path, bad):
    path = tmp_path / "model.tgck"
    source = Detector(small_model_config(), np.random.default_rng(0))
    source.loc_head.w1.data[3, 1] = bad
    source.save(path)
    model = Detector(small_model_config(), np.random.default_rng(1))
    before = {name: t.data.copy() for name, t in model.named_params().items()}
    with pytest.raises(FormatError, match="parameter 'loc.w1' holds a non-finite value"):
        model.load(path)
    for name, tensor in model.named_params().items():
        np.testing.assert_array_equal(tensor.data, before[name], err_msg=name)



def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a parameter was drawn")
    monkeypatch.setattr(autodiff, "uniform_param", refuse)


def test_from_checkpoint_reads_every_parameter_without_a_draw(tmp_path, monkeypatch):
    path = tmp_path / "model.tgck"
    config = small_model_config()
    Detector(config, np.random.default_rng(0)).save(path)
    expected = Detector(config, np.random.default_rng(1))
    expected.load(path)
    _refuse_draws(monkeypatch)
    got = Detector.from_checkpoint(config, path).named_params()
    assert list(got) == list(expected.named_params())
    for name, tensor in expected.named_params().items():
        assert got[name].requires_grad, name
        np.testing.assert_array_equal(got[name].data, tensor.data, err_msg=name)


@pytest.mark.parametrize("stored, message", [
    (dict(blocks=3), "'block2.t_in' is not in the model"),
    (dict(head_hidden=(32, 8)), "'loc.w2' has shape"),
    (dict(), "'loc.w1' holds a non-finite value"),
], ids=["extra", "shape", "non-finite"])
def test_from_checkpoint_refuses_a_mismatch_by_name(tmp_path, monkeypatch, stored, message):
    path = tmp_path / "model.tgck"
    source = Detector(small_model_config(**stored), np.random.default_rng(0))
    if not stored:
        source.loc_head.w1.data[3, 1] = np.nan
    source.save(path)
    _refuse_draws(monkeypatch)
    with pytest.raises(FormatError, match=message):
        Detector.from_checkpoint(small_model_config(), path)


def test_load_holds_one_copy_of_the_payload(tmp_path):
    # the L=256 model's 5.3 MB of parameters: each payload is read from the file
    # into its own array, so the load peaks near one copy (5.4 MB here); reading
    # the whole file first and copying each array out of it peaked at 10.7 MB
    path = tmp_path / "model.tgck"
    Detector(ModelConfig(window_length=256), np.random.default_rng(0)).save(path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    payload = sum(value.nbytes for value in loaded.values())
    assert payload > 5e6
    assert peak < 1.25 * payload


def test_zero_size_parameters_round_trip(tmp_path):
    # an empty payload reads no bytes, between, before and after other entries; a 0-d
    # parameter keeps rank 0, apart from shapes (1,) and (0,)
    params = {"none": np.zeros(0), "w": np.arange(6.0).reshape(2, 3), "rows": np.zeros((0, 3)),
              "cols": np.zeros((2, 0, 4)), "scalar": np.array(2.5), "one": np.array([-1.5]),
              "last": np.zeros((3, 0))}
    path = tmp_path / "model.tgck"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    for name, value in params.items():
        assert loaded[name].shape == value.shape, name
        np.testing.assert_array_equal(loaded[name], value)
