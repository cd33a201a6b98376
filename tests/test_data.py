"""Feature files, manifests, rescaling, windowing, synthetic data."""

import hashlib
import json

import numpy as np
import pytest

from tadgraph.data import (AnnotationSet, FeatureSequence, SynthConfig,
                           load_annotations, load_dataset, prepare_windows,
                           read_feature_file, rescale_sequence, synth_dataset,
                           write_feature_file)
from tadgraph.errors import ConfigError, DataError, FormatError
from tadgraph.heads import assign_anchor_labels


MISSING = object()


def _set_or_delete(entry: dict, key: str, value) -> None:
    if value is MISSING:
        del entry[key]
    else:
        entry[key] = value


def _seq(features, duration=None, rate=1.0, video_id="v0"):
    features = np.asarray(features, dtype=np.float64)
    duration = duration if duration is not None else features.shape[0] * rate
    return FeatureSequence(video_id, features, duration, rate)


class TestFeatureFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(12, 5)).astype(np.float32)
        path = tmp_path / "v.fseq"
        write_feature_file(path, feats)
        loaded = read_feature_file(path)
        np.testing.assert_array_equal(loaded, feats.astype(np.float64))

    def test_truncated_payload_is_format_error(self, tmp_path):
        path = tmp_path / "v.fseq"
        write_feature_file(path, np.zeros((4, 3), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="v.fseq"):
            read_feature_file(path)

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "v.fseq"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_data_error(self, tmp_path, value):
        features = np.zeros((4, 3), dtype=np.float32)
        features[2, 1] = value
        write_feature_file(tmp_path / "v.fseq", features)
        with pytest.raises(DataError, match="v.fseq.*non-finite"):
            read_feature_file(tmp_path / "v.fseq")


class TestLoadDataset:
    def test_empty_manifest_ok(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        sequences, annotations = load_dataset(manifest)
        assert sequences == [] and annotations.by_video == {}

    def test_missing_feature_file(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"video_id": "v", "feature_file": "nope.fseq",
                                         "duration_seconds": 10, "sampling_rate": 1}]))
        with pytest.raises(FormatError, match="nope.fseq"):
            load_dataset(manifest)

    @pytest.mark.parametrize("videos, error, match", [
        ([("a", (10, 4)), ("b", (0, 4))], DataError, "'b' has no snippets"),
        ([("a", (10, 4)), ("b", (10, 6))], DataError,
         "'b' has 6 feature channels, video 'a' has 4"),
        ([("a", (10, 4)), ("a", (10, 4))], FormatError, "'a' is listed twice"),
    ], ids=["no-snippets", "mixed-channels", "repeated-id"])
    def test_unusable_manifest_names_the_video(self, tmp_path, videos, error, match):
        entries = []
        for i, (video_id, shape) in enumerate(videos):
            write_feature_file(tmp_path / f"f{i}.fseq", np.zeros(shape, dtype=np.float32))
            entries.append({"video_id": video_id, "feature_file": f"f{i}.fseq",
                            "duration_seconds": 10, "sampling_rate": 1})
        (tmp_path / "manifest.json").write_text(json.dumps(entries))
        with pytest.raises(error, match=match):
            load_dataset(tmp_path / "manifest.json")

    def test_annotation_outside_duration(self, tmp_path):
        write_feature_file(tmp_path / "v.fseq", np.zeros((10, 2), dtype=np.float32))
        (tmp_path / "manifest.json").write_text(json.dumps(
            [{"video_id": "v", "feature_file": "v.fseq",
              "duration_seconds": 10, "sampling_rate": 1}]))
        (tmp_path / "ann.json").write_text(json.dumps(
            {"database": {"v": {"duration": 30, "subset": "training",
                                "annotations": [{"segment": [5, 25], "label": "a"}]}}}))
        with pytest.raises(DataError):
            load_dataset(tmp_path / "manifest.json", tmp_path / "ann.json")

    def test_annotation_past_declared_duration(self, tmp_path):
        (tmp_path / "ann.json").write_text(json.dumps(
            {"database": {"v": {"duration": 10, "subset": "training",
                                "annotations": [{"segment": [5, 25], "label": "a"}]}}}))
        with pytest.raises(DataError):
            load_annotations(tmp_path / "ann.json")

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(key, MISSING, id=key) for key in ("feature_file", "video_id",
                                                          "duration_seconds", "sampling_rate")),
        pytest.param("video_id", None, id="null-video_id"),
        pytest.param("video_id", False, id="bool-video_id"),
        pytest.param("video_id", ["v"], id="list-video_id"),
        pytest.param("video_id", {"v": 1}, id="object-video_id"),
        pytest.param("duration_seconds", True, id="bool-duration_seconds"),
        pytest.param("sampling_rate", True, id="bool-sampling_rate"),
    ])
    def test_manifest_entry_missing_key_is_format_error(self, tmp_path, key, value):
        # so is a value of the wrong JSON kind: a name is a string or a number, and a
        # bool is no number
        write_feature_file(tmp_path / "v.fseq", np.zeros((10, 2), dtype=np.float32))
        entry = {"video_id": "v", "feature_file": "v.fseq",
                 "duration_seconds": 10, "sampling_rate": 1}
        _set_or_delete(entry, key, value)
        (tmp_path / "manifest.json").write_text(json.dumps([entry]))
        with pytest.raises(FormatError, match=f"manifest.json: .*{key}"):
            load_dataset(tmp_path / "manifest.json")

    @pytest.mark.parametrize("text", ["{", "[]", '{"database": []}'])
    def test_non_database_annotations_are_format_error(self, tmp_path, text):
        (tmp_path / "ann.json").write_text(text)
        with pytest.raises(FormatError, match="not an annotation database"):
            load_annotations(tmp_path / "ann.json")

    @pytest.mark.parametrize("key, value", [
        *(pytest.param(key, MISSING, id=key) for key in ("duration", "segment", "label")),
        pytest.param("duration", True, id="bool-duration"),
        pytest.param("segment", [2, True], id="bool-segment"),
        pytest.param("label", None, id="null-label"),
        pytest.param("label", False, id="bool-label"),
    ])
    def test_annotation_entry_missing_key_is_format_error(self, tmp_path, key, value):
        # so is a value of the wrong JSON kind, as in a manifest entry
        video = {"duration": 10, "subset": "training",
                 "annotations": [{"segment": [2, 5], "label": "a"}]}
        _set_or_delete(video if key == "duration" else video["annotations"][0], key, value)
        (tmp_path / "ann.json").write_text(json.dumps({"database": {"v": video}}))
        with pytest.raises(FormatError, match=f"ann.json: .*'v'.*{key}"):
            load_annotations(tmp_path / "ann.json")


class TestRescale:
    def test_same_length_identity(self):
        seq = _seq(np.arange(12.0).reshape(6, 2))
        assert rescale_sequence(seq, 6) is seq

    def test_constant_preserved(self):
        out = rescale_sequence(_seq(np.full((7, 3), 2.0)), 19)
        np.testing.assert_allclose(out.features, 2.0)

    def test_ramp_matches_analytic_resampling(self):
        out = rescale_sequence(_seq(np.arange(10.0)[:, None]), 5)
        np.testing.assert_allclose(out.features[:, 0], [0.0, 2.25, 4.5, 6.75, 9.0])

    def test_round_trip_constant_identity(self):
        seq = _seq(np.full((8, 2), -3.0))
        back = rescale_sequence(rescale_sequence(seq, 21), 8)
        np.testing.assert_allclose(back.features, seq.features)


class TestWindowing:
    """Strided windows of one video at sampling rate 1, where seconds are indices."""

    @staticmethod
    def _windows(length, training=False, segments=(), window_length=256, stride=128,
                 features=None):
        seq = _seq(np.zeros((length, 2)) if features is None else features)
        return prepare_windows([seq], AnnotationSet({"v0": list(segments)}),
                               window_length=window_length, stride=stride, training=training)

    def test_exact_cover_starts(self):
        windows = self._windows(512)
        assert [w.offset for w in windows] == [0, 128, 256]
        assert all(w.valid_length == 256 for w in windows)

    def test_short_sequence_single_padded_window(self):
        windows = self._windows(100, features=np.ones((100, 2)))
        assert len(windows) == 1
        assert windows[0].valid_length == 100
        assert windows[0].features.shape == (2, 256)
        assert not windows[0].features[:, 100:].any()

    def test_partial_final_window_covers_tail(self):
        windows = self._windows(513)
        assert [w.offset for w in windows] == [0, 128, 256, 384]
        covered = set()
        for w in windows:
            covered.update(range(w.offset, w.offset + w.valid_length))
        assert covered == set(range(513))

    def test_training_filter_drops_void_windows(self):
        windows = self._windows(512, training=True, segments=[(10.0, 20.0, "a")])
        assert [w.offset for w in windows] == [0]
        assert windows[0].segments == [(10.0, 20.0, "a")]

    def test_training_filter_keeps_every_overlapping_window(self):
        segs = [(10.0, 20.0, "a"), (120.0, 140.0, "b")]
        windows = self._windows(512, training=True, segments=segs)
        assert [w.offset for w in windows] == [0, 128]
        assert windows[1].segments == [(0.0, 12.0, "b")]

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError, match="stride 4"):
            self._windows(10, window_length=4, stride=4)


class TestPrepareWindows:
    """Both windowing modes build their windows through one path."""

    def test_rescale_mode_drops_annotations_under_one_index(self):
        # a 200 s video at L=100: the first would clip to (99.6, 99.0), the
        # second to (60.0, 60.45)
        seq = _seq(np.zeros((200, 2)))
        anns = AnnotationSet({"v0": [(199.2, 200.0, "a"), (120.0, 120.9, "b"),
                                     (10.0, 30.0, "c")]})
        for training in (False, True):
            (window,) = prepare_windows([seq], anns, rescale_length=100, training=training)
            assert window.segments == [(5.0, 15.0, "c")]
            assert window.scale == 2.0 and seq.sampling_rate == 1.0

    def test_training_drops_a_video_whose_only_annotation_is_dropped(self):
        seq = _seq(np.zeros((200, 2)))
        anns = AnnotationSet({"v0": [(199.2, 200.0, "a")]})
        assert prepare_windows([seq], anns, rescale_length=100, training=True) == []
        assert len(prepare_windows([seq], anns, rescale_length=100)) == 1

    @pytest.mark.parametrize("length, window_args", [
        (37, dict(rescale_length=50)),
        (50, dict(rescale_length=50)),
        (300, dict(window_length=256, stride=128)),
        (100, dict(window_length=256, stride=128)),
    ], ids=["rescaled", "same-length", "strided", "short"])
    def test_features_are_f_order_rows_then_zeros(self, length, window_args):
        rng = np.random.default_rng(length)
        seq = _seq(rng.normal(size=(length, 3)))
        rows = (rescale_sequence(seq, window_args["rescale_length"]).features
                if "rescale_length" in window_args else seq.features)
        windows = prepare_windows([seq], AnnotationSet(), **window_args)
        assert windows
        for window in windows:
            size = window.features.shape[1]
            block = rows[window.offset:window.offset + window.valid_length]
            expected = np.concatenate([block, np.zeros((size - len(block), 3))])
            assert window.features.shape == (3, size) and window.features.flags.f_contiguous
            np.testing.assert_array_equal(window.features, expected.T)


class TestSynthDataset:
    def test_zero_noise_plants_exact_signatures(self, tmp_path):
        config = SynthConfig(num_videos=3, length=50, c_raw=4, noise=0.0, seed=1,
                             num_classes=2)
        manifest, annotations = synth_dataset(config, tmp_path)
        sequences, anns = load_dataset(manifest, annotations)
        rng = np.random.default_rng(config.seed)
        signatures = rng.normal(0.0, 1.0, size=(2, 4)).astype(np.float32)
        for seq in sequences:
            for start, end, label in anns.segments(seq.video_id):
                cls = int(label.split("_")[1])
                s, e = int(start), int(end)
                np.testing.assert_array_equal(
                    seq.features[s:e + 1],
                    np.tile(signatures[cls].astype(np.float64), (e - s + 1, 1)))

    def test_same_seed_bit_identical(self, tmp_path):
        config = SynthConfig(num_videos=4, length=40, c_raw=3, seed=7)
        m1, a1 = synth_dataset(config, tmp_path / "one")
        m2, a2 = synth_dataset(config, tmp_path / "two")
        assert m1.read_text() == m2.read_text()
        assert a1.read_text() == a2.read_text()
        for entry in json.loads(m1.read_text()):
            f1 = (tmp_path / "one" / entry["feature_file"]).read_bytes()
            f2 = (tmp_path / "two" / entry["feature_file"]).read_bytes()
            assert f1 == f2

    def test_different_seed_differs(self, tmp_path):
        m1, _ = synth_dataset(SynthConfig(num_videos=2, length=40, c_raw=3, seed=1),
                              tmp_path / "one")
        m2, _ = synth_dataset(SynthConfig(num_videos=2, length=40, c_raw=3, seed=2),
                              tmp_path / "two")
        e1, e2 = json.loads(m1.read_text())[0], json.loads(m2.read_text())[0]
        f1 = (tmp_path / "one" / e1["feature_file"]).read_bytes()
        f2 = (tmp_path / "two" / e2["feature_file"]).read_bytes()
        assert f1 != f2

    def test_true_segments_yield_label_one(self, tmp_path):
        config = SynthConfig(num_videos=5, length=100, c_raw=8, seed=3)
        manifest, annotations = synth_dataset(config, tmp_path)
        sequences, anns = load_dataset(manifest, annotations)
        windows = prepare_windows(sequences, anns, rescale_length=100, training=True)
        for window in windows:
            segs = [(s, e) for s, e, _ in window.segments]
            anchors = np.asarray(segs)
            labels = assign_anchor_labels(anchors, segs)
            np.testing.assert_allclose(labels, 1.0)

    # SHA-256 over every written file (relative path, then bytes), recorded
    # when every action of these configs was placed by the rejection sampler
    @pytest.mark.parametrize("config, digest", [
        (SynthConfig(num_videos=40, length=50, c_raw=6, num_classes=2, duration_min=5,
                     duration_max=14, noise=0.5, seed=11),
         "87717bc47919430694fc59b21031b51f3a414f310ae68ff2d0f36266d297e33f"),
        (SynthConfig(num_videos=8, length=50, c_raw=6, noise=0.4, seed=5),
         "93faef9c9b75fe3b5c566e5c1e8a811a5ed70064a39d72942a54046ec9a2ae21"),
        (SynthConfig(num_videos=2, length=300, seed=3),
         "7a5d092b80c2881c0d7c88014d8d38c37127838cd02dcc7330ecb7e6bffab374"),
    ], ids=["conftest", "cli-pipeline", "long"])
    def test_written_bytes_are_pinned(self, tmp_path, config, digest):
        synth_dataset(config, tmp_path)
        h = hashlib.sha256()
        for path in sorted(tmp_path.rglob("*.*")):
            h.update(path.relative_to(tmp_path).as_posix().encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("length", [26, 30, 34])
    def test_short_videos_place_every_action(self, tmp_path, length):
        config = SynthConfig(num_videos=20, length=length, c_raw=2)
        _, annotations = synth_dataset(config, tmp_path)
        for entry in json.loads(annotations.read_text())["database"].values():
            segments = [a["segment"] for a in entry["annotations"]]
            assert config.actions_min <= len(segments) <= config.actions_max
            assert all(1 <= s and e <= length - 2 for s, e in segments)
            assert all(e + 2 <= s for (_, e), (s, _) in zip(segments, segments[1:]))

    # each row is refused naming its first field; the defaults' up to 3 actions of
    # at least 6 snippets need a length of 3 * (6 + 2) + 1 = 25, and 2 actions 17
    IMPOSSIBLE_SYNTH = [
        dict(num_videos=2.5), dict(num_videos=0), dict(c_raw=True), dict(noise="0.5"),
        dict(seconds_per_snippet=0.0), dict(duration_min="6"), dict(length=8),
        dict(actions_max=0), dict(length=24), dict(length=16, actions_max=2),
    ]

    @pytest.mark.parametrize("fields", IMPOSSIBLE_SYNTH, ids=[
        "-".join(f"{name}-{value}" for name, value in row.items()) for row in IMPOSSIBLE_SYNTH])
    def test_impossible_synth_config_names_the_field(self, fields):
        with pytest.raises(ConfigError, match=f"'{next(iter(fields))}'"):
            SynthConfig(**fields)

    def test_actions_that_cannot_fit_are_config_error(self, tmp_path):
        # three actions of at least 6 snippets need 3 * (6 + 2) + 1 = 25 snippets: fewer
        # are refused before anything is written, and 25 hold all three in every video
        with pytest.raises(ConfigError, match="'length'"):
            SynthConfig(num_videos=1, length=20, c_raw=2, actions_min=3)
        config = SynthConfig(num_videos=20, length=25, c_raw=2, actions_min=3)
        _, annotations = synth_dataset(config, tmp_path)
        for entry in json.loads(annotations.read_text())["database"].values():
            segments = [a["segment"] for a in entry["annotations"]]
            assert len(segments) == 3 and segments[-1][1] <= 25 - 2
        SynthConfig(length=17, actions_max=2)
