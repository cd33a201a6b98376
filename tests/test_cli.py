"""Command-line pipeline behaviour and exit codes."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import small_model_config
from tadgraph import cli
from tadgraph.checkpoint import load_checkpoint, save_checkpoint
from tadgraph.cli import dispatch
from tadgraph.data import SynthConfig, load_annotations, write_feature_file
from tadgraph.inference import RAW_VERSION, read_raw_scores
from tadgraph.model import Detector, ModelConfig
from tadgraph.training import TrainConfig


def _detections_from_annotations(annotations_path, out_path):
    annotations = load_annotations(annotations_path)
    payload = {"version": "test", "results": {
        video: [{"segment": [s, e], "score": 1.0, "label": label}
                for s, e, label in segs]
        for video, segs in annotations.by_video.items()}}
    out_path.write_text(json.dumps(payload))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> train -> infer on a miniature dataset, via the CLI."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    data = root / "data"
    run = root / "run"
    assert dispatch(["synth", "--out", str(data), "--num-videos", "8",
                     "--length", "50", "--c-raw", "6", "--noise", "0.4",
                     "--seed", "5"]) == 0
    train_args = ["train", "--manifest", str(data / "manifest.json"),
                  "--annotations", str(data / "annotations.json"),
                  "--out", str(run), "--rescale-length", "50",
                  "--width", "16", "--cardinality", "2", "--k-neighbors", "2",
                  "--tau1", "8", "--tau2", "2", "--max-duration", "16",
                  "--epochs", "2", "--batch-size", "4",
                  "--anchors-per-window", "64", "--quiet"]
    assert dispatch(train_args) == 0
    detections = root / "detections.json"
    raw = root / "raw.json"
    assert dispatch(["infer", "--manifest", str(data / "manifest.json"),
                     "--checkpoint", str(run / "checkpoint.tgck"),
                     "--rescale-length", "50",
                     "--out", str(detections), "--save-raw", str(raw)]) == 0
    return {"root": root, "data": data, "run": run,
            "detections": detections, "raw": raw}


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline["run"] / "checkpoint.tgck").exists()
        assert (pipeline["run"] / "config.json").exists()
        assert (pipeline["run"] / "metrics.jsonl").exists()
        payload = json.loads(pipeline["detections"].read_text())
        assert payload["results"] and all(
            "segment" in d for dets in payload["results"].values() for d in dets)

    def test_eval_produces_average_map(self, pipeline, tmp_path):
        report_path = tmp_path / "report.json"
        code = dispatch(["eval", "--detections", str(pipeline["detections"]),
                         "--annotations", str(pipeline["data"] / "annotations.json"),
                         "--class-agnostic", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert "average_mAP" in report
        assert 0.0 <= report["average_mAP"] <= 1.0

    def test_grid_alpha_sweep(self, pipeline, tmp_path):
        code = dispatch(["eval", "--raw-scores", str(pipeline["raw"]),
                         "--annotations", str(pipeline["data"] / "annotations.json"),
                         "--class-agnostic", "--thresholds", "0.5",
                         "--out", str(tmp_path / "grid.json")])
        assert code == 0

    def test_eval_default_flags_refuse_infer_labels(self, pipeline, capsys):
        # infer labels every detection "action", which no annotation uses
        assert dispatch(["eval", "--detections", str(pipeline["detections"]),
                         "--annotations", str(pipeline["data"] / "annotations.json")]) == 1
        assert "--class-agnostic" in capsys.readouterr().err

    def test_grid_alpha_default_flags_refuse_infer_labels(self, pipeline, capsys):
        assert dispatch(["eval", "--raw-scores", str(pipeline["raw"]),
                         "--annotations", str(pipeline["data"] / "annotations.json"),
                         "--thresholds", "0.5"]) == 1
        assert "--class-agnostic" in capsys.readouterr().err

    def test_infer_with_fewer_blocks_than_checkpoint_is_data_error(self, pipeline, tmp_path,
                                                                    capsys):
        assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--rescale-length", "50", "--blocks", "2",
                         "--out", str(tmp_path / "d.json")]) == 2
        assert "'block2." in capsys.readouterr().err

    def _infer_with_w1(self, pipeline, tmp_path, edit):
        """``infer`` with a copy of the trained run whose loc.w1 ``edit`` rewrote."""
        run = tmp_path / "run"
        shutil.copytree(pipeline["run"], run)
        params = load_checkpoint(run / "checkpoint.tgck")
        params["loc.w1"] = edit(params["loc.w1"])
        save_checkpoint(run / "checkpoint.tgck", params)
        return dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(run / "checkpoint.tgck"),
                         "--rescale-length", "50", "--out", str(tmp_path / "d.json")])

    def test_infer_with_nan_weight_is_data_error(self, pipeline, tmp_path, capsys):
        def poison(w1):
            w1[0, 0] = np.nan
            return w1

        assert self._infer_with_w1(pipeline, tmp_path, poison) == 2
        assert "'loc.w1' holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("extra, edit, message", [
        # a last entry 'loc.b4' renamed 'loc.b3' in place: loading it would replace
        # the trained bias
        ({"loc.b4": np.ones(2)}, lambda raw: raw.replace(b"loc.b4", b"loc.b3"),
         "'loc.b3' appears twice"),
        ({}, lambda raw: raw + b"\x00" * 3, "3 bytes after the last parameter"),
    ], ids=["repeated-name", "trailing-bytes"])
    def test_infer_with_a_malformed_checkpoint_is_data_error(self, pipeline, tmp_path, capsys,
                                                              extra, edit, message):
        run = tmp_path / "run"
        shutil.copytree(pipeline["run"], run)
        path = run / "checkpoint.tgck"
        save_checkpoint(path, {**load_checkpoint(path), **extra})
        path.write_bytes(edit(path.read_bytes()))
        assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(path), "--out", str(tmp_path / "d.json")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda w: w.update(offset=-50), "needs offset >= 0"),
        (lambda w: w.update(valid_length=0), "valid_length 0"),
        (lambda w: w["anchors"][-1].reverse(), "anchor other than 0 <= t_s < t_e"),
        (lambda w: w["anchors"][0].__setitem__(0, -1), "anchor other than 0 <= t_s < t_e"),
        (lambda w: w.update(offset=3.7), "3.7 would be read as 3"),
        (lambda w: w.update(valid_length=True), "true would be read as 1"),
        (lambda w: w["anchors"].__setitem__(0, [1.5, 4.2]), "1.5 would be read as 1"),
        (lambda w: w.update(video_id=None), "video_id: null is not a name"),
        (lambda w: w.update(scale=True), "scale: true would be read as 1.0"),
        (lambda w: w["p_cls"].__setitem__(0, True), "p_cls: a boolean is not a score"),
        (lambda w: w["p_reg"].__setitem__(0, False), "p_reg: a boolean is not a score"),
    ], ids=["negative-offset", "empty-window", "end-before-start", "negative-start",
            "real-offset", "bool-valid-length", "real-anchor", "null-video-id", "bool-scale",
            "bool-p-cls", "bool-p-reg"])
    def test_raw_scores_outside_the_window_are_data_error(self, pipeline, tmp_path, capsys,
                                                          edit, message):
        payload = json.loads(pipeline["raw"].read_text())
        window = payload["windows"][1]
        edit(window)
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(payload))
        out = tmp_path / "report.json"
        assert dispatch(["eval", "--raw-scores", str(raw),
                         "--annotations", str(pipeline["data"] / "annotations.json"),
                         "--class-agnostic", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and f"window of '{window['video_id']}' at offset" in err
        assert not out.exists()

    def test_infer_with_overflowing_head_is_numeric_failure(self, pipeline, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = self._infer_with_w1(pipeline, tmp_path, lambda w1: np.sign(w1) * 1e307)
        assert code == 3
        assert "localization head" in capsys.readouterr().err
        assert not (tmp_path / "d.json").exists()

    def test_sidecar_with_impossible_model_is_data_error(self, pipeline, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline["run"], run)
        sidecar = json.loads((run / "config.json").read_text())
        sidecar["model"]["blocks"] = 0
        (run / "config.json").write_text(json.dumps(sidecar))
        assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(run / "checkpoint.tgck"),
                         "--rescale-length", "50", "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'blocks'" in err

    @pytest.mark.parametrize("command, flags", [
        ("infer", ["--top-m", "0"]), ("infer", ["--top-m", "-3"]),
        ("infer", ["--nms-sigma", "0", "--nms-method", "gaussian"]),
        ("infer", ["--nms-threshold", "1.5"]), ("infer", ["--alpha", "-0.1"]),
        ("infer", ["--alpha", "nan"]), ("eval", ["--top-m", "0"]),
        # linear decay reads no sigma, so the flag would change nothing
        ("infer", ["--nms-sigma", "0.05"]),
        ("infer", ["--nms-sigma", "0.05", "--nms-method", "linear"]),
        ("eval", ["--nms-sigma", "0.05"]),
        # Gaussian decay reads no threshold
        ("infer", ["--nms-threshold", "0.1", "--nms-method", "gaussian"]),
        ("eval", ["--nms-threshold", "0.1", "--nms-method", "gaussian"]),
    ], ids=["top-m-0", "top-m-negative", "sigma-0", "threshold-above-1", "alpha-negative",
            "alpha-nan", "grid-alpha-top-m-0", "sigma-without-method",
            "sigma-with-linear", "grid-alpha-sigma-without-method",
            "threshold-with-gaussian", "grid-alpha-threshold-with-gaussian"])
    def test_nms_flag_out_of_range_is_usage_error(self, pipeline, tmp_path, capsys,
                                                  command, flags):
        out = tmp_path / "d.json"
        if command == "infer":
            args = ["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                    "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                    "--rescale-length", "50", "--out", str(out)]
        else:
            args = ["eval", "--raw-scores", str(pipeline["raw"]),
                    "--annotations", str(pipeline["data"] / "annotations.json"),
                    "--class-agnostic", "--out", str(out)]
        assert dispatch([*args, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0] in err
        assert not out.exists()

    def test_infer_reads_arch_from_sidecar(self, pipeline, tmp_path):
        # no architecture flags: sidecar config.json must reconstruct the model
        out = tmp_path / "d2.json"
        code = dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--rescale-length", "50", "--out", str(out)])
        assert code == 0
        first = json.loads(pipeline["detections"].read_text())
        second = json.loads(out.read_text())
        assert first["results"] == second["results"]

    def test_infer_without_windowing_flag_rescales_to_the_trained_length(self, pipeline,
                                                                         tmp_path):
        out = tmp_path / "d.json"
        assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--out", str(out)]) == 0
        first = json.loads(pipeline["detections"].read_text())
        assert json.loads(out.read_text())["results"] == first["results"]

    def test_export_graph_without_windowing_flag_takes_the_trained_length(self, pipeline,
                                                                          tmp_path):
        out = tmp_path / "g.json"
        assert dispatch(["export-graph", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["L"] == 50

    @pytest.mark.parametrize("flags", [["--rescale-length", "100"], ["--window-size", "20"]],
                             ids=["rescale-length", "window-size"])
    @pytest.mark.parametrize("command", ["infer", "export-graph"])
    def test_window_length_other_than_the_trained_one_is_usage_error(self, pipeline, tmp_path,
                                                                     capsys, command, flags):
        out = tmp_path / "out.json"
        assert dispatch([command, "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and " ".join(flags) in err and "length 50" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--tau1", "6", "--tau2", "4"], "--tau1 6 differs from the tau1 8"),
        (["--tau2", "3"], "--tau2 3 differs from the tau2 2"),
    ], ids=["re-split", "tau2"])
    @pytest.mark.parametrize("command", ["infer", "export-graph"])
    def test_tau_other_than_the_trained_one_is_usage_error(self, pipeline, tmp_path, capsys,
                                                           command, flags, named):
        # the head's first layer has (tau1 + tau2) * width rows, so a re-split
        # checkpoint would load and score every anchor from rows it was not trained on
        out = tmp_path / "out.json"
        assert dispatch([command, "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--nms-method", "gaussian"], ["--nms-threshold", "0.5"],
        ["--nms-sigma", "0.5"], ["--top-m", "5"], ["--raw-scores", "RAW"],
    ], ids=["nms-method", "nms-threshold", "nms-sigma", "top-m", "raw-scores"])
    def test_detections_with_a_flag_eval_would_not_read_is_usage_error(self, pipeline,
                                                                        tmp_path, capsys, flags):
        flags = [str(pipeline["raw"]) if flag == "RAW" else flag for flag in flags]
        out = tmp_path / "report.json"
        assert dispatch(["eval", "--detections", str(pipeline["detections"]),
                         "--annotations", str(pipeline["data"] / "annotations.json"),
                         "--class-agnostic", "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flags[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("eval", ["--alpha", "0.5"]), ("eval", ["--grid-alpha"]),
        ("infer", ["--annotations", "ANN"]), ("export-graph", ["--annotations", "ANN"]),
        *((command, ["--config", "opts.json"])
          for command in ("synth", "train", "infer", "eval", "export-graph")),
    ], ids=["eval-alpha", "eval-grid-alpha", "infer-annotations", "export-graph-annotations",
            "synth-config", "train-config", "infer-config", "eval-config",
            "export-graph-config"])
    def test_removed_option_is_usage_error(self, pipeline, tmp_path, capsys, command, flag):
        # the sweep over --raw-scores sets the fusion exponent itself, and eval
        # has no --alpha; infer and export-graph read no annotations; options come
        # from flags alone, not from a JSON file
        annotations = str(pipeline["data"] / "annotations.json")
        inputs = {"synth": [],
                  "train": ["--manifest", str(pipeline["data"] / "manifest.json"),
                            "--annotations", annotations],
                  "eval": ["--raw-scores", str(pipeline["raw"]), "--annotations",
                           annotations, "--class-agnostic"],
                  "infer": ["--manifest", str(pipeline["data"] / "manifest.json"),
                            "--checkpoint", str(pipeline["run"] / "checkpoint.tgck")],
                  "export-graph": ["--manifest", str(pipeline["data"] / "manifest.json")]}
        flag = [annotations if f == "ANN" else f for f in flag]
        out = tmp_path / "out.json"
        assert dispatch([command, *inputs[command], "--out", str(out), *flag]) == 1
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: {' '.join(flag)}" in err
        assert "Traceback" not in err and not out.exists()


def test_eval_perfect_predictions_reach_map_one(tmp_path):
    database = {"v1": {"duration": 60.0, "subset": "training",
                       "annotations": [{"segment": [5.0, 20.0], "label": "a"},
                                       {"segment": [30.0, 50.0], "label": "b"}]},
                "v2": {"duration": 40.0, "subset": "training",
                       "annotations": [{"segment": [10.0, 22.0], "label": "a"}]}}
    annotations = tmp_path / "ann.json"
    annotations.write_text(json.dumps({"database": database}))
    detections = tmp_path / "det.json"
    _detections_from_annotations(annotations, detections)
    report_path = tmp_path / "report.json"
    assert dispatch(["eval", "--detections", str(detections),
                     "--annotations", str(annotations),
                     "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["average_mAP"] == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in report["mAP"].values())


def test_export_graph_layer_counts(tmp_path):
    rng = np.random.default_rng(0)
    write_feature_file(tmp_path / "v.fseq", rng.normal(size=(10, 4)).astype(np.float32))
    (tmp_path / "manifest.json").write_text(json.dumps(
        [{"video_id": "v", "feature_file": "v.fseq",
          "duration_seconds": 10.0, "sampling_rate": 1.0}]))
    out = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    code = dispatch(["export-graph", "--manifest", str(tmp_path / "manifest.json"),
                     "--rescale-length", "10", "--k-neighbors", "2", "--blocks", "3",
                     "--width", "16", "--cardinality", "2", "--max-duration", "4",
                     "--out", str(out), "--dot", str(dot)])
    assert code == 0
    graph = json.loads(out.read_text())
    assert graph["L"] == 10 and graph["K"] == 2
    assert len(graph["layers"]) == 3
    assert all(len(layer) == 20 for layer in graph["layers"])
    assert dot.read_text().startswith("digraph")


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert dispatch(["train", "--manifest", "x.json"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert dispatch(["eval", "--detections", str(tmp_path / "none.json"),
                         "--annotations", str(tmp_path / "none2.json")]) == 2

    def test_eval_without_detections_or_raw_scores_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "ann.json").write_text(json.dumps({"database": {}}))
        assert dispatch(["eval", "--annotations", str(tmp_path / "ann.json")]) == 1
        assert capsys.readouterr().err == "error: eval needs --detections or --raw-scores\n"

    def test_export_graph_of_a_video_not_in_the_manifest_is_data_error(self, small_synth,
                                                                        tmp_path, capsys):
        out = tmp_path / "g.json"
        assert dispatch(["export-graph", "--manifest", str(small_synth["manifest"]),
                         "--video-id", "nope", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: video 'nope' not found in the manifest\n"
        assert not out.exists()

    def test_corrupt_feature_file_is_data_error(self, tmp_path):
        (tmp_path / "v.fseq").write_bytes(b"garbage")
        (tmp_path / "manifest.json").write_text(json.dumps(
            [{"video_id": "v", "feature_file": "v.fseq",
              "duration_seconds": 10.0, "sampling_rate": 1.0}]))
        code = dispatch(["export-graph", "--manifest", str(tmp_path / "manifest.json"),
                         "--out", str(tmp_path / "g.json")])
        assert code == 2

    @pytest.mark.parametrize("sidecar", ['{"model": {', "[]", '{"model": {"depth": 3}}'],
                             ids=["corrupt-json", "not-an-object", "unknown-field"])
    def test_bad_checkpoint_sidecar_is_data_error(self, tmp_path, capsys, sidecar):
        write_feature_file(tmp_path / "v.fseq", np.zeros((10, 4), dtype=np.float32))
        (tmp_path / "manifest.json").write_text(json.dumps(
            [{"video_id": "v", "feature_file": "v.fseq",
              "duration_seconds": 10.0, "sampling_rate": 1.0}]))
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "config.json").write_text(sidecar)
        code = dispatch(["export-graph", "--manifest", str(tmp_path / "manifest.json"),
                         "--rescale-length", "10",
                         "--checkpoint", str(tmp_path / "run" / "checkpoint.tgck"),
                         "--out", str(tmp_path / "g.json")])
        assert code == 2
        assert "config.json" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--tau1", "0", "tau1"), ("--tau2", "-1", "tau2"), ("--cardinality", "0", "cardinality"),
    ("--blocks", "0", "blocks"), ("--max-duration", "1", "max_duration"),
    ("--width", "0", "width"), ("--rescale-length", "0", "rescale_length"),
])
def test_impossible_model_flag_is_usage_error(small_synth, tmp_path, capsys, flag, value, field):
    out = tmp_path / "run"
    assert dispatch(["train", "--manifest", str(small_synth["manifest"]),
                     "--annotations", str(small_synth["annotations"]), "--out", str(out),
                     "--rescale-length", "50", "--width", "16", "--cardinality", "2",
                     "--k-neighbors", "2", "--tau1", "8", "--tau2", "2",
                     "--max-duration", "16", "--epochs", "1", "--quiet", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--epochs", "-2", "epochs"), ("--epochs", "0", "epochs"), ("--lr", "-1", "lr_phase1"),
    ("--lr2", "nan", "lr_phase2"), ("--anchors-per-window", "0", "anchors_per_window"),
    ("--lambda1", "-1", "lambda1"), ("--lambda2", "inf", "lambda2"),
    ("--batch-size", "0", "batch_size"), ("--seed", "-1", "seed"),
])
def test_impossible_training_flag_is_usage_error(small_synth, tmp_path, capsys, flag, value,
                                                 field):
    out = tmp_path / "run"
    assert dispatch(["train", *_data_args(small_synth), "--out", str(out),
                     "--rescale-length", "50", "--quiet", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--noise", "-1", "noise"), ("--noise", "nan", "noise"),
    ("--num-classes", "0", "num_classes"), ("--num-videos", "0", "num_videos"),
    ("--c-raw", "0", "c_raw"), ("--seed", "-1", "seed"), ("--length", "8", "length"),
    # the default up to 3 actions of at least 6 snippets need 25 snippets
    ("--length", "9", "length"), ("--length", "20", "length"), ("--length", "24", "length"),
])
def test_impossible_synth_flag_is_usage_error(tmp_path, capsys, flag, value, field):
    out = tmp_path / "data"
    assert dispatch(["synth", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--stride", "7"], ("--stride", "--window-size")),
    (["--rescale-length", "50", "--window-size", "20"], ("--rescale-length", "--window-size")),
], ids=["stride-alone", "both-modes"])
@pytest.mark.parametrize("command", ["train", "export-graph"])
def test_flag_of_the_other_windowing_mode_is_usage_error(small_synth, tmp_path, capsys,
                                                         command, flags, named):
    out = tmp_path / "out"
    assert dispatch([command, *_data_args(small_synth, command), "--out", str(out),
                     *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(flag in err for flag in named)
    assert not out.exists()


@pytest.mark.parametrize("size", ["0", "-4"])
@pytest.mark.parametrize("command", ["train", "export-graph"])
def test_window_size_below_two_is_usage_error(small_synth, tmp_path, capsys, command, size):
    # prepare_windows reads a window length of 0 or less as rescale mode
    out = tmp_path / "out"
    assert dispatch([command, *_data_args(small_synth, command), "--out", str(out),
                     "--window-size", size]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"--window-size {size}" in err
    assert not out.exists()


@pytest.mark.parametrize("shapes, named", [
    ([(0, 6)], "'v0' has no snippets"),
    ([(10, 4), (10, 6)], "'v1' has 6 feature channels, video 'v0' has 4"),
    ([(10, 0)], "'v0' has no feature channels"),
], ids=["empty", "mixed", "no-channels"])
def test_unusable_manifest_is_data_error_naming_the_video(tmp_path, capsys, shapes, named):
    # the annotations match the manifest, so only the video itself can be refused
    entries, database = [], {}
    for i, shape in enumerate(shapes):
        write_feature_file(tmp_path / f"v{i}.fseq", np.ones(shape, np.float32))
        entries.append({"video_id": f"v{i}", "feature_file": f"v{i}.fseq",
                        "duration_seconds": 10.0, "sampling_rate": 1.0})
        database[f"v{i}"] = {"duration": 10.0, "subset": "training",
                             "annotations": [{"segment": [2.0, 6.0], "label": "a"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(entries))
    (tmp_path / "annotations.json").write_text(json.dumps({"database": database}))
    out = tmp_path / "run"
    assert dispatch(["train", "--manifest", str(tmp_path / "manifest.json"),
                     "--annotations", str(tmp_path / "annotations.json"), "--out", str(out),
                     "--rescale-length", "20", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, inputs", [
    ("train", ["--annotations", "ANN"]), ("infer", ["--checkpoint", "c.tgck"]),
], ids=["train", "infer"])
def test_manifest_without_videos_is_data_error(tmp_path, capsys, command, inputs):
    (tmp_path / "manifest.json").write_text("[]")
    (tmp_path / "annotations.json").write_text(json.dumps({"database": {}}))
    inputs = [str(tmp_path / "annotations.json") if i == "ANN" else i for i in inputs]
    out = tmp_path / "out"
    assert dispatch([command, "--manifest", str(tmp_path / "manifest.json"), *inputs,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: dataset is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("rate", [0.0, float("nan")], ids=["zero", "nan"])
def test_manifest_sampling_rate_not_finite_and_positive_is_data_error(tmp_path, capsys, rate):
    # strided windows divide by the rate, and a NaN rate would place no label
    write_feature_file(tmp_path / "v0.fseq", np.ones((40, 4), np.float32))
    (tmp_path / "manifest.json").write_text(json.dumps([{
        "video_id": "v0", "feature_file": "v0.fseq", "duration_seconds": 40.0,
        "sampling_rate": rate}]))
    (tmp_path / "annotations.json").write_text(json.dumps({"database": {"v0": {
        "duration": 40.0, "subset": "training",
        "annotations": [{"segment": [2.0, 6.0], "label": "a"}]}}}))
    out = tmp_path / "run"
    assert dispatch(["train", "--manifest", str(tmp_path / "manifest.json"),
                     "--annotations", str(tmp_path / "annotations.json"), "--out", str(out),
                     "--window-size", "20", "--stride", "10", "--epochs", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'v0' has sampling_rate" in err
    assert not out.exists()


def test_strided_windows_take_window_size_and_stride(small_synth, tmp_path):
    out = tmp_path / "graph.json"
    assert dispatch(["export-graph", "--manifest", str(small_synth["manifest"]),
                     "--window-size", "20", "--stride", "10", "--max-duration", "8",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["L"] == 20


def test_console_script_help_runs():
    result = subprocess.run([sys.executable, "-m", "tadgraph.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode in (0, 1)
    assert "synth" in result.stdout + result.stderr


# every option of each subcommand, --help aside, in the order --help lists them
_OPTIONS = {
    "synth": "--seed --out --num-videos --length --c-raw --num-classes --noise",
    "train": "--seed --manifest --rescale-length --window-size --stride --annotations "
             "--width --blocks --cardinality --k-neighbors --tau1 --tau2 --max-duration "
             "--out --epochs --lr --lr2 --batch-size --lambda1 --lambda2 "
             "--anchors-per-window --quiet",
    "infer": "--manifest --rescale-length --window-size --stride --width --blocks "
             "--cardinality --k-neighbors --tau1 --tau2 --max-duration --alpha "
             "--nms-method --nms-threshold --nms-sigma --top-m --checkpoint --out --save-raw",
    "eval": "--nms-method --nms-threshold --nms-sigma --top-m --detections --annotations "
            "--out --thresholds --class-agnostic --raw-scores",
    "export-graph": "--seed --manifest --rescale-length --window-size --stride --width "
                    "--blocks --cardinality --k-neighbors --tau1 --tau2 --max-duration "
                    "--checkpoint --video-id --out --dot",
}


def test_each_subcommand_has_exactly_its_options():
    # adding or dropping an option fails here, not in a hand count
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {name: [option for action in sub._actions for option in action.option_strings
                      if option not in ("-h", "--help")]
               for name, sub in commands.items()}
    assert options == {name: spec.split() for name, spec in _OPTIONS.items()}
    assert {name: len(o) for name, o in options.items()} == {
        "synth": 7, "train": 22, "infer": 19, "eval": 10, "export-graph": 16}


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_nms_threshold_help_names_the_method_that_reads_it(capsys, command):
    assert dispatch([command, "--help"]) == 0
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out)
    (entry,) = [e for e in entries if e.startswith("--nms-threshold")]
    assert "linear" in entry


# runs the CLI with every scipy import refused: ``import scipy`` (or any submodule)
# raises ImportError once ``sys.modules["scipy"]`` is None
WITHOUT_SCIPY = "import sys; sys.modules['scipy'] = None; from tadgraph.cli import main; main()"


def _warnings_as_errors_env():
    """The environment of a package process in which any warning, such as a numpy
    overflow or invalid-value warning, is an error, as in the workflow's
    console-script step."""
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONWARNINGS": "error",
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _run_smoke_pipeline(tmp_path, launcher):
    """``tests/smoke_pipeline.py``, the workflow's console-script smoke run, with
    each command started as ``python <launcher> <args>``; any warning is an error."""
    script = Path(__file__).with_name("smoke_pipeline.py")
    result = subprocess.run([sys.executable, str(script), str(tmp_path), sys.executable,
                             *launcher], env=_warnings_as_errors_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result


def test_smoke_pipeline_runs_as_processes_without_a_runtime_warning(tmp_path):
    # L=100 with durations under 32 gives 2573 anchors, so infer runs the localization
    # head over three row blocks
    result = _run_smoke_pipeline(tmp_path, ["-m", "tadgraph"])
    assert result.stdout.count("average  ") == 3     # eval scores three times


@pytest.mark.parametrize("command, param, failure", [
    ("infer", "proj", "backbone layer 'proj' gave a non-finite output"),
    ("export-graph", "block1.t_in", "backbone layer 'block1' gave a non-finite output"),
    ("infer", "loc.w1", "localization head layer 'loc.w1' gave a non-finite output in the "
                        "window of video 'synth_0000' at offset 0"),
], ids=["infer-proj", "export-graph-block1", "infer-loc.w1"])
def test_overflowing_layer_is_numeric_error_naming_it(tmp_path, command, param, failure):
    # finite weights whose backbone or head overflows: exit 3 naming the layer, not a
    # numpy warning's traceback, nor a data error from the k-NN of the next block.
    # Block 0's output is a ReLU's, so every block1.t_in product overflows to +inf
    data, checkpoint = tmp_path / "d", tmp_path / "c.tgck"
    assert dispatch(["synth", "--out", str(data), "--num-videos", "2", "--length", "100"]) == 0
    model = Detector(ModelConfig(), np.random.default_rng(0))
    model.named_params()[param].data[:] = 1e308
    model.save(checkpoint)
    result = subprocess.run([sys.executable, "-m", "tadgraph", command, "--manifest",
                             str(data / "manifest.json"), "--checkpoint", str(checkpoint),
                             "--out", str(tmp_path / "out.json")],
                            env=_warnings_as_errors_env(), capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    assert result.stderr == f"numeric failure: {failure}\n"


def test_smoke_pipeline_runs_with_scipy_refused(tmp_path):
    # the same run with scipy unimportable: the package needs numpy alone
    result = _run_smoke_pipeline(tmp_path, ["-c", WITHOUT_SCIPY])
    assert result.stdout.count("average  ") == 3


def test_cli_import_loads_no_scipy_module():
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys, tadgraph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class _Built(Exception):
    """Raised by a stand-in for model construction to hand back the config it got."""


def _data_args(small_synth, command="train"):
    """The input flags of ``command`` on the small synth set; only train reads annotations."""
    manifest = ["--manifest", str(small_synth["manifest"])]
    if command != "train":
        return manifest
    return [*manifest, "--annotations", str(small_synth["annotations"])]


# each pass-through flag with a value other than its field's default
_SYNTH_FLAGS = [("--seed", 3), ("--num-videos", 5), ("--length", 60), ("--c-raw", 7),
                ("--num-classes", 2), ("--noise", 0.25)]
_TRAIN_FLAGS = [("--seed", 3), ("--epochs", 3), ("--batch-size", 5), ("--lambda1", 2.5),
                ("--lambda2", 0.5), ("--anchors-per-window", 32)]
_ARCH_FLAGS = [("--width", 16), ("--blocks", 2), ("--cardinality", 4), ("--k-neighbors", 3),
               ("--tau1", 16), ("--tau2", 2), ("--max-duration", 32)]


class TestOptionResolution:
    """Flags go straight into the config they feed."""

    @pytest.fixture
    def captured(self, monkeypatch):
        calls = {}

        def fake_synth(config, out_dir):
            calls["synth"] = config
            return out_dir, out_dir

        def fake_train(model, windows, config, out_dir=None, log=print):
            calls["train"] = config
            return []

        def fake_finalize(window_scores, **kwargs):
            calls["finalize"] = kwargs
            return {}

        monkeypatch.setattr(cli, "synth_dataset", fake_synth)
        monkeypatch.setattr(cli, "train", fake_train)
        monkeypatch.setattr(cli, "finalize_detections", fake_finalize)
        return calls

    def test_no_tuning_flags_build_the_defaults(self, captured, small_synth, pipeline, tmp_path):
        assert dispatch(["synth", "--out", str(tmp_path / "d")]) == 0
        assert captured["synth"] == SynthConfig()
        assert dispatch(["train", *_data_args(small_synth), "--out", str(tmp_path / "r")]) == 0
        assert captured["train"] == TrainConfig(model=ModelConfig(c_raw=6, window_length=100))
        assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--rescale-length", "50", "--out", str(tmp_path / "d.json")]) == 0
        assert captured["finalize"] == {}

    def test_nms_flags_reach_finalize_detections(self, captured, pipeline, tmp_path):
        # linear decay reads the threshold and Gaussian decay the sigma
        for method, decay in [("linear", "threshold"), ("gaussian", "sigma")]:
            assert dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                             "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                             "--rescale-length", "50", "--out", str(tmp_path / "d.json"),
                             "--alpha", "0.3", "--nms-method", method,
                             f"--nms-{decay}", "0.2", "--top-m", "5"]) == 0
            assert captured["finalize"] == {"alpha": 0.3, "method": method, decay: 0.2,
                                            "top_m": 5}

    def test_explicit_zero_flag_beats_the_sidecar(self, monkeypatch, pipeline, tmp_path):
        # a flag of value 0 counts as given, so the sidecar's k does not replace it
        def stop(config, path):
            raise _Built(config)

        monkeypatch.setattr(cli.Detector, "from_checkpoint", staticmethod(stop))
        sidecar = json.loads((pipeline["run"] / "config.json").read_text())["model"]
        assert sidecar["k_neighbors"] == 2
        with pytest.raises(_Built) as built:
            dispatch(["infer", "--manifest", str(pipeline["data"] / "manifest.json"),
                      "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                      "--out", str(tmp_path / "d.json"), "--k-neighbors", "0"])
        model = built.value.args[0]
        assert model.k_neighbors == 0 and model.width == sidecar["width"] == 16

    @pytest.mark.parametrize("flag, in_sidecar, expected", [
        (None, None, ModelConfig().width),
        (None, 48, 48),
        (16, 48, 16),
    ], ids=["default", "sidecar", "flag"])
    def test_architecture_precedence(self, monkeypatch, small_synth, tmp_path,
                                     flag, in_sidecar, expected):
        def stop(config, path):
            raise _Built(config)

        monkeypatch.setattr(cli.Detector, "from_checkpoint", staticmethod(stop))
        (tmp_path / "run").mkdir()
        if in_sidecar is not None:
            (tmp_path / "run" / "config.json").write_text(
                json.dumps({"model": {"width": in_sidecar, "blocks": 2}}))
        args = ["infer", "--manifest", str(small_synth["manifest"]),
                "--checkpoint", str(tmp_path / "run" / "checkpoint.tgck"),
                "--out", str(tmp_path / "d.json")]
        if flag is not None:
            args += ["--width", str(flag)]
        with pytest.raises(_Built) as built:
            dispatch(args)
        model = built.value.args[0]
        assert model.width == expected
        assert model.blocks == (ModelConfig().blocks if in_sidecar is None else 2)
        assert (model.c_raw, model.window_length) == (6, 100)

    def test_sidecar_fields_without_a_flag_are_kept(self, small_synth, tmp_path):
        config = small_model_config(bottleneck_ratio=4)
        run = tmp_path / "run"
        run.mkdir()
        Detector(config, np.random.default_rng(0)).save(run / "checkpoint.tgck")
        (run / "config.json").write_text(json.dumps(asdict(TrainConfig(model=config))))
        assert dispatch(["infer", "--manifest", str(small_synth["manifest"]),
                         "--checkpoint", str(run / "checkpoint.tgck"),
                         "--rescale-length", "50", "--out", str(tmp_path / "d.json")]) == 0

    @pytest.mark.parametrize("args", [
        ["eval", "--annotations", "a.json"],
        ["infer", "--manifest", "m.json", "--checkpoint", "c.tgck", "--out", "d.json"],
    ], ids=["eval", "infer"])
    def test_seed_is_not_an_option_where_nothing_reads_it(self, args):
        assert dispatch([*args, "--seed", "1"]) == 1

    @pytest.mark.parametrize("seed", ["1", "-5"])
    def test_export_graph_refuses_a_seed_with_a_checkpoint(self, pipeline, tmp_path, capsys,
                                                            seed):
        # the weights come from the checkpoint, so the seed would draw nothing
        out = tmp_path / "graph.json"
        assert dispatch(["export-graph", "--manifest", str(pipeline["data"] / "manifest.json"),
                         "--checkpoint", str(pipeline["run"] / "checkpoint.tgck"),
                         "--out", str(out), "--seed", seed]) == 1
        assert capsys.readouterr().err.startswith("error: --seed")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        *(("synth", flag, value) for flag, value in _SYNTH_FLAGS),
        *(("train", flag, value) for flag, value in _TRAIN_FLAGS),
        *((command, flag, value) for command in ("train", "infer", "export-graph")
          for flag, value in _ARCH_FLAGS),
    ])
    def test_each_pass_through_flag_reaches_its_field(self, monkeypatch, small_synth, tmp_path,
                                                      command, flag, value):
        def stop(config, *args):
            raise _Built(config)

        monkeypatch.setattr(cli, "synth_dataset", stop)
        monkeypatch.setattr(cli, "init_params", stop)
        monkeypatch.setattr(cli.Detector, "from_checkpoint", staticmethod(stop))
        inputs = {"synth": [], "train": _data_args(small_synth),
                  "infer": ["--manifest", str(small_synth["manifest"]),
                            "--checkpoint", str(tmp_path / "checkpoint.tgck")],
                  "export-graph": ["--manifest", str(small_synth["manifest"])]}
        with pytest.raises(_Built) as built:
            dispatch([command, *inputs[command], "--out", str(tmp_path / "out"),
                      flag, str(value)])
        config = built.value.args[0]
        if isinstance(config, TrainConfig) and flag in dict(_ARCH_FLAGS):
            config = config.model
        field = flag.removeprefix("--").replace("-", "_")
        assert getattr(config, field) == value != getattr(type(config)(), field)


def test_synth_places_every_action_in_short_videos(tmp_path):
    assert dispatch(["synth", "--out", str(tmp_path), "--num-videos", "2", "--length", "30"]) == 0


@pytest.mark.parametrize("field", ["width", "head_hidden"])
@pytest.mark.parametrize("value", ["abc", True, [1], None], ids=["string", "bool", "list", "null"])
def test_sidecar_field_of_wrong_type_is_data_error(small_synth, tmp_path, capsys, field, value):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "config.json").write_text(json.dumps({"model": {field: value}}))
    assert dispatch(["infer", "--manifest", str(small_synth["manifest"]),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.tgck"),
                     "--out", str(tmp_path / "d.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err


class TestMalformedEvalInputs:
    """Inputs of ``eval`` that once ended in a traceback or a meaningless mAP."""

    @pytest.fixture
    def files(self, tmp_path):
        annotations = tmp_path / "ann.json"
        annotations.write_text(json.dumps({"database": {"v": {
            "duration": 10.0, "annotations": [{"segment": [1.0, 4.0], "label": "a"}]}}}))
        detections = tmp_path / "det.json"
        _detections_from_annotations(annotations, detections)
        return {"annotations": annotations, "detections": detections}

    @pytest.mark.parametrize("spec", ["abc", "0.5:0:0.9", "0.9:0.05:0.5", "1.5"])
    def test_bad_thresholds_are_usage_errors(self, files, capsys, spec):
        assert dispatch(["eval", "--detections", str(files["detections"]),
                         "--annotations", str(files["annotations"]),
                         "--thresholds", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and spec in err

    @pytest.mark.parametrize("segment, score, label", [
        ([3.0, 2.0], 0.5, "a"), ([1.0, 4.0], float("nan"), "a"), ([True, 5.0], 0.5, "a"),
        ([1.0, 4.0], True, "a"), ([1.0, 4.0], 0.5, None),
    ], ids=["end-before-start", "nan-score", "bool-start", "bool-score", "null-label"])
    def test_bad_detections_are_data_errors(self, files, capsys, segment, score, label):
        files["detections"].write_text(json.dumps(
            {"results": {"v": [{"segment": segment, "score": score, "label": label}]}}))
        assert dispatch(["eval", "--detections", str(files["detections"]),
                         "--annotations", str(files["annotations"]), "--class-agnostic"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("p_cls, p_reg", [(-0.5, 0.5), (0.5, 1.5)], ids=["cls", "reg"])
    def test_raw_score_outside_unit_interval_is_data_error(self, files, tmp_path, capsys,
                                                           p_cls, p_reg):
        # fusion would raise a negative score to a fractional power: a NaN detection
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"version": RAW_VERSION, "windows": [
            {"video_id": "v", "anchors": [[0, 2], [1, 3]], "p_cls": [0.5, p_cls],
             "p_reg": [0.5, p_reg], "offset": 7, "scale": 1.0, "valid_length": 10}]}))
        assert dispatch(["eval", "--raw-scores", str(raw),
                         "--annotations", str(files["annotations"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'v' at offset 7" in err
        assert ("p_cls" if p_cls < 0 else "p_reg") in err

    @pytest.mark.parametrize("scale", [0.0, -1.0], ids=["zero", "negative"])
    def test_raw_scores_with_non_positive_scale_are_data_error(self, files, tmp_path, capsys,
                                                               scale):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"version": RAW_VERSION, "windows": [
            {"video_id": "v", "anchors": [[0, 2]], "p_cls": [0.5], "p_reg": [0.5],
             "offset": 0, "scale": scale, "valid_length": 10}]}))
        out = tmp_path / "report.json"
        assert dispatch(["eval", "--raw-scores", str(raw), "--annotations",
                         str(files["annotations"]), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {raw}: window of 'v' at offset 0 needs a "
                                           f"finite scale above 0, got {scale}\n")
        assert not out.exists()

    def test_integral_reals_in_raw_scores_read_as_integers(self, tmp_path):
        # a real reads as an integer when no fraction is lost
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"version": RAW_VERSION, "windows": [
            {"video_id": "v", "anchors": [[0.0, 2.0]], "p_cls": [0.5], "p_reg": [0.5],
             "offset": 3.0, "scale": 1.0, "valid_length": 10.0}]}))
        (window,) = read_raw_scores(raw)
        assert (window.offset, window.valid_length) == (3, 10)
        assert type(window.offset) is type(window.valid_length) is int
        assert window.anchors.tolist() == [[0, 2]] and window.anchors.dtype == np.int64

    def test_raw_scores_shorter_than_anchors_are_data_errors(self, files, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps({"version": RAW_VERSION, "windows": [
            {"video_id": "v", "anchors": [[0, 2], [1, 3]], "p_cls": [0.5], "p_reg": [0.5],
             "offset": 0, "scale": 1.0, "valid_length": 10}]}))
        assert dispatch(["eval", "--raw-scores", str(raw),
                         "--annotations", str(files["annotations"])]) == 2
        assert capsys.readouterr().err.startswith("error:")
