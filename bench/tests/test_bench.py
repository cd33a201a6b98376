"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q bench/tests

Most tests run ``bench/run.py`` in a subprocess with a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((BENCH / "workloads.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 3
BLOCKS = 3


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path, with_source: bool) -> None:
    ignore = shutil.ignore_patterns("out", "__pycache__", ".pytest_cache")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def runs(request):
    """One run per workload; returns {workload: (result, run record)}."""
    trace = request.param
    out = {}
    for name in NAMES:
        proc = run_bench(name, trace)
        assert proc.returncode == 0, proc.stderr
        record = json.loads((BENCH / "out" / f"{name}-seed{SEED}-trace{trace}.json").read_text())
        out[name] = (result_of(proc), record)
    return trace, out


def test_printed_metrics_match_benchmark_json(runs):
    trace, out = runs
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    for name, (result, _) in out.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected, name
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_spans_fire_with_structural_counts(runs):
    trace, out = runs
    if not trace:
        pytest.skip("spans exist only in traced runs")
    metrics = {name: {k: v["value"] for k, v in result["metrics"].items()}
               for name, (result, _) in out.items()}

    train = out["train_l100"][1]
    windows = train["items"][1]
    assert windows % RECORD["workloads"]["train_l100"]["inputs"]["videos"] == 0
    assert train["calls"]["backbone.block_fwd"] == BLOCKS * windows
    assert train["calls"]["training.window_loss"] == windows
    assert metrics["train_l100"]["heads.anchors_scored"] == 256
    assert metrics["train_l100"]["video_graph.knn_calls"] == BLOCKS
    assert metrics["train_l100"]["heads.anchors_padding"] == 0
    assert "postprocess.soft_nms" not in train["calls"]

    infer = out["infer_l256"][1]
    windows = infer["items"][1]
    assert infer["calls"]["backbone.block_fwd"] == BLOCKS * windows
    assert infer["calls"]["inference.score"] == windows
    assert metrics["infer_l256"]["heads.anchors_scored"] == 14049
    assert metrics["infer_l256"]["data.pad_fraction"] > 0
    assert metrics["infer_l256"]["checkpoint.bytes"] > 0
    assert "autodiff.backward" not in infer["calls"]

    steps = infer["calls"]["bench.item"]          # one video finalized per step
    assert infer["calls"]["postprocess.finalize"] == infer["calls"]["postprocess.soft_nms"] == steps
    assert metrics["infer_l256"]["postprocess.kept"] == 100
    assert metrics["infer_l256"]["postprocess.candidates"] > 14049


def test_one_infer_pass_calls_soft_nms_once_per_video(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import spans
        import workloads
    finally:
        del sys.path[:2]
    workload = workloads.WORKLOADS["infer_l256"]
    workload.prepare(SEED, tmp_path)
    state = workload.setup(tmp_path)
    windows = sum(len(ws) for ws in state["by_video"].values())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally = workloads.Tally()
        for _ in state["videos"]:
            workload.step(state, tally)
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    assert calls["postprocess.soft_nms"] == len(state["videos"])
    assert calls["evaluation.map"] == 1
    assert calls["evaluation.ap"] == 10          # class-agnostic: one class, 10 thresholds
    assert calls["backbone.block_fwd"] == BLOCKS * windows
    assert tally.failed == 0 and tally.items == windows


def test_perturbed_golden_is_a_failure(tmp_path):
    copy_checkout(tmp_path, with_source=True)
    golden = tmp_path / "bench" / "golden" / "train_l100.json"
    payload = json.loads(golden.read_text())
    payload["values"]["epoch_losses"][0][0] += 1e-3
    golden.write_text(json.dumps(payload))
    proc = run_bench("train_l100", 0, cwd=tmp_path)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1
    assert "golden train_l100.epoch_losses differs" in proc.stderr


def test_checkout_without_source_fails_without_result(tmp_path):
    copy_checkout(tmp_path, with_source=False)
    proc = run_bench("train_l100", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_workload_record_matches_code_and_benchmark_json():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert sorted(RECORD["workloads"]) == sorted(NAMES) == sorted(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        assert RECORD["workloads"][name]["inputs"] == workload.INPUTS, name
    mapped = {m for row in RECORD["layer_map"] for m in row["metrics"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert mapped <= per_layer
    assert per_layer - mapped == {"bench.self_ms", "trace.overhead_pct"}
    assert set(RECORD["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
