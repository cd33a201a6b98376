"""Benchmark of the tadgraph pipeline, end to end and per module.

    python3 bench/run.py --workload train_l100 --seed 7 --seconds 40 --trace 0

Workloads: ``train_l100`` and ``infer_l256`` (see ``workloads.py`` and
``workloads.json``). Nothing is built: the package is imported from
``src/`` of the checkout this file sits in, and the run exits with code 2
when that is missing.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. A traced run
measures half its time untraced and half traced, so it can report its own
overhead. Each run also writes a record (machine, library versions, sample
counts, failures) and, when traced, its spans under ``bench/out/``. The
exit code is 1 when any output failed its check or differed from
``golden/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"
WORKLOAD_NAMES = ("train_l100", "infer_l256")
# set-up repeats at least this often and for at least this long; setup_s is the median
SETUP_REPEATS = (3, 10)
SETUP_MIN_SECONDS = 2.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy ships, asked through its C API."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return int(func())
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def prepare_inputs(name: str, seed: int, root: Path) -> None:
    """Write the workload's inputs from a child process and wait for it."""
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(root)],
                   env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)


def _close(expected, actual, rtol: float, atol: float) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() == actual.keys()
                and all(_close(expected[k], actual[k], rtol, atol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(expected) == len(actual)
                and all(_close(e, a, rtol, atol) for e, a in zip(expected, actual)))
    if isinstance(expected, (int, float)) and not isinstance(expected, bool):
        return (isinstance(actual, (int, float)) and not isinstance(actual, bool)
                and abs(actual - expected) <= atol + rtol * abs(expected))
    return expected == actual


def golden_mismatches(name: str, actual: dict) -> list[str]:
    """Keys of ``golden/<name>.json`` whose values ``actual`` does not reproduce."""
    stored = json.loads((GOLDEN / f"{name}.json").read_text())
    actual = json.loads(json.dumps(actual))
    bad = []
    for key, expected in stored["values"].items():
        tol = stored["tolerance"][key]
        if key not in actual or not _close(expected, actual[key], tol["rtol"], tol["atol"]):
            bad.append(f"golden {name}.{key} differs")
    bad.extend(f"golden {name}.{key} not stored" for key in actual.keys() - stored["values"].keys())
    return bad


def measure(workload, state, seconds: float, tally, tracer=None) -> None:
    """Closed loop: one step after another until ``seconds`` have passed."""
    start = perf_counter()
    while True:
        if tracer is None:
            workload.step(state, tally)
        else:
            with tracer.span("bench.item"):
                workload.step(state, tally)
        if perf_counter() - start >= seconds:
            break
    tally.seconds += perf_counter() - start


def run(args: argparse.Namespace) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the failed checks."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        root = Path(tmp)
        prepare_inputs(args.workload, args.seed, root)

        setup_s = []
        if tracer is not None:
            tracer.install()
        while len(setup_s) < SETUP_REPEATS[0] or (
                sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_REPEATS[1]):
            state = None
            gc.collect()
            start = perf_counter()
            if tracer is None:
                state = workload.setup(root)
            else:
                with tracer.span("bench.setup"):
                    state = workload.setup(root)
            setup_s.append(perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()

        # golden outputs come first: they also warm the code paths up
        failures = golden_mismatches(args.workload, workload.golden(state, root))
        untraced = workloads.Tally()
        traced = workloads.Tally()
        if tracer is None:
            measure(workload, state, args.seconds, untraced)
        else:
            measure(workload, state, args.seconds / 2, untraced)
            tracer.phase = "timed"
            tracer.install()
            try:
                measure(workload, state, args.seconds / 2, traced, tracer)
            finally:
                tracer.uninstall()

    tallies = (untraced, traced)
    attempted = 1 + sum(t.attempted for t in tallies)
    failed = int(bool(failures)) + sum(t.failed for t in tallies)
    failures += [f for t in tallies for f in t.failures]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "items_per_s": (untraced.items / untraced.seconds, "1/s"),
            "item_ms_p50": (statistics.median(untraced.item_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "share"),
        }
    else:
        per_item = [t.seconds / t.items for t in tallies]
        metrics = tracer.layer_metrics(traced.items, (per_item[1] / per_item[0] - 1.0) * 100)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "machine": machine_record(), "inputs": workload.INPUTS,
              "setup_s": setup_s, "items": [t.items for t in tallies],
              "item_ms_samples": [len(t.item_ms) for t in tallies],
              "timed_s": [t.seconds for t in tallies], "failures": failures, "result": result}
    if tracer is not None:
        record["calls"] = tracer.calls("timed")
        record["setup_calls"] = tracer.calls("setup")
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tadgraph" / "__init__.py").is_file():
        print(f"error: no tadgraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, failures = run(args)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
