"""The console smoke run: synth -> train -> infer -> export-graph -> eval.

    python tests/smoke_pipeline.py DIR LAUNCHER...

runs each command as ``LAUNCHER... <command> <args>`` (``tadgraph``, or
``python -m tadgraph``) and writes every file under ``DIR``. After a tiny
synth and train it infers with the raw scores saved, exports a graph, scores
the detections, sweeps the fusion exponent over the raw scores, then infers
again in strided windows of 100 that zero-pad the 50-snippet videos and
sweeps those. Each command's stdout is passed on. The run fails (exit 1) on
the first command that exits non-zero or writes to stderr, and when the
graph is not L = 100 or its DOT is empty. With ``PYTHONWARNINGS=error`` in
the environment, any warning in a command, such as a numpy overflow, fails
it.
"""

import json
import subprocess
import sys
from pathlib import Path


def commands(root: Path) -> list[list]:
    data, run, det, raw = (root / name for name in ("d", "run", "det.json", "raw.json"))
    manifest, annotations = data / "manifest.json", data / "annotations.json"
    checkpoint = run / "checkpoint.tgck"
    return [
        ["synth", "--out", data, "--num-videos", "4", "--length", "50", "--c-raw", "6"],
        ["train", "--manifest", manifest, "--annotations", annotations, "--out", run,
         "--window-length", "100", "--width", "16", "--cardinality", "2",
         "--k-neighbors", "2", "--tau1", "8", "--tau2", "2", "--max-duration", "32",
         "--epochs", "2", "--batch-size", "4", "--anchors-per-window", "64", "--quiet"],
        ["infer", "--manifest", manifest, "--checkpoint", checkpoint, "--out", det,
         "--save-raw", raw],
        ["export-graph", "--manifest", manifest, "--checkpoint", checkpoint,
         "--out", root / "graph.json", "--dot", root / "graph.dot"],
        ["eval", "--detections", det, "--annotations", annotations, "--class-agnostic"],
        ["eval", "--raw-scores", raw, "--annotations", annotations, "--class-agnostic"],
        ["infer", "--manifest", manifest, "--checkpoint", checkpoint, "--stride", "50",
         "--out", root / "strided_det.json", "--save-raw", root / "strided_raw.json"],
        ["eval", "--raw-scores", root / "strided_raw.json", "--annotations", annotations,
         "--class-agnostic"],
    ]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python tests/smoke_pipeline.py DIR LAUNCHER...", file=sys.stderr)
        return 1
    root, launcher = Path(argv[0]), argv[1:]
    root.mkdir(parents=True, exist_ok=True)
    for args in commands(root):
        result = subprocess.run([*launcher, *map(str, args)], capture_output=True, text=True)
        sys.stdout.write(result.stdout)
        if result.returncode != 0 or result.stderr:
            print(f"{args[0]} exited {result.returncode}:\n{result.stderr}", file=sys.stderr)
            return 1
    if json.loads((root / "graph.json").read_text())["L"] != 100 \
            or not (root / "graph.dot").read_text().strip():
        print("export-graph wrote no L = 100 graph and DOT", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
