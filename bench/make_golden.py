"""Write ``golden/<workload>.json`` from the current code.

    python3 bench/make_golden.py [workload ...]

The golden outputs pin what the package computes on fixed inputs, so a
refactor can show it changed nothing. Regenerate them only in a change
that is meant to alter those outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, OUT, SRC, WORKLOAD_NAMES, machine_record, prepare_inputs

# Per output key: how far a recomputation may drift (|a - e| <= atol + rtol * |e|).
TOLERANCE = {
    "train_l100": {"epoch_losses": {"rtol": 1e-6, "atol": 1e-9}},
    "infer_l256": {"anchor_scores": {"rtol": 0.0, "atol": 1e-9},
                   "detections": {"rtol": 0.0, "atol": 1e-9},
                   "map_per_threshold": {"rtol": 0.0, "atol": 1e-9},
                   "average_map": {"rtol": 0.0, "atol": 1e-9}},
}


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    for name in names or WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=OUT, prefix=f"golden-{name}-") as tmp:
            prepare_inputs(name, 0, Path(tmp))
            values = workload.golden(workload.setup(Path(tmp)), Path(tmp))
        payload = {"workload": name, "golden_seed": workloads.GOLDEN_SEED,
                   "weight_seed": workloads.WEIGHT_SEED, "inputs": workload.INPUTS,
                   "machine": machine_record(), "tolerance": TOLERANCE[name],
                   "values": json.loads(json.dumps(values))}
        GOLDEN.mkdir(exist_ok=True)
        (GOLDEN / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {GOLDEN / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
