"""Learning-quality protocol: synth, train, infer and eval through the package API.

    PYTHONPATH=src python tests/quality_protocol.py --seeds 1,3,7 --batch-size 4

For each seed it writes 200 synthetic videos (``synth --seed S``), trains the
default model for 10 epochs on the first 160 at the given batch size, scores
the last 40, and prints average mAP and mAP at tIoU 0.5 and 0.9 from a
class-agnostic evaluation of those 40 (``infer`` labels every detection
"action"). Runs are deterministic on one machine. A change that moves outputs
quotes this script's table for all three seeds; pytest does not collect this
file, and ``test_learning.py`` runs one cheap size of the same protocol.
"""

from __future__ import annotations

import argparse
import tempfile
import time

from tadgraph.data import SynthConfig, load_dataset, prepare_windows, synth_dataset
from tadgraph.evaluation import EvalReport, map_suite
from tadgraph.inference import score_windows
from tadgraph.postprocess import finalize_detections
from tadgraph.training import TrainConfig, init_params, train

NUM_VIDEOS = 200
TRAIN_VIDEOS = 160
EPOCHS = 10


def learning_report(seed: int, num_videos: int, train_videos: int, epochs: int,
                    batch_size: int, workdir) -> EvalReport:
    """Average and per-threshold mAP on the videos after the first ``train_videos``
    of a ``num_videos`` synth set, with the default model trained on those first."""
    manifest, annotation_path = synth_dataset(SynthConfig(num_videos=num_videos, seed=seed),
                                              workdir)
    sequences, annotations = load_dataset(manifest, annotation_path)
    train_set, test_set = sequences[:train_videos], sequences[train_videos:]
    config = TrainConfig(batch_size=batch_size, epochs=epochs)
    model = init_params(config)
    train(model, prepare_windows(train_set, annotations, training=True), config, log=None)
    detections = finalize_detections(score_windows(model, prepare_windows(test_set, annotations)))
    truths = {seq.video_id: annotations.segments(seq.video_id) for seq in test_set}
    return map_suite(detections, truths, class_agnostic=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,3,7", help="comma-separated synth seeds")
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    args = parser.parse_args(argv)
    print(f"{NUM_VIDEOS - TRAIN_VIDEOS} test videos, {EPOCHS} epochs, batch {args.batch_size}")
    print("seed  average mAP  mAP@0.5  mAP@0.9  seconds")
    for seed in (int(s) for s in args.seeds.split(",")):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            report = learning_report(seed, NUM_VIDEOS, TRAIN_VIDEOS, EPOCHS, args.batch_size,
                                     workdir)
        at = report.map_per_threshold
        print(f"{seed:<5} {report.average_map:<12.3f} {at[0.5]:<8.3f} {at[0.9]:<8.3f} "
              f"{time.perf_counter() - start:.0f}")


if __name__ == "__main__":
    main()
