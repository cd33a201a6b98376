"""Learning-quality protocol: synth, train, infer and eval through the package API.

    PYTHONPATH=src python tests/quality_protocol.py --seeds 1,3,7 --batch-size 4

For each seed it writes 200 synthetic videos (``synth --seed S``), trains the
default model for 10 epochs on the first 160 at the given batch size, scores
the last 40, and prints average mAP and mAP at tIoU 0.5 and 0.9 from a
class-agnostic evaluation of those 40 (``infer`` labels every detection
"action"). Runs are deterministic on one machine. A change that moves outputs
quotes this script's table for all three seeds; pytest does not collect this
file, and ``test_learning.py`` runs one cheap size of the same protocol.

The strided mode crops native-rate windows, as THUMOS-style evaluation does and
as the infer_l256 benchmark times, so it meets zero padding and tail windows:

    PYTHONPATH=src python tests/quality_protocol.py --window-length 256 --stride 128 \\
        --length 400 --num-videos 60 --train-videos 48 --epochs 4 --batch-size 4

It trains and scores through ``prepare_windows(window_length=..., stride=...)``
with ``ModelConfig(window_length=...)``. ``--epochs 0`` scores the drawn weights
untrained, the row a trained model must clear. The strided mode has no tier-1
test: no size tried that runs in about 10 s separated trained from untrained on
every seed (ROADMAP item 2 records the sizes and the table).
"""

from __future__ import annotations

import argparse
import tempfile
import time
from dataclasses import replace

from tadgraph.data import SynthConfig, load_dataset, prepare_windows, synth_dataset
from tadgraph.evaluation import EvalReport, map_suite
from tadgraph.inference import score_windows
from tadgraph.model import ModelConfig
from tadgraph.postprocess import finalize_detections
from tadgraph.training import TrainConfig, init_params, train

NUM_VIDEOS = 200
TRAIN_VIDEOS = 160
EPOCHS = 10


def learning_report(seed: int, num_videos: int, train_videos: int, epochs: int,
                    batch_size: int, workdir, length: int = SynthConfig.length,
                    window_length: int = 0, stride: int = 0) -> EvalReport:
    """Average and per-threshold mAP on the videos after the first ``train_videos``
    of a ``num_videos`` synth set of ``length`` snippets, with the default model
    trained on those first for ``epochs`` epochs (none at 0). Every video is rescaled
    to the model's window, or, at ``window_length`` > 0, cropped every ``stride``
    snippets into windows of that length."""
    manifest, annotation_path = synth_dataset(
        SynthConfig(num_videos=num_videos, length=length, seed=seed), workdir)
    sequences, annotations = load_dataset(manifest, annotation_path)
    train_set, test_set = sequences[:train_videos], sequences[train_videos:]
    windowing = dict(window_length=window_length, stride=stride) if window_length else {}
    architecture = ModelConfig(window_length=window_length) if window_length else ModelConfig()
    config = TrainConfig(model=architecture, batch_size=batch_size)
    model = init_params(config)
    if epochs:
        train(model, prepare_windows(train_set, annotations, training=True, **windowing),
              replace(config, epochs=epochs), log=None)
    scores = score_windows(model, prepare_windows(test_set, annotations, **windowing))
    truths = {seq.video_id: annotations.segments(seq.video_id) for seq in test_set}
    return map_suite(finalize_detections(scores), truths, class_agnostic=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,3,7", help="comma-separated synth seeds")
    parser.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    parser.add_argument("--epochs", type=int, default=EPOCHS,
                        help="training epochs; 0 scores the untrained model")
    parser.add_argument("--num-videos", type=int, default=NUM_VIDEOS)
    parser.add_argument("--train-videos", type=int, default=TRAIN_VIDEOS,
                        help="the first videos train, the rest are scored")
    parser.add_argument("--length", type=int, default=SynthConfig.length,
                        help="snippets per synthetic video")
    parser.add_argument("--window-length", type=int, default=0,
                        help="strided windows of this length; 0 rescales every video")
    parser.add_argument("--stride", type=int, default=0, help="snippets between windows")
    args = parser.parse_args(argv)
    if not 0 < args.train_videos < args.num_videos:
        parser.error(f"--train-videos {args.train_videos} must leave videos to score "
                     f"out of --num-videos {args.num_videos}")
    if args.epochs < 0:
        parser.error(f"--epochs {args.epochs} must be at least 0")
    strided = (f", {args.length}-snippet videos in windows of {args.window_length} every "
               f"{args.stride}" if args.window_length else "")
    print(f"{args.num_videos - args.train_videos} test videos, {args.epochs} epochs, "
          f"batch {args.batch_size}{strided}")
    print("seed  average mAP  mAP@0.5  mAP@0.9  seconds")
    for seed in (int(s) for s in args.seeds.split(",")):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as workdir:
            report = learning_report(seed, args.num_videos, args.train_videos, args.epochs,
                                     args.batch_size, workdir, args.length,
                                     args.window_length, args.stride)
        at = report.map_per_threshold
        print(f"{seed:<5} {report.average_map:<12.3f} {at[0.5]:<8.3f} {at[0.9]:<8.3f} "
              f"{time.perf_counter() - start:.0f}")


if __name__ == "__main__":
    main()
