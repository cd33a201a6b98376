"""The detector learns: a floor on average mAP after a short training run.

The golden outputs pin bits of an untrained model, not quality, so a change
that stops learning would pass them. This test runs ``quality_protocol``'s
pipeline through the package API at its cheapest size: synth seed 1 with 100
videos, the default model trained on the first 80 for 4 epochs at batch size
2, then inference on the last 20 and a class-agnostic evaluation of them.

How the floor was chosen: on 2-CPU Xeons with numpy 2.4 this run scores an
average mAP of 0.459 (seeds 3 and 7 score 0.690 and 0.560), the same to every
digit at one and at two BLAS threads. The untrained model scores 0.019 on the
same 20 videos. A floor of 0.3 sits well above "does not learn" and leaves
0.16 for summation-order drift on other CPUs.

This size gates learning only: it cannot rank ablations. At it, k=0 semantic
neighbours beat k=4 on seed 1 (0.564 against 0.459), the reverse of the full
protocol. Rank variants with ``tests/quality_protocol.py`` on three seeds.

The strided mode, the path the infer_l256 benchmark times, gets a structure test
without a floor: no strided size of about 10 s separated trained from untrained.
"""

from quality_protocol import learning_report

FLOOR = 0.3


def test_training_lifts_average_map_above_the_floor(tmp_path):
    report = learning_report(seed=1, num_videos=100, train_videos=80, epochs=4, batch_size=2,
                             workdir=tmp_path)
    assert report.num_ground_truths > 0
    assert report.average_map > FLOOR


def test_strided_protocol_scores_padded_windows(tmp_path):
    # windows of 40 every 20 snippets: each 70-snippet video's last window, at
    # offset 40, holds 30 real snippets and 10 of zero padding
    report = learning_report(seed=1, num_videos=4, train_videos=2, epochs=1, batch_size=2,
                             length=70, window_length=40, stride=20, workdir=tmp_path)
    assert report.num_ground_truths > 0 and report.num_predictions > 0
    assert 0.0 <= report.average_map <= 1.0
