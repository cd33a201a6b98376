"""Scoring of whole windows."""

import tracemalloc

import numpy as np

from tadgraph.data import Window
from tadgraph.inference import score_windows
from tadgraph.model import Detector, ModelConfig


def test_long_window_peak_memory():
    # one L=256 window has 14049 anchors; their (J, 1152) aligned features
    # take 129 MB, so only one copy of them fits under the bound
    model = Detector(ModelConfig(window_length=256), np.random.default_rng(0))
    window = Window("v", np.random.default_rng(1).normal(size=(32, 256)), offset=0,
                    valid_length=256, scale=1.0)
    tracemalloc.start()
    try:
        scores = score_windows(model, [window])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scores[0].p_cls) == len(model.anchors) == 14049
    assert peak < 180e6
