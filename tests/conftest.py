import numpy as np
import pytest
from hypothesis import settings

from tadgraph.data import SynthConfig, load_dataset, prepare_windows, synth_dataset
from tadgraph.model import ModelConfig

# Property tests draw the same examples on every run, so a tier-1 result is
# reproducible, and set no per-example deadline, which a busy machine trips.
settings.register_profile("tadgraph", derandomize=True, database=None, deadline=None)
settings.load_profile("tadgraph")


def small_model_config(**overrides) -> ModelConfig:
    base = dict(c_raw=6, width=16, blocks=2, cardinality=2, k_neighbors=2,
                tau1=8, tau2=2, window_length=50, max_duration=16,
                head_hidden=(32, 16))
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def small_synth(tmp_path_factory):
    """40 short videos with planted actions, prepared as training windows."""
    root = tmp_path_factory.mktemp("synth_small")
    config = SynthConfig(num_videos=40, length=50, c_raw=6, num_classes=2,
                         duration_min=5, duration_max=14, noise=0.5, seed=11)
    manifest, annotations = synth_dataset(config, root)
    sequences, anns = load_dataset(manifest, annotations)
    windows = prepare_windows(sequences, anns, rescale_length=50, training=True)
    return {"root": root, "manifest": manifest, "annotations": annotations,
            "sequences": sequences, "annotation_set": anns, "windows": windows}
