"""Shared fixtures.

The trained desk model is expensive (a few minutes), so it is built once per
session and shared by the attack, detector and acceptance tests.
"""

import errno
import io

import numpy as np
import pytest

from embedmatch import data
from embedmatch.data import generate_synthetic, split
from embedmatch.model import ModelConfig
from embedmatch.train import TrainConfig, train
from embedmatch.weights_io import init_weights

DESK_SEED = 11
DESK_SPLIT_SEED = 5
DESK_TRAIN_SEED = 3
DESK_EPOCHS = 40


def tiny_config(**overrides) -> ModelConfig:
    base = dict(image_size=8, channels=3, patch_size=4, embed_dim=8, depth=2,
                num_heads=2, mlp_ratio=2, num_classes=2)
    base.update(overrides)
    return ModelConfig(**base)


def random_image(rng, config: ModelConfig) -> np.ndarray:
    return rng.random((config.image_size, config.image_size, config.channels),
                      dtype=np.float32)


@pytest.fixture(scope="session")
def desk_dataset():
    items = generate_synthetic(300, 3, 32, seed=DESK_SEED)
    parts = split([it.id for it in items], DESK_SPLIT_SEED)
    by_id = {it.id: it for it in items}
    return {
        "items": items,
        "by_id": by_id,
        "train": [by_id[i] for i in parts.train],
        "validation": [by_id[i] for i in parts.validation],
        "test": [by_id[i] for i in parts.test],
    }


@pytest.fixture(scope="session")
def desk_model(desk_dataset):
    weights, history = train(ModelConfig(), TrainConfig(epochs=DESK_EPOCHS, seed=DESK_TRAIN_SEED),
                             desk_dataset["train"], desk_dataset["validation"])
    return weights, history


@pytest.fixture()
def tiny_weights():
    return init_weights(tiny_config(), seed=4)


@pytest.fixture()
def fail_writes_halfway(monkeypatch):
    """Call the returned function to make every later file write stop halfway with ENOSPC."""
    class HalfWriter(io.BufferedWriter):
        def write(self, b):
            super().write(b[:len(b) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def half_open(file, mode="r", *args, **kwargs):
        return HalfWriter(io.FileIO(file, mode))

    return lambda: monkeypatch.setattr(data, "open", half_open, raising=False)
