"""Modification detector: flag inputs whose label flips under Gaussian noise.

An image is classified once clean and once per noisy draw (noise added, then
clipped back to [0, 1]); any disagreement flags it.  With draws=1 this is
exactly the one-draw consistency rule; more draws only add nested samples
from the same stream, so a one-draw flag implies a k-draw flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelWeights, outputs
from .seeding import derive_seed


@dataclass(frozen=True)
class DetectorConfig:
    sigma: float = 0.05
    draws: int = 1

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:  # also rejects NaN
            raise ValueError("sigma must be >= 0 and finite")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")


def detect(images, clean_labels, weights: ModelWeights, kind: str,
           cfg: DetectorConfig, seeds) -> np.ndarray:
    """Classify cfg.draws noisy copies of each image; flag it on any label mismatch.

    ``images`` is a stack (B, H, W, C) with its ``clean_labels``, the argmax of its logits.
    Image i's noise comes from its own stream, seeded by ``seeds[i]``, so a
    flag does not depend on the rest of the stack; all B * draws noisy copies
    are classified in one batched call.  Returns the (B,) bool flags.
    """
    images = np.asarray(images, dtype=np.float32)
    if len(seeds) != len(images):
        raise ValueError(f"{len(seeds)} seeds for {len(images)} images")
    noisy = np.empty((len(images), cfg.draws, *images.shape[1:]), dtype=np.float32)
    for image, seed, copies in zip(images, seeds, noisy):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
        for copy in copies:
            n = rng.normal(0.0, cfg.sigma, image.shape)
            n += image
            copy[...] = np.clip(n, 0.0, 1.0, out=n)  # rounded to float32 once, here
    labels = np.argmax(outputs(noisy.reshape(-1, *images.shape[1:]), weights)[f"logits.{kind}"],
                       axis=-1).reshape(len(images), cfg.draws)
    return (labels != np.asarray(clean_labels)[:, None]).any(axis=1)


@dataclass
class SweepRow:
    sigma: float
    clean_flag_rate: float
    attacked_flag_rate: float


def sweep(clean_images, attacked_images, sigmas, weights: ModelWeights,
          kind: str, seed: int, draws: int = 1) -> list[SweepRow]:
    """Flag rates over both image sets at each noise level.

    Each image set is classified clean once.  Each image owns a derived noise
    stream per sigma, so rates are deterministic per seed and independent of
    evaluation order or batching.
    """
    if len(clean_images) == 0 or len(attacked_images) == 0:
        raise ValueError("both image sets must be nonempty")
    labels = [np.argmax(outputs(images, weights)[f"logits.{kind}"], axis=-1)
              for images in (clean_images, attacked_images)]
    rows = []
    for si, sigma in enumerate(sigmas):
        cfg = DetectorConfig(sigma=sigma, draws=draws)
        rates = [int(detect(images, clean, weights, kind, cfg,
                            [derive_seed(seed, "detector", 2 * si + g, i)
                             for i in range(len(images))]).sum()) / len(images)
                 for g, (images, clean) in enumerate(zip((clean_images, attacked_images), labels))]
        rows.append(SweepRow(float(sigma), *rates))
    return rows
