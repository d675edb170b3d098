"""Noise-consistency detector: determinism, degenerate cases, sweep contract."""

import numpy as np
import pytest

from _reference import noisy_copies, predict
from conftest import random_image, tiny_config

from embedmatch.detector import DetectorConfig, detect, sweep
from embedmatch.model import CHUNK, outputs
from embedmatch.seeding import derive_seed
from embedmatch.weights_io import init_weights


@pytest.fixture()
def setup():
    cfg = tiny_config()
    return cfg, init_weights(cfg, seed=7), np.random.default_rng(1)


def _detect_one(x, w, kind, cfg, seed):
    """The B=1 case: one image, its clean label and its seed."""
    return detect(x[None], [predict(x, w, kind)], w, kind, cfg, [seed])


@pytest.fixture()
def classified(monkeypatch):
    """Every stack that detect classifies, in call order."""
    stacks = []

    def recording(stack, *args):
        stacks.append(stack)
        return outputs(stack, *args)

    monkeypatch.setattr("embedmatch.detector.outputs", recording)
    return stacks


def test_sigma_zero_never_flags(setup, classified):
    cfg, w, rng = setup
    images = np.stack([random_image(rng, cfg) for _ in range(5)])
    clean = predict(images, w, "class_token")
    flagged = detect(images, clean, w, "class_token", DetectorConfig(sigma=0.0, draws=3),
                     seeds=range(5))
    assert flagged.shape == (5,) and flagged.dtype == bool
    assert not flagged.any()
    (stack,) = classified
    noisy_labels = predict(stack, w, "class_token").reshape(5, 3)
    assert (noisy_labels == clean[:, None]).all()


def test_constant_logits_model_never_flags(setup):
    cfg, w, rng = setup
    w.tensors["head.mil_mean.w"] = np.zeros_like(w.tensors["head.mil_mean.w"])
    w.tensors["head.mil_mean.b"] = np.zeros_like(w.tensors["head.mil_mean.b"])
    images = np.stack([random_image(rng, cfg) for _ in range(5)])
    clean = predict(images, w, "mil_mean")
    assert (clean == 0).all()  # tie broken to lowest index
    assert not detect(images, clean, w, "mil_mean", DetectorConfig(sigma=0.3, draws=4),
                      seeds=[0] * 5).any()


def test_detect_deterministic_per_seed(setup, classified):
    cfg, w, rng = setup
    x = random_image(rng, cfg)
    dcfg = DetectorConfig(sigma=0.1, draws=3)
    a = _detect_one(x, w, "class_token", dcfg, 12)
    b = _detect_one(x, w, "class_token", dcfg, 12)
    assert a.tobytes() == b.tobytes()
    assert classified[0].tobytes() == classified[1].tobytes()  # the noisy copies, too
    c = _detect_one(x, w, "class_token", dcfg, 13)
    assert c.shape == (1,)


def test_draws_are_nested_streams(setup, classified):
    # each image's k-draw stack starts with its 1-draw copy: any 1-draw flag
    # implies the k-draw flag
    cfg, w, rng = setup
    images = np.stack([random_image(rng, cfg) for _ in range(10)])
    clean = predict(images, w, "mil_mean")
    one = detect(images, clean, w, "mil_mean", DetectorConfig(sigma=0.2, draws=1), range(10))
    many = detect(images, clean, w, "mil_mean", DetectorConfig(sigma=0.2, draws=4), range(10))
    one_stack, many_stack = classified
    first_draws = many_stack.reshape(10, 4, *images.shape[1:])[:, 0]
    assert first_draws.tobytes() == one_stack.tobytes()
    assert (many >= one).all()


def test_noisy_copies_come_from_each_images_stream(setup, classified):
    cfg, w, rng = setup
    images = np.stack([random_image(rng, cfg) for _ in range(3)])
    detect(images, [0, 0, 0], w, "mil_mean", DetectorConfig(sigma=0.3, draws=2), [4, 9, 4])
    (stack,) = classified
    assert stack.dtype == np.float32
    assert stack.tobytes() == noisy_copies(images, [4, 9, 4], 0.3, 2).astype(np.float32).tobytes()


def test_config_validation(setup):
    for sigma in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            DetectorConfig(sigma=sigma)
    with pytest.raises(ValueError):
        DetectorConfig(draws=0)
    cfg, w, rng = setup
    images = np.stack([random_image(rng, cfg) for _ in range(2)])
    with pytest.raises(ValueError):
        detect(images, [0, 0], w, "mil_mean", DetectorConfig(), seeds=[1])


def test_sweep_sigma_zero_rates_zero(setup):
    cfg, w, rng = setup
    clean = [random_image(rng, cfg) for _ in range(4)]
    attacked = [random_image(rng, cfg) for _ in range(4)]
    rows = sweep(clean, attacked, [0.0], w, "class_token", seed=3)
    assert rows[0].clean_flag_rate == 0.0
    assert rows[0].attacked_flag_rate == 0.0


def test_sweep_rates_bounded_and_deterministic(setup):
    cfg, w, rng = setup
    clean = [random_image(rng, cfg) for _ in range(5)]
    attacked = [random_image(rng, cfg) for _ in range(5)]
    rows_a = sweep(clean, attacked, [0.05, 0.2], w, "mil_mean", seed=9)
    rows_b = sweep(clean, attacked, [0.05, 0.2], w, "mil_mean", seed=9)
    assert rows_a == rows_b
    # detect takes stacks, and so does sweep
    assert sweep(np.stack(clean), np.stack(attacked), [0.05, 0.2], w, "mil_mean", seed=9) == rows_a
    for row in rows_a:
        assert 0.0 <= row.clean_flag_rate <= 1.0
        assert 0.0 <= row.attacked_flag_rate <= 1.0


def test_sweep_rejects_empty(setup):
    cfg, w, rng = setup
    with pytest.raises(ValueError):
        sweep([], [random_image(rng, cfg)], [0.1], w, "class_token", seed=0)
    stack = random_image(rng, cfg)[None]
    with pytest.raises(ValueError, match="both image sets must be nonempty"):
        sweep(stack, stack[:0], [0.1], w, "class_token", seed=0)


def test_sweep_rates_equal_per_image_detect_flags(setup):
    # sweep batches each image set; a lone detect per image with the same
    # derived seed must flag the same images
    cfg, w, rng = setup
    n = 2 * CHUNK + 1  # several forward chunks, the last one partial
    clean = [random_image(rng, cfg) for _ in range(n)]
    attacked = [np.clip(x + rng.normal(0.0, 0.2, x.shape), 0.0, 1.0).astype(np.float32)
                for x in clean]
    sigmas, seed, draws = [0.05, 0.3], 11, 2
    rows = sweep(clean, attacked, sigmas, w, "mil_mean", seed=seed, draws=draws)
    flagged_any = 0
    for si, (sigma, row) in enumerate(zip(sigmas, rows)):
        dcfg = DetectorConfig(sigma=sigma, draws=draws)
        for g, (images, rate) in enumerate([(clean, row.clean_flag_rate),
                                            (attacked, row.attacked_flag_rate)]):
            flags = [bool(_detect_one(x, w, "mil_mean", dcfg,
                                      derive_seed(seed, "detector", 2 * si + g, i))[0])
                     for i, x in enumerate(images)]
            assert rate == sum(flags) / n
            flagged_any += any(flags)
    assert flagged_any  # some rate is nonzero, so the comparison is not vacuous
