"""Training loop: descent, reproducibility, evaluation, divergence handling."""

import numpy as np
import pytest

from conftest import random_image, tiny_config

from embedmatch import model
from embedmatch.data import LabelledImage
from embedmatch.train import (TAPE_SAMPLES, TrainConfig, TrainingError, _batch_loss_and_grads,
                              evaluate, train)
from embedmatch.weights_io import init_weights


def _tiny_items(n, cfg, seed=0, num_classes=2):
    rng = np.random.default_rng(seed)
    return [LabelledImage(f"i{k}", random_image(rng, cfg), k % num_classes)
            for k in range(n)]


def test_single_sample_loss_decreases():
    cfg = tiny_config()
    items = _tiny_items(1, cfg)
    # two epochs on one sample = two optimization steps on the same loss
    _, history = train(cfg, TrainConfig(epochs=2, batch_size=1, seed=1), items, items)
    assert history.epochs[1].train_loss < history.epochs[0].train_loss


def test_same_seed_bitwise_identical_weights():
    cfg = tiny_config()
    items = _tiny_items(8, cfg)
    wa, _ = train(cfg, TrainConfig(epochs=2, seed=5), items, items[:2])
    wb, _ = train(cfg, TrainConfig(epochs=2, seed=5), items, items[:2])
    for name in wa.tensors:
        assert wa.tensors[name].tobytes() == wb.tensors[name].tobytes(), name


def test_different_seed_changes_weights():
    cfg = tiny_config()
    items = _tiny_items(8, cfg)
    wa, _ = train(cfg, TrainConfig(epochs=1, seed=5), items, items[:2])
    wb, _ = train(cfg, TrainConfig(epochs=1, seed=6), items, items[:2])
    assert any(wa.tensors[n].tobytes() != wb.tensors[n].tobytes() for n in wa.tensors)


@pytest.mark.parametrize("size", [1, TAPE_SAMPLES, TAPE_SAMPLES + 1])
def test_chunked_step_equals_single_sample_steps(size):
    cfg = tiny_config()
    weights = init_weights(cfg, 4)
    items = _tiny_items(size, cfg, seed=3)
    losses, grads = _batch_loss_and_grads(items, weights)
    singles = [_batch_loss_and_grads([it], weights) for it in items]
    # a row's forward and loss do not depend on its chunk
    assert np.array(losses).tobytes() == np.array([s[0][0] for s in singles]).tobytes()
    # only the order in which shared-weight gradients are summed differs
    assert grads.keys() == singles[0][1].keys()
    for name, g in grads.items():
        expect = singles[0][1][name]
        for _, single in singles[1:]:
            expect = expect + single[name]
        assert np.max(np.abs(g - expect)) <= 1e-10 * np.max(np.abs(expect)), name


@pytest.mark.parametrize("batch_size", [TAPE_SAMPLES - 1, TAPE_SAMPLES + 2])
def test_uneven_batch_sizes_reproducible(batch_size):
    cfg = tiny_config()
    items = _tiny_items(7, cfg)
    tcfg = TrainConfig(epochs=2, batch_size=batch_size, seed=4)
    wa, ha = train(cfg, tcfg, items, items[:2])
    wb, hb = train(cfg, tcfg, items, items[:2])
    assert all(np.isfinite(s.train_loss) for s in ha.epochs)
    assert [s.train_loss for s in ha.epochs] == [s.train_loss for s in hb.epochs]
    for name in wa.tensors:
        assert wa.tensors[name].tobytes() == wb.tensors[name].tobytes(), name


def test_trained_weights_do_not_depend_on_model_chunk(monkeypatch):
    # model.CHUNK sizes the forward-only evaluation passes; the gradient tapes keep TAPE_SAMPLES
    cfg = tiny_config()
    items = _tiny_items(11, cfg)
    tcfg = TrainConfig(epochs=2, batch_size=10, seed=4)
    trained = []
    for chunk in (3, 8):
        monkeypatch.setattr(model, "CHUNK", chunk)
        trained.append(train(cfg, tcfg, items, items[:9]))
    (wa, ha), (wb, hb) = trained
    assert ha.epochs == hb.epochs
    for name in wa.tensors:
        assert wa.tensors[name].tobytes() == wb.tensors[name].tobytes(), name


def test_losses_finite_throughout():
    cfg = tiny_config()
    items = _tiny_items(6, cfg)
    _, history = train(cfg, TrainConfig(epochs=3, seed=2), items, items[:2])
    assert all(np.isfinite(s.train_loss) for s in history.epochs)


def test_divergence_raises_naming_epoch():
    cfg = tiny_config()
    items = _tiny_items(4, cfg)
    with np.errstate(all="ignore"), pytest.raises(TrainingError) as err:
        train(cfg, TrainConfig(epochs=10, learning_rate=1e18, seed=0), items, items[:2])
    assert "epoch" in str(err.value)


def test_rejects_empty_or_out_of_range():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        train(cfg, TrainConfig(epochs=1, seed=0), [], [])
    for label in (cfg.num_classes, -1):
        bad = _tiny_items(2, cfg)
        bad[1].label = label
        with pytest.raises(ValueError, match="out of range"):
            train(cfg, TrainConfig(epochs=1, seed=0), bad, bad)
        good = _tiny_items(2, cfg)
        with pytest.raises(ValueError, match="out of range"):
            train(cfg, TrainConfig(epochs=1, seed=0), good, bad)


def test_evaluate_always_class0_model():
    cfg = tiny_config()
    weights = init_weights(cfg, 0)
    for kind in ("class_token", "mil_mean"):
        w_name, b_name = f"head.{kind}.w", f"head.{kind}.b"
        weights.tensors[w_name] = np.zeros_like(weights.tensors[w_name])
        bias = np.zeros_like(weights.tensors[b_name])
        bias[0] = 1.0
        weights.tensors[b_name] = bias
    items = _tiny_items(5, cfg)
    for it in items:
        it.label = 0
    accs = evaluate(weights, items)
    assert accs == {"class_token": 1.0, "mil_mean": 1.0}


def test_evaluate_matches_hand_count():
    cfg = tiny_config()
    weights = init_weights(cfg, 3)
    items = _tiny_items(20, cfg, seed=9)
    from embedmatch.model import predict
    accs = evaluate(weights, items)
    for kind, acc in accs.items():
        manual = sum(int(predict(it.image, weights, kind) == it.label) for it in items) / 20
        assert acc == manual
        assert 0.0 <= acc <= 1.0


def test_history_csv_format(tmp_path):
    cfg = tiny_config()
    items = _tiny_items(4, cfg)
    _, history = train(cfg, TrainConfig(epochs=2, seed=1), items, items[:2])
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_acc_vit,val_acc_mil"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
