"""Training loop for the tiny ViT: joint cross-entropy over both heads, Adam.

Gradients with respect to the weights reuse the attack tape machinery; the
cross-entropy gradient is seeded analytically at each logits node as
softmax(logits) - onehot(label).  Single-threaded and bit-reproducible for a
fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import EMBED_KINDS, ModelConfig, ModelWeights, predict, record_forward
from .seeding import derive_seed, stream
from .weights_io import init_weights


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss); message names the epoch."""


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_acc_vit: float
    val_acc_mil: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self, path) -> None:
        lines = ["epoch,train_loss,val_acc_vit,val_acc_mil"]
        for s in self.epochs:
            lines.append(f"{s.epoch},{s.train_loss!r},{s.val_acc_vit!r},{s.val_acc_mil!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _softmax64(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits.astype(np.float64) - float(logits.max()))
    return e / e.sum()


def _sample_loss_and_grads(item, weights: ModelWeights):
    """Cross-entropy of both heads for one sample, plus weight gradients."""
    tape, nodes = record_forward(item.image, weights, watch_weights=True)
    seeds = {}
    loss = 0.0
    for kind in EMBED_KINDS:
        nid = nodes[f"logits.{kind}"]
        p = _softmax64(tape.value(nid)[0, 0])
        loss -= float(np.log(max(p[item.label], 1e-300)))
        seed = p.copy()
        seed[item.label] -= 1.0
        seeds[nid] = seed.reshape(1, 1, -1)
    leaf_grads = tape.backward(seeds)
    by_name = {}
    for name, nid in nodes["weights"].items():
        g = leaf_grads.get(nid)
        if g is not None:
            by_name[name] = g
    return loss, by_name


class _Adam:
    def __init__(self, names, shapes, cfg: TrainConfig):
        self.cfg = cfg
        self.t = 0
        self.m = {n: np.zeros(shapes[n], dtype=np.float64) for n in names}
        self.v = {n: np.zeros(shapes[n], dtype=np.float64) for n in names}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, g in grads.items():
            m = self.m[name] = c.beta1 * self.m[name] + (1.0 - c.beta1) * g
            v = self.v[name] = c.beta2 * self.v[name] + (1.0 - c.beta2) * g * g
            update = c.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)
            weights[name] = (weights[name].astype(np.float64) - update).astype(np.float32)


def train(config: ModelConfig, tcfg: TrainConfig, train_items, val_items):
    """Train both classifier heads jointly; returns (weights, history).

    Deterministic for a fixed seed: weight init and the per-epoch shuffle both
    derive from tcfg.seed, and batches are walked in order.
    """
    if not train_items:
        raise ValueError("training split is empty")
    for it in train_items:
        if it.label >= config.num_classes:
            raise ValueError(f"label {it.label} of {it.id!r} out of range")
    weights = init_weights(config, derive_seed(tcfg.seed, "weights"))
    shuffle_rng = stream(tcfg.seed, "train")
    adam = _Adam(weights.tensors.keys(),
                 {n: t.shape for n, t in weights.tensors.items()}, tcfg)
    history = TrainHistory()
    n = len(train_items)
    for epoch in range(1, tcfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, tcfg.batch_size):
            batch = [train_items[i] for i in order[start:start + tcfg.batch_size]]
            acc: dict[str, np.ndarray] = {}
            batch_loss = 0.0
            for item in batch:
                loss, grads = _sample_loss_and_grads(item, weights)
                batch_loss += loss
                for name, g in grads.items():
                    acc[name] = acc[name] + g if name in acc else g
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            scale = 1.0 / len(batch)
            adam.step(weights.tensors, {n_: g * scale for n_, g in acc.items()})
            epoch_loss += batch_loss
        accs = evaluate(weights, val_items) if val_items else dict.fromkeys(EMBED_KINDS, 0.0)
        history.epochs.append(EpochStats(
            epoch, epoch_loss / n, accs["class_token"], accs["mil_mean"]))
    return weights, history


def evaluate(weights: ModelWeights, items) -> dict[str, float]:
    """Fraction of correct predictions per embedding head."""
    if not items:
        raise ValueError("evaluation split is empty")
    hits = dict.fromkeys(EMBED_KINDS, 0)
    for item in items:
        for kind in EMBED_KINDS:
            hits[kind] += int(predict(item.image, weights, kind) == item.label)
    return {kind: hits[kind] / len(items) for kind in EMBED_KINDS}
