"""Training loop for the tiny ViT: joint cross-entropy over both heads, Adam.

Gradients with respect to the weights come from the attack's machinery, a
record_forward tape and one Tape.backward, with one tape per TAPE_SAMPLES
samples of a minibatch.  As the attack seeds its embedding node with
f(x) - f(x_tgt), training seeds each logits node with the analytic
cross-entropy gradient softmax(logits) - onehot(label).
Single-threaded and bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import write_file
from .model import EMBED_KINDS, ModelConfig, ModelWeights, outputs, record_forward
from .seeding import derive_seed, stream
from .weights_io import init_weights

# Adam's moment decay rates and denominator guard, at Kingma & Ba's defaults
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# samples per training tape.  Not model.CHUNK: each tape sums its samples' weight
# gradients before the tapes' sums are added, so this number fixes the order of the
# additions, and with it the bits of the trained weights.
TAPE_SAMPLES = 4


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss); message names the epoch."""


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ValueError("learning_rate must be positive and finite")


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
        write_file(path, "\n".join(lines) + "\n")


def _batch_loss_and_grads(batch, weights: ModelWeights):
    """Per-item cross-entropy of both heads, plus weight gradients summed over the batch.

    One tape is recorded per TAPE_SAMPLES items.  Each logits node is seeded with
    its rows' softmax - onehot(label); the batched primitives sum a shared
    weight's gradient over the chunk, and chunks are added in order.
    """
    losses: list[float] = []
    acc: dict[str, np.ndarray] = {}
    for i in range(0, len(batch), TAPE_SAMPLES):
        chunk = batch[i:i + TAPE_SAMPLES]
        tape, nodes = record_forward(np.stack([it.image for it in chunk]), weights,
                                     watch_weights=True)
        rows, labels = np.arange(len(chunk)), np.array([it.label for it in chunk])
        loss = np.zeros(len(chunk))
        seeds = {}
        for kind in EMBED_KINDS:
            nid = nodes[f"logits.{kind}"]
            logits = tape.value(nid)[:, 0].astype(np.float64)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            loss -= np.log(np.maximum(p[rows, labels], 1e-300))
            p[rows, labels] -= 1.0
            seeds[nid] = p[:, None, :]
        leaf_grads = tape.backward(seeds)
        for name, nid in nodes["weights"].items():  # every weight reaches both heads
            if name in acc:
                acc[name] += leaf_grads[nid]
            else:
                acc[name] = leaf_grads[nid]
        losses.extend(loss.tolist())
        del tape, leaf_grads  # else they live on while the next chunk is recorded
    return losses, acc


class _Adam:
    def __init__(self, names, shapes, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {n: np.zeros(shapes[n], dtype=np.float64) for n in names}
        self.v = {n: np.zeros(shapes[n], dtype=np.float64) for n in names}

    def step(self, weights: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, g in grads.items():
            m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * g * g
            update = self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            weights[name] = (weights[name].astype(np.float64) - update).astype(np.float32)


def train(config: ModelConfig, tcfg: TrainConfig, train_items, val_items):
    """Train both classifier heads jointly; returns (weights, history).

    Deterministic for a fixed seed: weight init and the per-epoch shuffle both
    derive from tcfg.seed, and batches are walked in order.
    """
    if not train_items:
        raise ValueError("training split is empty")
    for it in (*train_items, *val_items):
        if not 0 <= it.label < config.num_classes:
            raise ValueError(f"label {it.label} of {it.id!r} out of range")
    weights = init_weights(config, derive_seed(tcfg.seed, "weights"))
    shuffle_rng = stream(tcfg.seed, "train")
    adam = _Adam(weights.tensors.keys(),
                 {n: t.shape for n, t in weights.tensors.items()}, tcfg.learning_rate)
    history = TrainHistory()
    n = len(train_items)
    for epoch in range(1, tcfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, tcfg.batch_size):
            batch = [train_items[i] for i in order[start:start + tcfg.batch_size]]
            losses, acc = _batch_loss_and_grads(batch, weights)
            batch_loss = 0.0
            for loss in losses:
                batch_loss += loss
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
    """Fraction of correct predictions per embedding head; one batched pass serves both."""
    if not items:
        raise ValueError("evaluation split is empty")
    rows = outputs([item.image for item in items], weights)
    labels = np.array([item.label for item in items])
    return {kind: int(np.sum(np.argmax(rows[f"logits.{kind}"], axis=-1) == labels)) / len(items)
            for kind in EMBED_KINDS}
