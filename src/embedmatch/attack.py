"""Iterative embedding-matching attack with per-step epsilon-ball projection.

Each iteration descends the matching loss along its raw input gradient, then
clips the accumulated perturbation to [-epsilon, +epsilon] per pixel and the
image back to [0, 1].  The run stops early once the embedding distance to the
target falls below the convergence threshold.  The final iteration evaluates
without updating, so the returned image is exactly the last traced state.

A suite runs its pairs in lockstep: one batched forward and backward per
iteration serves every pair still running.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError
from .metrics import cosine
from .model import (CHUNK, EMBED_KINDS, Embedding, ModelWeights, embed, keep_freed_memory,
                    matching_loss_grad_embed)

RELATIVE_CONV_DEFAULT = 0.01  # threshold = 0.01 * ||target embedding|| when unset


class AttackError(RuntimeError):
    """Non-finite loss or gradient; message names the iteration."""


class PairingError(ValueError):
    """Pair selection impossible (fewer than two distinct labels)."""


@dataclass(frozen=True)
class PRMConfig:
    eta: float = 0.05
    epsilon: float = 0.1
    max_iters: int = 5000
    conv_threshold: float | None = None  # absolute ||f(x) - f(target)||; None = relative default
    kind: str = "mil_mean"
    trace_every: int = 25

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # also rejects NaN
            raise ValueError("eta must be positive and finite")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.conv_threshold is not None and not 0 <= self.conv_threshold < math.inf:
            raise ValueError("conv_threshold must be >= 0 and finite")
        if self.kind not in EMBED_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass
class TracePoint:
    iteration: int
    loss: float
    cosine: float
    mean_abs_delta: float


@dataclass
class AttackRecord:
    """One pair's outcome; the field order is the key order of a records.jsonl line."""

    source_id: str
    target_id: str
    iterations_used: int
    converged: bool
    max_abs_delta: float
    label_source_true: int
    label_target_true: int
    label_before: int
    label_after: int  # the label of image
    image: np.ndarray = field(repr=False)  # best evaluated iterate, float32 (H, W, C)
    trace: list[TracePoint]


def project(x_tilde: np.ndarray, x0: np.ndarray, epsilon: float) -> np.ndarray:
    """Clip the perturbation to the epsilon ball, then the image to [0, 1]."""
    x_tilde = np.asarray(x_tilde, dtype=np.float32)
    x0 = np.asarray(x0, dtype=np.float32)
    if x_tilde.shape != x0.shape:
        raise ShapeError(f"project: dims {x_tilde.shape} vs {x0.shape}")
    eps = np.float32(epsilon)
    delta = np.clip(x_tilde - x0, -eps, eps)
    return np.clip(x0 + delta, np.float32(0.0), np.float32(1.0))


@dataclass
class _PairRun:
    """Per-pair state of a lockstep attack: the record it fills, plus what no record holds."""

    record: AttackRecord
    tau: float
    best_loss: float = np.inf
    error: str | None = None


def _attack_stack(x0: np.ndarray, targets: Embedding, weights: ModelWeights, cfg: PRMConfig,
                  pairs) -> list:
    """Attack a stack of sources toward a stack of target embeddings in lockstep.

    ``pairs`` holds (source_id, target_id, label_source_true, label_target_true)
    per item.  Returns an AttackRecord, or the failure message of a pair whose
    loss or gradient went non-finite, per item in order.  A pair leaves the
    active batch when it converges or fails; each keeps its own best iterate,
    trace and failure, and gets bitwise the record it would get alone: the
    steps run elementwise on the batch, every reduction that reaches a record
    runs per pair.
    """
    tgt64 = targets.values.astype(np.float64)
    runs = []
    for (source_id, target_id, label_source_true, label_target_true), t in zip(pairs, tgt64):
        record = AttackRecord(
            source_id=source_id, target_id=target_id, iterations_used=cfg.max_iters,
            converged=False, max_abs_delta=0.0, label_source_true=label_source_true,
            label_target_true=label_target_true, label_before=-1, label_after=-1,
            image=None, trace=[])
        runs.append(_PairRun(record, RELATIVE_CONV_DEFAULT * float(np.linalg.norm(t))
                             if cfg.conv_threshold is None else cfg.conv_threshold))
    active = np.arange(len(runs))
    x = x0.copy()
    for t in range(1, cfg.max_iters + 1):
        losses, grads, embs, labels = matching_loss_grad_embed(
            x, Embedding(targets.values[active], targets.kind), weights, cfg.kind)
        keep = np.zeros(len(active), dtype=bool)
        for j, i in enumerate(active):
            run, rec, loss = runs[i], runs[i].record, float(losses[j])
            if not np.isfinite(loss) or not np.isfinite(grads[j]).all():
                run.error = f"non-finite loss or gradient at iteration {t}"
                continue
            if t == 1:
                rec.label_before = int(labels[j])
            # fixed-step descent can end an oscillation above its starting loss; the
            # returned image is the best evaluated iterate, so the final loss never
            # exceeds the initial one (the trace still documents the full trajectory)
            if loss < run.best_loss:
                run.best_loss, rec.image, rec.label_after = loss, x[j], int(labels[j])
            dist = float(np.linalg.norm(embs[j].astype(np.float64) - tgt64[i]))
            hit = dist < run.tau
            if t == 1 or (t - 1) % cfg.trace_every == 0 or t == cfg.max_iters or hit:
                rec.trace.append(TracePoint(
                    t, loss, cosine(embs[j], targets.values[i]),
                    float(np.mean(np.abs(x[j] - x0[i]), dtype=np.float64))))
            if hit:
                rec.converged, rec.iterations_used = True, t
            else:
                keep[j] = True
        active = active[keep]
        if not len(active) or t == cfg.max_iters:
            break
        x = project(x[keep] - np.float32(cfg.eta) * grads[keep], x0[active], cfg.epsilon)
        for j, i in enumerate(active):
            rec = runs[i].record
            rec.max_abs_delta = max(rec.max_abs_delta, float(np.max(np.abs(x[j] - x0[i]))))
    for run in runs:
        if run.error is None:  # the best iterate is a row of its iteration's whole stack
            run.record.image = run.record.image.copy()
    return [run.error or run.record for run in runs]


def prm(x0: np.ndarray, target: Embedding, weights: ModelWeights, cfg: PRMConfig,
        *, source_id: str = "", target_id: str = "",
        label_source_true: int = -1, label_target_true: int = -1) -> AttackRecord:
    """Run the matching attack from x0 toward the target embedding."""
    x0 = np.asarray(x0, dtype=np.float32)
    (outcome,) = _attack_stack(
        x0[None], Embedding(target.values[None], target.kind), weights, cfg,
        [(source_id, target_id, label_source_true, label_target_true)])
    if isinstance(outcome, str):
        raise AttackError(outcome)
    return outcome


def build_pairs(items, seed: int, limit: int | None = None) -> list[tuple[str, str]]:
    """One (source, target) pair per selected source; labels always differ.

    Targets are drawn uniformly among items with a different true label.  With
    a limit, sources are a random subset (dataset order preserved).
    """
    items = list(items)
    if len({it.label for it in items}) < 2:
        raise PairingError("pair selection needs at least two distinct labels")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    indices = np.arange(len(items))
    if limit is not None and limit < len(items):
        indices = np.sort(rng.choice(len(items), size=limit, replace=False))
    pairs = []
    for i in indices:
        candidates = [j for j in range(len(items)) if items[j].label != items[i].label]
        j = candidates[int(rng.integers(len(candidates)))]
        pairs.append((items[i].id, items[j].id))
    return pairs


def _attack_chunk(task) -> list:
    weights, cfg, sources, targets = task
    target_embs = embed(np.stack([t.image for t in targets]), weights, cfg.kind)
    return _attack_stack(np.stack([s.image for s in sources]), target_embs, weights, cfg,
                         [(s.id, t.id, s.label, t.label) for s, t in zip(sources, targets)])


def run_suite(pairs, weights: ModelWeights, cfg: PRMConfig, items_by_id,
              workers: int = 1):
    """Attack every pair; returns (records, failures).

    Pairs run in lockstep chunks of model.CHUNK; with more than one worker,
    the chunks are spread over a process pool whose workers keep freed memory
    (model.keep_freed_memory).  Records keep pair order.  A failed pair lands
    in failures as (source_id, target_id, message) and the remaining pairs,
    its chunk included, still run.  Results are identical for any worker count
    and any chunk size.
    """
    if not pairs:
        raise ValueError("pair list is empty")
    tasks = [(weights, cfg, [items_by_id[s] for s, _ in chunk], [items_by_id[t] for _, t in chunk])
             for chunk in (pairs[i:i + CHUNK] for i in range(0, len(pairs), CHUNK))]
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                 initializer=keep_freed_memory)
          if workers > 1 else contextlib.nullcontext()) as pool:
        chunks = (pool.map if pool else map)(_attack_chunk, tasks)
        outcomes = [outcome for chunk in chunks for outcome in chunk]
    records = []
    failures = []
    for (source_id, target_id), outcome in zip(pairs, outcomes):
        if isinstance(outcome, AttackRecord):
            records.append(outcome)
        else:
            failures.append((source_id, target_id, outcome))
    return records, failures
