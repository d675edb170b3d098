"""Tiny vision transformer with two embedding heads and the matching loss.

The network is a standard pre-norm ViT: patch projection, learned class token
and positional embeddings, multi-head self-attention blocks with GELU MLPs,
and a final layer norm.  Two image-level embeddings are exposed: the final
class-token vector ("class_token") and the mean over final patch tokens
("mil_mean").  Each has its own linear classifier head.

One function, record_forward, defines the network.  A pass that watches the
input or the weights runs on an autodiff tape, so the matching loss and the
training loss can be differentiated; a pass that watches nothing (outputs and
everything built on it) runs forward only and records no tape.  Every entry
point takes one image (H, W, C) or a stack (B, H, W, C); a single image runs as
a stack of one, and each item of a stack gets bitwise the result it would get
alone.  Embeddings pass between functions as plain float32 rows: (d,) for one
image, (B, d) for a stack.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Forward, ShapeError, Tape

EMBED_KINDS = ("class_token", "mil_mean")
# images per pass, in attack-suite chunks and forward-only calls.  No output depends on it;
# it trades speed against memory, since each tape's context grows with its batch.  perfbench
# attack-suite, seed 1, six 30 s runs per value on a 2-vCPU host, on a heap that keeps freed
# memory (keep_freed_memory), median iterations/s and peak RSS:
#   CHUNK   8: 1547 it/s, 46.2 MB     CHUNK 16: 1699 it/s, 50.3 MB
#   CHUNK  12: 1583 it/s, 48.3 MB     CHUNK 24: 1709 it/s, 54.3 MB
# Runs spread over 1334-1784 it/s.  16 is the largest value whose memory stays within the
# benchmark's 10 % peak-RSS bound of CHUNK 8 on a tape that kept every value (47.3 MB).
CHUNK = 16
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def keep_freed_memory() -> None:
    """Let the process heap keep freed memory for reuse instead of returning it to the OS.

    Each lockstep tape allocates the same few MB that the one before it freed.  With
    glibc's default thresholds the large blocks are mmapped and the heap top is trimmed
    on free, so every iteration page-faults its memory back in: 160k to 200k minor
    faults per perfbench attack-suite repetition at CHUNK 8, and under 70 after this
    call.  Setting either threshold alone did not remove the faults.  Does nothing
    where libc has no mallopt.  Changes only speed and memory, never a result.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)  # 32 MiB and 64 MiB measured the same
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


@dataclass(frozen=True)
class ModelConfig:
    image_size: int = 32
    channels: int = 3
    patch_size: int = 8
    embed_dim: int = 64
    depth: int = 3
    num_heads: int = 4
    mlp_ratio: int = 2
    num_classes: int = 3

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"ModelConfig.{f.name} must be >= 1")
        if self.image_size % self.patch_size:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * self.channels

    @property
    def mlp_dim(self) -> int:
        return self.embed_dim * self.mlp_ratio


@dataclass
class Embedding:
    values: np.ndarray  # (embed_dim,) float32, or (B, embed_dim) for a stack of images
    kind: str

    def __post_init__(self):
        if self.kind not in EMBED_KINDS:
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float32)


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Parameter names and shapes, in canonical (file) order."""
    d, q = config.embed_dim, config.patch_dim
    shapes: dict[str, tuple[int, ...]] = {
        "patch_proj.w": (q, d),
        "patch_proj.b": (d,),
        "cls_token": (1, d),
        "pos_embed": (config.num_tokens, d),
    }
    for i in range(config.depth):
        p = f"block{i}."
        shapes[p + "attn_norm.g"] = (d,)
        shapes[p + "attn_norm.b"] = (d,)
        shapes[p + "attn.qkv_w"] = (d, 3 * d)
        shapes[p + "attn.qkv_b"] = (3 * d,)
        shapes[p + "attn.out_w"] = (d, d)
        shapes[p + "attn.out_b"] = (d,)
        shapes[p + "mlp_norm.g"] = (d,)
        shapes[p + "mlp_norm.b"] = (d,)
        shapes[p + "mlp.fc1_w"] = (d, config.mlp_dim)
        shapes[p + "mlp.fc1_b"] = (config.mlp_dim,)
        shapes[p + "mlp.fc2_w"] = (config.mlp_dim, d)
        shapes[p + "mlp.fc2_b"] = (d,)
    shapes["final_norm.g"] = (d,)
    shapes["final_norm.b"] = (d,)
    for kind in EMBED_KINDS:
        shapes[f"head.{kind}.w"] = (d, config.num_classes)
        shapes[f"head.{kind}.b"] = (config.num_classes,)
    return shapes


@dataclass
class ModelWeights:
    """Named parameter tensors plus the config that fixes their shapes.

    Treated as immutable once built; safe to share across attack workers.
    """

    config: ModelConfig
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        expect = expected_shapes(self.config)
        if set(self.tensors) != set(expect):
            missing = sorted(set(expect) - set(self.tensors))
            extra = sorted(set(self.tensors) - set(expect))
            raise ValueError(f"weights do not match config: missing={missing} extra={extra}")
        for name, shape in expect.items():
            if self.tensors[name].shape != shape:
                raise ValueError(
                    f"tensor {name!r} has shape {self.tensors[name].shape}, expected {shape}")


def _image_stack(images, config: ModelConfig) -> tuple[np.ndarray, bool]:
    """(B, H, W, C) float32 stack, and whether a single image was given."""
    images = np.asarray(images, dtype=np.float32)
    want = (config.image_size, config.image_size, config.channels)
    single = images.ndim == 3
    stack = images[None] if single else images
    if stack.ndim != 4 or stack.shape[1:] != want or len(stack) == 0:
        raise ShapeError(f"image has shape {images.shape}, model expects {want} or a "
                         f"non-empty stack of them")
    return stack, single


def record_forward(images: np.ndarray, weights: ModelWeights, *,
                   watch_input: bool = False, watch_weights: bool = False):
    """Run a full forward pass of an image or a stack; returns (tape, node-id map).

    With watch_input or watch_weights the pass is recorded on an autodiff
    Tape; with neither there is nothing to differentiate, so it runs on an
    autodiff.Forward, whose node ids are the values themselves and which keeps
    nothing for a backward pass.  Either way ``tape.value(nodes[key])`` reads
    a result.  The node map holds the image-stack leaf (``image``), the
    embedding node per kind and the per-kind logits nodes (``logits.<kind>``),
    each shaped (B, 1, n) with B=1 for a single image, plus the weight leaves
    by name (``weights``).  watch_input and watch_weights make those leaves
    watched, so a backward pass seeded at the head nodes returns their
    gradients.
    """
    cfg = weights.config
    stack, _ = _image_stack(images, cfg)
    tape = Tape() if watch_input or watch_weights else Forward()
    x = tape.leaf(stack, watch=watch_input)
    wid = {name: tape.leaf(t, watch=watch_weights) for name, t in weights.tensors.items()}
    patches = tape.apply("patchify", x, patch_size=cfg.patch_size)
    tokens = tape.apply("linear", patches, wid["patch_proj.w"], wid["patch_proj.b"])
    tokens = tape.apply("concat", wid["cls_token"], tokens)
    tokens = tape.apply("add", tokens, wid["pos_embed"])
    for i in range(cfg.depth):
        p = f"block{i}."
        h = tape.apply("layer_norm", tokens, wid[p + "attn_norm.g"], wid[p + "attn_norm.b"])
        qkv = tape.apply("linear", h, wid[p + "attn.qkv_w"], wid[p + "attn.qkv_b"])
        merged = tape.apply("attention", qkv, heads=cfg.num_heads)
        attn_out = tape.apply("linear", merged, wid[p + "attn.out_w"], wid[p + "attn.out_b"])
        tokens = tape.apply("add", tokens, attn_out)
        h = tape.apply("layer_norm", tokens, wid[p + "mlp_norm.g"], wid[p + "mlp_norm.b"])
        mid = tape.apply("gelu", tape.apply("linear", h, wid[p + "mlp.fc1_w"],
                                            wid[p + "mlp.fc1_b"]))
        mlp_out = tape.apply("linear", mid, wid[p + "mlp.fc2_w"], wid[p + "mlp.fc2_b"])
        tokens = tape.apply("add", tokens, mlp_out)
    tokens = tape.apply("layer_norm", tokens, wid["final_norm.g"], wid["final_norm.b"])
    nodes = {
        "image": x,
        "class_token": tape.apply("mean_pool", tokens, rows=(0, 1)),
        "mil_mean": tape.apply("mean_pool", tokens, rows=(1, cfg.num_tokens)),
        "weights": wid,
    }
    for kind in EMBED_KINDS:
        nodes[f"logits.{kind}"] = tape.apply("linear", nodes[kind], wid[f"head.{kind}.w"],
                                             wid[f"head.{kind}.b"])
    return tape, nodes


def outputs(images, weights: ModelWeights) -> dict[str, np.ndarray]:
    """Both embeddings and both heads' logits of an image or a stack, in one pass.

    Keys are the kinds and ``logits.<kind>``, as in record_forward's node map;
    values are (B, n) rows, or (n,) for one image.  Runs forward only, with no
    tape, one record_forward per CHUNK images.
    """
    stack, single = _image_stack(images, weights.config)
    rows = {key: [] for kind in EMBED_KINDS for key in (kind, f"logits.{kind}")}
    for i in range(0, len(stack), CHUNK):
        tape, nodes = record_forward(stack[i:i + CHUNK], weights)
        for key, parts in rows.items():
            parts.append(tape.value(nodes[key])[:, 0])
    return {key: np.concatenate(parts)[0] if single else np.concatenate(parts)
            for key, parts in rows.items()}


def embed(images: np.ndarray, weights: ModelWeights, kind: str) -> Embedding:
    """Embedding of an image (or a stack) under the chosen head; pure and deterministic.

    No library code calls it: it is the read-out of perfbench/workloads.py, which reads
    ``embed(...).values``.  Everything else reads ``outputs(...)[kind]``.
    """
    return Embedding(outputs(images, weights)[kind], kind)


def matching_loss_grad_embed(images: np.ndarray, target_rows: np.ndarray,
                             weights: ModelWeights, kind: str):
    """(loss, d loss/d image, current embedding values, argmax label) in one pass.

    ``target_rows`` are the target embeddings under ``kind``: a (d,) row for one
    image, (B, d) rows for a stack.  The loss is half the squared L2 distance
    d = f(x) - f(x_tgt); d itself, its gradient at the embedding, seeds the
    tape's backward pass to the image, and the label is the argmax of the same
    tape's logits under ``kind``.  The loss keeps its 64-bit accumulation so
    finite-difference checks are not limited by float32 output quantization.

    For a stack of images and a stack of targets, returns a float64 array of
    per-item losses and the (B, H, W, C) gradients, (B, d) embeddings and (B,) labels.
    """
    cfg = weights.config
    stack, single = _image_stack(images, cfg)
    target_rows = np.asarray(target_rows, dtype=np.float32)
    want = (cfg.embed_dim,) if single else (len(stack), cfg.embed_dim)
    if target_rows.shape != want:
        raise ShapeError(f"target embedding has shape {target_rows.shape}, expected {want}")
    tape, nodes = record_forward(stack, weights, watch_input=True)
    diff = tape.value(nodes[kind]) - target_rows.reshape(len(stack), 1, cfg.embed_dim)
    d64 = diff.astype(np.float64)
    grads = tape.backward({nodes[kind]: d64})[nodes["image"]].astype(np.float32)
    losses = np.array([0.5 * float(d @ d) for d in d64[:, 0]])
    embs = tape.value(nodes[kind])[:, 0].copy()
    labels = np.argmax(tape.value(nodes[f"logits.{kind}"])[:, 0], axis=-1)
    if single:
        return float(losses[0]), grads[0], embs[0], int(labels[0])
    return losses, grads, embs, labels
