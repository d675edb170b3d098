"""Tiny vision transformer with two embedding heads and the matching loss.

The network is a standard pre-norm ViT: patch projection, learned class token
and positional embeddings, multi-head self-attention blocks with GELU MLPs,
and a final layer norm.  Two image-level embeddings are exposed: the final
class-token vector ("class_token") and the mean over final patch tokens
("mil_mean").  Each has its own linear classifier head.

All forward passes run on an autodiff tape so the matching loss can be
differentiated with respect to the input image.  Every entry point takes one
image (H, W, C) or a stack (B, H, W, C); a single image runs as a stack of
one, and each item of a stack gets bitwise the result it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tape, backward_to_input

EMBED_KINDS = ("class_token", "mil_mean")


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
        for name in ("image_size", "channels", "patch_size", "embed_dim",
                     "depth", "num_heads", "mlp_ratio", "num_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"ModelConfig.{name} must be >= 1")
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
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

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

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


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


def _check_kind(kind: str) -> str:
    if kind not in EMBED_KINDS:
        raise ValueError(f"unknown embedding kind {kind!r}; expected one of {EMBED_KINDS}")
    return kind


def _record_trunk(tape: Tape, x: int, wid: dict[str, int], cfg: ModelConfig) -> tuple[int, int]:
    """Record the transformer trunk; returns (class-token, mil-mean) node ids, each (B, 1, d)."""
    patches = tape.apply("patchify", x, patch_size=cfg.patch_size)
    tokens = tape.apply("add", tape.apply("matmul", patches, wid["patch_proj.w"]),
                        wid["patch_proj.b"])
    tokens = tape.apply("concat", wid["cls_token"], tokens)
    tokens = tape.apply("add", tokens, wid["pos_embed"])
    for i in range(cfg.depth):
        p = f"block{i}."
        h = tape.apply("layer_norm", tokens, wid[p + "attn_norm.g"], wid[p + "attn_norm.b"])
        qkv = tape.apply("add", tape.apply("matmul", h, wid[p + "attn.qkv_w"]),
                         wid[p + "attn.qkv_b"])
        merged = tape.apply("attention", qkv, heads=cfg.num_heads)
        attn_out = tape.apply("add", tape.apply("matmul", merged, wid[p + "attn.out_w"]),
                              wid[p + "attn.out_b"])
        tokens = tape.apply("add", tokens, attn_out)
        h = tape.apply("layer_norm", tokens, wid[p + "mlp_norm.g"], wid[p + "mlp_norm.b"])
        mid = tape.apply("gelu", tape.apply("add", tape.apply("matmul", h, wid[p + "mlp.fc1_w"]),
                                            wid[p + "mlp.fc1_b"]))
        mlp_out = tape.apply("add", tape.apply("matmul", mid, wid[p + "mlp.fc2_w"]),
                             wid[p + "mlp.fc2_b"])
        tokens = tape.apply("add", tokens, mlp_out)
    tokens = tape.apply("layer_norm", tokens, wid["final_norm.g"], wid["final_norm.b"])
    cls_vec = tape.apply("slice", tokens, rows=(0, 1))
    mil_vec = tape.apply("mean_pool", tape.apply("slice", tokens, rows=(1, cfg.num_tokens)))
    return cls_vec, mil_vec


def record_forward(images: np.ndarray, weights: ModelWeights, *,
                   watch_input: bool = False, watch_weights: bool = False):
    """Record a full forward pass of an image or a stack; returns (tape, node-id map).

    The node map contains the embedding node per kind plus per-kind logits
    nodes (``logits.<kind>``), each shaped (B, 1, n) with B=1 for a single
    image.  The image-stack leaf is the tape root.
    """
    cfg = weights.config
    stack, _ = _image_stack(images, cfg)
    tape = Tape()
    x = tape.input_leaf(stack) if watch_input else tape.leaf(stack)
    if not watch_input:
        tape.root = x
    wid = {name: tape.leaf(t, watch=watch_weights) for name, t in weights.tensors.items()}
    cls_vec, mil_vec = _record_trunk(tape, x, wid, cfg)
    nodes = {"class_token": cls_vec, "mil_mean": mil_vec, "weights": wid}
    for kind in EMBED_KINDS:
        nodes[f"logits.{kind}"] = tape.apply(
            "add", tape.apply("matmul", nodes[kind], wid[f"head.{kind}.w"]),
            wid[f"head.{kind}.b"])
    return tape, nodes


def _forward_rows(images, weights: ModelWeights, key: str) -> np.ndarray:
    """One forward pass; the (B, n) rows of a node, or (n,) for a single image."""
    stack, single = _image_stack(images, weights.config)
    tape, nodes = record_forward(stack, weights)
    rows = tape.value(nodes[key])[:, 0]
    return (rows[0] if single else rows).copy()


def embed(images: np.ndarray, weights: ModelWeights, kind: str) -> Embedding:
    """Embedding of an image (or a stack) under the chosen head; pure and deterministic."""
    return Embedding(_forward_rows(images, weights, _check_kind(kind)), kind)


def logits(images: np.ndarray, weights: ModelWeights, kind: str) -> np.ndarray:
    """Classifier logits for the chosen embedding kind, (num_classes,) or (B, num_classes)."""
    return _forward_rows(images, weights, f"logits.{_check_kind(kind)}")


def predict(images: np.ndarray, weights: ModelWeights, kind: str):
    """Predicted class label (an int, or an int array for a stack); ties go to the lowest index."""
    labels = np.argmax(logits(images, weights, kind), axis=-1)
    return int(labels) if labels.ndim == 0 else labels


def _matching_graph(images: np.ndarray, target: Embedding, weights: ModelWeights, kind: str):
    _check_kind(kind)
    if target.kind != kind:
        raise ValueError(f"target embedding kind {target.kind!r} does not match requested {kind!r}")
    cfg = weights.config
    stack, single = _image_stack(images, cfg)
    want = (cfg.embed_dim,) if single else (len(stack), cfg.embed_dim)
    if target.values.shape != want:
        raise ShapeError(f"target embedding has shape {target.values.shape}, expected {want}")
    tape = Tape()
    x = tape.input_leaf(stack)
    wid = {name: tape.leaf(t) for name, t in weights.tensors.items()}
    cls_vec, mil_vec = _record_trunk(tape, x, wid, cfg)
    emb = cls_vec if kind == "class_token" else mil_vec
    tgt = tape.leaf(target.values.reshape(len(stack), 1, cfg.embed_dim))
    diff = tape.apply("add", emb, tape.apply("scale", tgt, factor=-1.0))
    loss = tape.apply("scale", tape.apply("matmul", diff, diff, transpose_b=True), factor=0.5)
    return tape, loss, diff, emb, single


def matching_loss_grad_embed(images: np.ndarray, target: Embedding,
                             weights: ModelWeights, kind: str):
    """(loss, d loss/d image, current embedding values) in one pass.

    The loss is half the squared L2 distance between the image's embedding and
    the target embedding; the gradient comes from the recorded tape.  The
    returned scalar keeps its 64-bit accumulation (the stored node is float32)
    so finite-difference checks are not limited by output quantization.

    For a stack of images and a stack of targets, returns a float64 array of
    per-item losses, the (B, H, W, C) gradients and the (B, d) embeddings.
    """
    tape, loss, diff, emb, single = _matching_graph(images, target, weights, kind)
    grads = backward_to_input(tape, loss)
    d64 = tape.value(diff)[:, 0].astype(np.float64)
    losses = np.array([0.5 * float(d @ d) for d in d64])
    embs = tape.value(emb)[:, 0].copy()
    if single:
        return float(losses[0]), grads[0], embs[0]
    return losses, grads, embs
