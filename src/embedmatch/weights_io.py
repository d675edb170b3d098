"""Deterministic weight initialization and a bit-exact binary container.

File layout (all integers little-endian):

    magic "VITW" | version u32 | tensor_count u32
    per tensor: name_len u16 | name utf-8 | ndim u8 | dims u32 each | f32 payload

The model hyperparameters travel as a regular named tensor ("_hparams") so a
file is self-describing; everything else is a parameter tensor.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .model import ModelConfig, ModelWeights, expected_shapes

MAGIC = b"VITW"
VERSION = 1
HPARAMS_NAME = "_hparams"
_HPARAM_FIELDS = ("image_size", "channels", "patch_size", "embed_dim",
                  "depth", "num_heads", "mlp_ratio", "num_classes")


class WeightFormatError(ValueError):
    """Weight file violates the container format; message carries a byte offset."""


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Fresh weights: scaled-normal linears, zero biases, unit norm gains.

    Linear weights draw from N(0, 1/fan_in); the class token and positional
    embeddings from N(0, 0.02^2).  Deterministic for a fixed seed.
    """
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(config).items():
        if name in ("cls_token", "pos_embed"):
            t = rng.standard_normal(shape) * 0.02
        elif name.endswith("_w") or name.endswith(".w"):
            fan_in = shape[0]
            t = rng.standard_normal(shape) / np.sqrt(fan_in)
        elif name.endswith(".g"):
            t = np.ones(shape)
        else:  # biases
            t = np.zeros(shape)
        tensors[name] = t.astype(np.float32)
    return ModelWeights(config, tensors)


def _config_tensor(config: ModelConfig) -> np.ndarray:
    return np.array([getattr(config, f) for f in _HPARAM_FIELDS], dtype=np.float32)


def _config_from_tensor(t: np.ndarray) -> ModelConfig:
    if t.shape != (len(_HPARAM_FIELDS),):
        raise WeightFormatError(f"hparams tensor has shape {t.shape}, expected ({len(_HPARAM_FIELDS)},)")
    return ModelConfig(**{f: int(round(float(v))) for f, v in zip(_HPARAM_FIELDS, t)})


def save_weights(weights: ModelWeights, path) -> None:
    """Write weights to the binary container, hparams tensor first."""
    items = [(HPARAMS_NAME, _config_tensor(weights.config))]
    items.extend(weights.tensors.items())
    parts = [MAGIC, struct.pack("<II", VERSION, len(items))]
    for name, arr in items:
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise WeightFormatError(
                f"truncated weight file: wanted {n} bytes for {what} at byte {self.offset}, "
                f"have {len(self.data) - self.offset}")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_weights(path) -> ModelWeights:
    """Read a container back; bitwise inverse of :func:`save_weights`."""
    r = _Reader(Path(path).read_bytes())
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise WeightFormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    (version,) = r.unpack("<I", "version")
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version} at byte 4, expected {VERSION}")
    (count,) = r.unpack("<I", "tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        name_off = r.offset
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise WeightFormatError(f"tensor name at byte {name_off} is not valid UTF-8") from None
        if name in tensors:
            raise WeightFormatError(f"duplicate tensor name {name!r} at byte {name_off}")
        (ndim,) = r.unpack("<B", "ndim")
        dims = r.unpack(f"<{ndim}I", f"dims of {name!r}")
        payload_off = r.offset
        payload = r.take(4 * int(np.prod(dims, dtype=np.int64)), f"payload of {name!r}")
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(np.float32)
        if not np.isfinite(tensors[name]).all():
            raise WeightFormatError(
                f"tensor {name!r} holds non-finite values (payload at byte {payload_off})")
    if r.offset != len(r.data):
        raise WeightFormatError(f"{len(r.data) - r.offset} trailing bytes at byte {r.offset}")
    if HPARAMS_NAME not in tensors:
        raise WeightFormatError(f"missing {HPARAMS_NAME!r} tensor")
    config = _config_from_tensor(tensors.pop(HPARAMS_NAME))
    try:
        return ModelWeights(config, tensors)
    except ValueError as e:
        raise WeightFormatError(f"tensor set inconsistent with hparams: {e}") from None


def file_size(config: ModelConfig) -> int:
    """Analytic byte size of a saved weight file for this config."""
    total = 4 + 4 + 4
    entries = [(HPARAMS_NAME, (len(_HPARAM_FIELDS),))]
    entries.extend(expected_shapes(config).items())
    for name, shape in entries:
        total += 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape)
        total += 4 * int(np.prod(shape, dtype=np.int64))
    return total
