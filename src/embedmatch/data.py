"""Image file IO, labelled manifests with 70/10/20 splits, synthetic data.

Images travel as binary netpbm files only (P5 grayscale, P6 color, maxval 255
or 65535) and live in memory as float32 arrays of shape (H, W, C) scaled to
[0, 1].  The synthetic generator produces fundus-like discs whose lesion-blob
count grows with the class index, so labels are separable by simple pixel
statistics and attacks flip semantically meaningful labels.
"""

from __future__ import annotations

import csv
import io
import math
import os
import reprlib
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ImageParseError(ValueError):
    """Malformed netpbm file; message carries the header line number."""


class ManifestError(ValueError):
    """Malformed manifest CSV; message carries the row number."""


class FieldError(ValueError):
    """A JSON object or CSV row lacks a key or holds a wrong type there; names where and the key."""


def _has_type(value, kind) -> bool:
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_has_type, value, args)))
    if isinstance(value, bool):
        return kind in (bool, object)
    return isinstance(value, (int, float) if kind is float else kind)


def require_keys(obj, keys: dict, where: str) -> None:
    """Raise FieldError at ``where`` for the first of ``keys`` that ``obj`` lacks or mistypes.

    ``keys`` maps each key to its type: a class (a bool is no int, an int is a float),
    ``list[t]`` for a list of ``t``, ``tuple[t1, ..., tn]`` for a list of n items of those
    types, or ``object`` for anything.  None, csv.DictReader's fill for a short row, counts
    as missing; a non-dict lacks every key.
    """
    for key, kind in keys.items():
        value = obj.get(key) if isinstance(obj, dict) else None
        if value is None:
            raise FieldError(f"{where}: missing key {key!r}")
        if not _has_type(value, kind):
            name = kind if typing.get_args(kind) else kind.__name__
            raise FieldError(f"{where}: key {key!r}: expected {name}, got {reprlib.repr(value)}")


@dataclass
class LabelledImage:
    id: str
    image: np.ndarray  # (H, W, C) float32 in [0, 1]
    label: int


@dataclass
class DatasetSplit:
    train: list[str]
    validation: list[str]
    test: list[str]


def write_file(path, payload: str | bytes) -> None:
    """Write a whole file, ``str`` as UTF-8 and ``bytes`` as is, creating its directory.

    The payload goes to a temporary file beside the target that then replaces it in
    one step, so a failed write leaves any earlier file intact and no partial file.
    """
    path = Path(path)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def csv_text(rows) -> str:
    """Rows as ``csv.writer`` text, each line ending in CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# netpbm IO
# ---------------------------------------------------------------------------


class _HeaderScanner:
    """Tokenizes a netpbm header, tracking line numbers for error messages."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.line = 1
        self.path = path

    def fail(self, message: str):
        raise ImageParseError(f"{self.path}: line {self.line}: {message}")

    def _advance(self) -> int:
        ch = self.data[self.pos]
        if ch == 0x0A:
            self.line += 1
        self.pos += 1
        return ch

    def token(self, what: str) -> bytes:
        while self.pos < len(self.data):
            ch = self.data[self.pos]
            if ch == 0x23:  # '#' comment runs to end of line
                while self.pos < len(self.data) and self.data[self.pos] != 0x0A:
                    self.pos += 1
            elif ch in b" \t\r\n":
                self._advance()
            else:
                break
        if self.pos >= len(self.data):
            self.fail(f"unexpected end of file while reading {what}")
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in b" \t\r\n":
            self.pos += 1
        return self.data[start:self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            self.fail(f"expected integer {what}, got {tok!r}")

    def skip_single_whitespace(self):
        if self.pos >= len(self.data) or self.data[self.pos] not in b" \t\r\n":
            self.fail("missing whitespace before pixel data")
        self._advance()


def load_image(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file to a float32 [0,1] image."""
    path = Path(path)
    scan = _HeaderScanner(path.read_bytes(), path)
    magic = scan.token("magic number")
    if magic not in (b"P5", b"P6"):
        scan.fail(f"unsupported magic {magic!r}, expected P5 or P6")
    channels = 3 if magic == b"P6" else 1
    width = scan.int_token("width")
    height = scan.int_token("height")
    maxval = scan.int_token("maxval")
    if width < 1 or height < 1:
        scan.fail(f"invalid dimensions {width}x{height}")
    if maxval not in (255, 65535):
        scan.fail(f"unsupported maxval {maxval}, expected 255 or 65535")
    scan.skip_single_whitespace()
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    count = width * height * channels
    payload = scan.data[scan.pos:]
    if len(payload) != count * dtype.itemsize:
        scan.fail(f"pixel payload is {len(payload)} bytes, expected {count * dtype.itemsize}")
    raw = np.frombuffer(payload, dtype=dtype).reshape(height, width, channels)
    return (raw.astype(np.float32) / np.float32(maxval)).astype(np.float32)


def save_image(image: np.ndarray, path) -> None:
    """Write a float32 [0,1] image as 8-bit P5/P6, rounding half up."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] not in (1, 3):
        raise ValueError(f"save_image: expected (H, W, 1|3) array, got {image.shape}")
    quant = np.floor(image.astype(np.float64) * 255.0 + 0.5)
    quant = np.clip(quant, 0, 255).astype(np.uint8)
    magic = b"P6" if image.shape[2] == 3 else b"P5"
    header = b"%s\n%d %d\n255\n" % (magic, image.shape[1], image.shape[0])
    write_file(path, header + quant.tobytes())


# ---------------------------------------------------------------------------
# manifests and splits
# ---------------------------------------------------------------------------


def load_manifest(path) -> list[tuple[str, int]]:
    """Read a `path,label` CSV; rows come back in file order."""
    path = Path(path)
    entries: list[tuple[str, int]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["path", "label"]:
            raise ManifestError(f"{path}: row 1: expected header 'path,label', got {header}")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ManifestError(f"{path}: row {row_num}: expected 2 fields, got {len(row)}")
            rel, label_tok = row[0].strip(), row[1].strip()
            if not label_tok.isdigit():
                raise ManifestError(f"{path}: row {row_num}: unknown label token {label_tok!r}")
            entries.append((rel, int(label_tok)))
    return entries


def save_manifest(entries, path) -> None:
    write_file(path, csv_text([("path", "label"), *entries]))


def dataset_index(manifest_path) -> dict[str, tuple[Path, int]]:
    """Image id (file stem) -> (image path, label) per manifest row, in file order; decodes nothing.

    An id listed twice keeps its first position and its last row.
    """
    manifest_path = Path(manifest_path)
    index = {}
    for rel, label in load_manifest(manifest_path):
        path = manifest_path.parent / rel
        index[path.stem] = (path, label)
    if not index:
        raise ManifestError(f"{manifest_path}: lists no images")
    return index


def load_items(index, ids) -> dict[str, LabelledImage]:
    """Decode the images of ``ids`` (keys of a dataset_index), each once, into items by id."""
    return {i: LabelledImage(i, load_image(index[i][0]), index[i][1]) for i in dict.fromkeys(ids)}


def load_dataset(manifest_path) -> list[LabelledImage]:
    """Load every image a manifest references, one item per id."""
    index = dataset_index(manifest_path)
    return list(load_items(index, index).values())


def split(ids, seed: int) -> DatasetSplit:
    """Deterministic 70/10/20 partition of ids via a seeded shuffle.

    Validation and test sizes round to nearest; train absorbs the remainder.
    """
    ids = list(ids)
    n = len(ids)
    if n < 3:
        raise ValueError(f"cannot split {n} items into three parts")
    n_val = int(np.floor(0.1 * n + 0.5))
    n_test = int(np.floor(0.2 * n + 0.5))
    n_train = n - n_val - n_test
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    order = rng.permutation(n)
    shuffled = [ids[i] for i in order]
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


# ---------------------------------------------------------------------------
# synthetic fundus-like data
# ---------------------------------------------------------------------------

_DISC_COLOR = np.array([0.62, 0.36, 0.18])
_LESION_COLOR = np.array([0.95, 0.85, 0.40])
NOISE_SIGMA = 0.02


def lesion_count_range(label: int) -> tuple[int, int]:
    """Half-open lesion-count interval for a class: k in [2c, 2c+2).

    Classes must stay separable (adjacent classes sharing counts would cap
    every classifier below the training accuracy gate), so the upper bound is
    exclusive: class c draws k from {2c, 2c+1}.
    """
    return 2 * label, 2 * label + 2


def _render(size: int, label: int, rng: np.random.Generator) -> np.ndarray:
    cx = size / 2 + rng.uniform(-0.5, 0.5)
    cy = size / 2 + rng.uniform(-0.5, 0.5)
    radius = 0.42 * size * rng.uniform(0.99, 1.01)
    grid = np.arange(size)
    r2 = (grid[None, :] - cx) ** 2 + (grid[:, None] - cy) ** 2
    vignette = 1.0 - 0.3 * (r2 / radius**2)
    tint = _DISC_COLOR * rng.uniform(0.98, 1.02, size=3)  # at most 0.633, so no clip
    img = np.where((r2 <= radius**2)[:, :, None], tint * vignette[:, :, None], 0.03)

    lo, hi = lesion_count_range(label)
    count = int(rng.integers(lo, hi))
    placed: list[tuple[float, float, float]] = []
    for _ in range(count):
        br = 0.068 * size
        for _attempt in range(40):
            ang = rng.uniform(0, 2 * np.pi)
            dist = radius * 0.72 * np.sqrt(rng.uniform(0, 1))
            bx, by = cx + dist * np.cos(ang), cy + dist * np.sin(ang)
            if all((bx - px) ** 2 + (by - py) ** 2 > (br + pr + 1.0) ** 2
                   for px, py, pr in placed):
                break
        placed.append((bx, by, br))
        # alpha is 0 outside the blob's bounding box, where the blend keeps every bit
        cols = slice(max(math.floor(bx - br), 0), math.ceil(bx + br) + 1)
        rows = slice(max(math.floor(by - br), 0), math.ceil(by + br) + 1)
        d2 = (grid[None, cols] - bx) ** 2 + (grid[rows, None] - by) ** 2
        alpha = np.maximum(1.0 - d2 / br**2, 0.0)[:, :, None] ** 0.5
        color = _LESION_COLOR * rng.uniform(0.98, 1.02, size=3)  # at most 0.969, so no clip
        box = img[rows, cols]
        box[...] = box * (1 - alpha) + color * alpha

    img = img + rng.normal(0.0, NOISE_SIGMA, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_synthetic(num_per_class: int, num_classes: int, image_size: int,
                       seed: int) -> list[LabelledImage]:
    """Deterministic fundus-like dataset; lesion count grows with the class."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    items = []
    for label in range(num_classes):
        for j in range(num_per_class):
            img = _render(image_size, label, rng)
            items.append(LabelledImage(f"img_{label}_{j:04d}", img, label))
    return items


def write_dataset(items, out_dir) -> Path:
    """Write items as PPM files plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    entries = []
    for item in items:
        name = f"{item.id}.ppm"
        save_image(item.image, out_dir / name)
        entries.append((name, item.label))
    manifest = out_dir / "manifest.csv"
    save_manifest(entries, manifest)
    return manifest
