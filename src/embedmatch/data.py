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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ImageParseError(ValueError):
    """Malformed netpbm file; message carries the header line number."""


class ManifestError(ValueError):
    """Malformed manifest CSV; message carries the row number."""


class MissingKeyError(ValueError):
    """A JSON object or CSV row lacks a key; message names the file, line or row, and key."""


def require_keys(obj, keys, where: str) -> None:
    """Raise MissingKeyError at ``where`` for the first of ``keys`` that ``obj`` lacks.

    None, csv.DictReader's fill for a short row, counts as missing; a non-dict lacks every key.
    """
    missing = [k for k in keys if obj.get(k) is None] if isinstance(obj, dict) else list(keys)
    if missing:
        raise MissingKeyError(f"{where}: missing key {missing[0]!r}")


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


def load_dataset(manifest_path) -> list[LabelledImage]:
    """Load every image referenced by a manifest; ids are file stems."""
    manifest_path = Path(manifest_path)
    items = []
    for rel, label in load_manifest(manifest_path):
        img_path = manifest_path.parent / rel
        items.append(LabelledImage(img_path.stem, load_image(img_path), label))
    if not items:
        raise ManifestError(f"{manifest_path}: lists no images")
    return items


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


def _disc_mask(size, cx, cy):
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - cx) ** 2 + (yy - cy) ** 2, yy, xx


def _render(size: int, label: int, rng: np.random.Generator) -> np.ndarray:
    img = np.full((size, size, 3), 0.03)
    cx = size / 2 + rng.uniform(-0.5, 0.5)
    cy = size / 2 + rng.uniform(-0.5, 0.5)
    radius = 0.42 * size * rng.uniform(0.99, 1.01)
    r2, yy, xx = _disc_mask(size, cx, cy)
    inside = r2 <= radius**2
    vignette = 1.0 - 0.3 * (r2 / radius**2)
    tint = _DISC_COLOR * rng.uniform(0.98, 1.02, size=3)
    img[inside] = np.clip(tint, 0, 1) * vignette[inside, None]

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
        d2 = (xx - bx) ** 2 + (yy - by) ** 2
        alpha = np.clip(1.0 - d2 / br**2, 0.0, 1.0) ** 0.5
        color = np.clip(_LESION_COLOR * rng.uniform(0.98, 1.02, size=3), 0, 1)
        img = img * (1 - alpha[:, :, None]) + color * alpha[:, :, None]

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
