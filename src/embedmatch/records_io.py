"""Serialization of attack suites: JSON-lines records with image sidecars.

Each record is one JSON object per line, its keys AttackRecord's scalar fields
in field order, then the sidecar keys.  The optimized image is stored next to
the records file twice: as an 8-bit PPM preview and as a raw little-endian
float32 sidecar (the exact attack output, shape recorded in the JSON).  The
per-iteration trace is inline, one [iter, loss, cosine, mean_abs_delta] list per
point.  read_records ignores keys it does not need, so older files still load.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .attack import AttackRecord, TracePoint
from .data import FieldError, require_keys, save_image, write_file

# the keys read_records needs and their types: the record's scalar fields in field order,
# then the sidecar keys it reads back
_SCALARS = {name: kind for name, kind in get_type_hints(AttackRecord).items()
            if name not in ("image", "trace")}
_KEYS = _SCALARS | {"image_shape": list[int], "image_raw": str,
                    "trace": list[tuple[tuple(get_type_hints(TracePoint).values())]]}


def _stem(source_id: str, target_id: str) -> str:
    return f"{source_id}__{target_id}"


def check_sidecars(pairs) -> None:
    """Raise ValueError if two (source_id, target_id) pairs would write the same sidecars.

    The stem joins the ids with ``__``, so ("a__b", "c") and ("a", "b__c") collide,
    and the later record's images would overwrite the earlier one's.
    """
    seen = {}
    for pair in pairs:
        stem = _stem(*pair)
        if stem in seen:
            (s0, t0), (s1, t1) = seen[stem], pair
            raise ValueError(f"pairs {s0!r} -> {t0!r} and {s1!r} -> {t1!r} would both write "
                             f"the sidecars images/{stem}.ppm and .f32")
        seen[stem] = pair


def write_records(records, out_dir) -> Path:
    """Write records.jsonl plus its images/ sidecars under out_dir.

    Raises ValueError, before writing anything, if two records share a sidecar stem.
    """
    out_dir = Path(out_dir)
    check_sidecars((r.source_id, r.target_id) for r in records)
    lines = []
    for r in records:
        stem = _stem(r.source_id, r.target_id)
        ppm_rel = f"images/{stem}.ppm"
        raw_rel = f"images/{stem}.f32"
        save_image(r.image, out_dir / ppm_rel)
        write_file(out_dir / raw_rel, np.ascontiguousarray(r.image, dtype="<f4").tobytes())
        lines.append(json.dumps({k: getattr(r, k) for k in _SCALARS} | {
            "image_shape": list(r.image.shape),
            "image_ppm": ppm_rel,
            "image_raw": raw_rel,
            "trace": [astuple(p) for p in r.trace],
        }))
    path = out_dir / "records.jsonl"
    write_file(path, "\n".join(lines) + "\n")
    return path


def read_records(path) -> list[AttackRecord]:
    """Load a records file back, rehydrating images from the f32 sidecars."""
    path = Path(path)
    records = []
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        obj, where = json.loads(line), f"{path}: line {n}"
        require_keys(obj, _KEYS, where)
        raw = (path.parent / obj["image_raw"]).read_bytes()
        shape = obj["image_shape"]
        if len(shape) != 3 or min(shape) < 0 or 4 * math.prod(shape) != len(raw):
            raise FieldError(f"{where}: key 'image_shape': {shape} does not fit the "
                             f"{len(raw)} bytes of {obj['image_raw']}")
        image = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        records.append(AttackRecord(**{k: obj[k] for k in _SCALARS}, image=image,
                                    trace=[TracePoint(*p) for p in obj["trace"]]))
    return records
