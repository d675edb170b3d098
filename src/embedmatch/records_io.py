"""Serialization of attack suites: JSON-lines records with image sidecars.

Each record is one JSON object per line, its keys AttackRecord's scalar fields
in field order, then the sidecar keys.  The optimized image is stored next to
the records file twice: as an 8-bit PPM preview and as a raw little-endian
float32 sidecar (the exact attack output, shape recorded in the JSON).  The
per-iteration trace is inline and also emitted as a CSV for plotting.
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

TRACE_HEADER = "iter,loss,cosine,mean_abs_delta"
# the keys read_records needs and their types: the record's scalar fields in field order,
# then the sidecar keys it reads back
_SCALARS = {name: kind for name, kind in get_type_hints(AttackRecord).items()
            if name not in ("image", "trace")}
_KEYS = _SCALARS | {"image_shape": list[int], "image_raw": str,
                    "trace": list[tuple[tuple(get_type_hints(TracePoint).values())]]}


def write_trace_csv(trace, path) -> None:
    lines = [TRACE_HEADER] + [",".join(map(repr, astuple(p))) for p in trace]
    write_file(path, "\n".join(lines) + "\n")


def write_records(records, out_dir) -> Path:
    """Write records.jsonl plus images/ and traces/ sidecars under out_dir."""
    out_dir = Path(out_dir)
    lines = []
    for r in records:
        stem = f"{r.source_id}__{r.target_id}"
        ppm_rel = f"images/{stem}.ppm"
        raw_rel = f"images/{stem}.f32"
        trace_rel = f"traces/{stem}.csv"
        save_image(r.image, out_dir / ppm_rel)
        write_file(out_dir / raw_rel, np.ascontiguousarray(r.image, dtype="<f4").tobytes())
        write_trace_csv(r.trace, out_dir / trace_rel)
        lines.append(json.dumps({k: getattr(r, k) for k in _SCALARS} | {
            "image_shape": list(r.image.shape),
            "image_ppm": ppm_rel,
            "image_raw": raw_rel,
            "trace_csv": trace_rel,
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
