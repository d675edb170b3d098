"""Serialization of attack suites: JSON-lines records with image sidecars.

Each record is one JSON object per line.  The optimized image is stored next
to the records file twice: as an 8-bit PPM preview and as a raw little-endian
float32 sidecar (the exact attack output, shape recorded in the JSON).  The
per-iteration trace is inline and also emitted as a CSV for plotting.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .attack import AttackRecord, TracePoint
from .data import save_image, write_file

TRACE_HEADER = "iter,loss,cosine,mean_abs_delta"


def write_trace_csv(trace, path) -> None:
    lines = [TRACE_HEADER]
    for p in trace:
        lines.append(f"{p.iteration},{p.loss!r},{p.cosine!r},{p.mean_abs_delta!r}")
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
        lines.append(json.dumps({
            "source_id": r.source_id,
            "target_id": r.target_id,
            "iterations_used": r.iterations_used,
            "converged": r.converged,
            "max_abs_delta": r.max_abs_delta,
            "label_source_true": r.label_source_true,
            "label_target_true": r.label_target_true,
            "label_before": r.label_before,
            "label_after": r.label_after,
            "image_shape": list(r.image.shape),
            "image_ppm": ppm_rel,
            "image_raw": raw_rel,
            "trace_csv": trace_rel,
            "trace": [[p.iteration, p.loss, p.cosine, p.mean_abs_delta] for p in r.trace],
        }))
    path = out_dir / "records.jsonl"
    write_file(path, "\n".join(lines) + "\n")
    return path


def read_records(path) -> list[AttackRecord]:
    """Load a records file back, rehydrating images from the f32 sidecars."""
    path = Path(path)
    records = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        shape = tuple(obj["image_shape"])
        raw = (path.parent / obj["image_raw"]).read_bytes()
        image = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
        records.append(AttackRecord(
            source_id=obj["source_id"],
            target_id=obj["target_id"],
            image=image,
            iterations_used=obj["iterations_used"],
            trace=[TracePoint(*p) for p in obj["trace"]],
            label_source_true=obj["label_source_true"],
            label_target_true=obj["label_target_true"],
            label_before=obj["label_before"],
            label_after=obj["label_after"],
            max_abs_delta=obj["max_abs_delta"],
            converged=obj["converged"],
        ))
    return records
