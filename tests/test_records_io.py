"""JSON-lines record serialization with inline traces and image sidecars."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_image, tiny_config

from embedmatch.attack import PRMConfig, build_pairs, run_suite
from embedmatch.data import LabelledImage
from embedmatch.records_io import read_records, write_records
from embedmatch.weights_io import init_weights


def _records(tmp_path):
    cfg = tiny_config()
    weights = init_weights(cfg, seed=1)
    rng = np.random.default_rng(2)
    items = [LabelledImage(f"im{k}", random_image(rng, cfg), k % 2) for k in range(4)]
    by_id = {it.id: it for it in items}
    pairs = build_pairs(items, seed=0)
    records, _ = run_suite(pairs, weights,
                           PRMConfig(kind="mil_mean", max_iters=12, trace_every=3),
                           by_id)
    return records


def test_write_read_roundtrip_exact(tmp_path):
    records = _records(tmp_path)
    path = write_records(records, tmp_path)
    back = read_records(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.image.tobytes() == b.image.tobytes()  # f32 sidecar is exact
        assert a.trace == b.trace                      # floats survive JSON repr
        assert (a.source_id, a.target_id, a.iterations_used, a.converged,
                a.max_abs_delta, a.label_before, a.label_after) == \
               (b.source_id, b.target_id, b.iterations_used, b.converged,
                b.max_abs_delta, b.label_before, b.label_after)


def test_jsonl_one_record_per_line(tmp_path):
    records = _records(tmp_path)
    path = write_records(records, tmp_path)
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert len(lines) == len(records)
    for line in lines:
        obj = json.loads(line)
        assert {"source_id", "target_id", "image_ppm", "image_raw",
                "trace", "max_abs_delta"} <= obj.keys()
        assert (tmp_path / obj["image_ppm"]).exists()
        assert (tmp_path / obj["image_raw"]).exists()


def test_keys_read_records_does_not_need_are_ignored(tmp_path):
    # files written before the traces/ CSV mirror went carry a trace_csv key on each line
    records = _records(tmp_path)
    path = write_records(records, tmp_path / "old")
    written = path.read_text()
    path.write_text("".join(json.dumps(json.loads(line) | {"trace_csv": "traces/a__b.csv",
                                                             "unknown": [1, "x"]}) + "\n"
                            for line in written.splitlines()))
    back = read_records(path)
    assert [r.image.tobytes() for r in back] == [r.image.tobytes() for r in records]
    # every other field, floats included, in the bytes of a line written afresh
    assert write_records(back, tmp_path / "again").read_text() == written


def test_records_sharing_a_sidecar_are_rejected_before_writing(tmp_path):
    # source__target stems: ("a__b", "c") and ("a", "b__c") would both be images/a__b__c.*
    first, second = _records(tmp_path)[:2]
    records = [replace(first, source_id="a__b", target_id="c"),
               replace(second, source_id="a", target_id="b__c")]
    with pytest.raises(ValueError, match="'a__b' -> 'c' and 'a' -> 'b__c'"):
        write_records(records, tmp_path / "out")
    assert not (tmp_path / "out").exists()
