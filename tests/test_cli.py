"""CLI exit codes, pipeline smoke, idempotence, and the report invariant."""

import csv
import hashlib
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from _reference import record_metrics

from embedmatch import model
from embedmatch.cli import main
from embedmatch.attack import build_pairs
from embedmatch.data import dataset_index, load_dataset, load_image, load_items, save_image, split
from embedmatch.metrics import aggregate
from embedmatch.records_io import read_records, write_records
from embedmatch.seeding import derive_seed
from embedmatch.train import evaluate
from embedmatch.weights_io import load_weights, save_weights

SMALL_GEN = ["--num-per-class", "20", "--num-classes", "2", "--image-size", "16"]
SMALL_TRAIN = ["--patch-size", "4", "--embed-dim", "16", "--depth", "1",
               "--num-heads", "2", "--epochs", "2"]
SMALL_ATTACK = ["--epsilon", "0.1", "--eta", "0.1", "--max-iters", "40",
                "--trace-every", "10", "--kind", "mil", "--num-pairs", "4"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train -> attack, shared by the checks below."""
    root = tmp_path_factory.mktemp("cli")
    data, model, attack = root / "data", root / "model", root / "attack"
    assert main(["gen-data", "--out", str(data), "--seed", "7"] + SMALL_GEN) == 0
    assert main(["train", "--data", str(data), "--out", str(model), "--seed", "7"]
                + SMALL_TRAIN) == 0
    assert main(["attack", "--weights", str(model / "weights.vitw"), "--data", str(data),
                 "--out", str(attack), "--seed", "7"] + SMALL_ATTACK) == 0
    return root


def _analysis_args(root, out=None):
    return ["--weights", str(root / "model" / "weights.vitw"),
            "--data", str(root / "data"),
            "--records", str(root / "attack" / "records.jsonl"),
            "--kind", "mil", "--seed", "7",
            "--out", str(out or root / "attack")]


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["attack", "--data", "somewhere"]) == 1
    assert "--weights" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_nonexistent_weights_file_is_usage_error(pipeline, capsys):
    code = main(["attack", "--weights", str(pipeline / "nope.vitw"),
                 "--data", str(pipeline / "data"), "--out", str(pipeline / "x"),
                 "--seed", "1"] + SMALL_ATTACK)
    assert code == 1
    assert "--weights" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["attack", "metrics", "project", "detect"])
def test_missing_weights_leaves_no_output_directory(pipeline, tmp_path, command):
    out = tmp_path / "out"
    argv = ([command] + _analysis_args(pipeline, out) if command != "attack" else
            ["attack", "--data", str(pipeline / "data"), "--out", str(out)] + SMALL_ATTACK)
    assert main(argv + ["--weights", str(pipeline / "nope.vitw")]) == 1
    assert not out.exists()


def test_failed_rerun_keeps_earlier_outputs(pipeline, tmp_path, fail_writes_halfway):
    out = tmp_path / "out"
    assert main(["metrics"] + _analysis_args(pipeline, out)) == 0
    before = (out / "metrics.json").read_bytes()
    fail_writes_halfway()
    assert main(["metrics"] + _analysis_args(pipeline, out)) == 2
    assert (out / "metrics.json").read_bytes() == before
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


def test_corrupt_weights_is_data_error(pipeline, tmp_path):
    bad = tmp_path / "bad.vitw"
    bad.write_bytes(b"XXXXgarbage")
    code = main(["attack", "--weights", str(bad), "--data", str(pipeline / "data"),
                 "--out", str(tmp_path / "out"), "--seed", "1"] + SMALL_ATTACK)
    assert code == 2


def test_non_finite_weights_is_data_error(pipeline, tmp_path, capsys):
    weights = load_weights(pipeline / "model" / "weights.vitw")
    weights.tensors["block0.attn.qkv_w"][0, 0] = np.nan
    bad = tmp_path / "nan.vitw"
    save_weights(weights, bad)
    code = main(["attack", "--weights", str(bad), "--data", str(pipeline / "data"),
                 "--out", str(tmp_path / "out"), "--seed", "1"] + SMALL_ATTACK)
    assert code == 2
    assert "block0.attn.qkv_w" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("detect", "--draws", "0"),
    ("detect", "--sigmas", "-0.1"),
    ("detect", "--sigmas", "0.05,nan"),
    ("detect", "--sigmas", "inf"),
    ("attack", "--trace-every", "0"),
    ("attack", "--eta", "-1"),
    ("attack", "--num-pairs", "0"),
    ("attack", "--eta", "nan"),
    ("attack", "--eta", "inf"),
    ("attack", "--conv-threshold", "nan"),
    ("attack", "--conv-threshold", "inf"),
    ("attack", "--workers", "0"),
    ("attack", "--workers", "-1"),
    ("train", "--epochs", "0"),
    ("train", "--learning-rate", "nan"),
    ("train", "--learning-rate", "inf"),
    ("train", "--depth", "0"),
    ("train", "--num-classes", "0"),
    ("train", "--seed", "-1"),
    ("attack", "--seed", "-1"),
    ("gen-data", "--seed", "-1"),
    ("gen-data", "--num-per-class", "0"),
    ("gen-data", "--num-per-class", "-2"),
    ("gen-data", "--num-classes", "1"),
    ("gen-data", "--image-size", "0"),
])
def test_out_of_range_flag_is_usage_error(pipeline, tmp_path, capsys, command, flag, value):
    # corrupt weights are a data error (exit 2) once loaded, so exit 1 also
    # shows that the flag is checked before any weights load; no output
    # directory shows that it is checked before anything is written
    bad = tmp_path / "bad.vitw"
    bad.write_bytes(b"XXXXgarbage")
    out = ["--out", str(tmp_path / "out"), "--seed", "7"]
    argv = {
        "train": ["train", "--data", str(pipeline / "data")] + out + SMALL_TRAIN,
        "attack": ["attack", "--weights", str(bad), "--data", str(pipeline / "data")]
                  + out + SMALL_ATTACK,
        "detect": ["detect"] + _analysis_args(pipeline, tmp_path / "out")[2:]
                  + ["--weights", str(bad)],
        "gen-data": ["gen-data"] + out + SMALL_GEN,
    }[command]
    assert main(argv + [flag, value]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_from_environment_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMBEDMATCH_SEED", "-3")
    assert main(["gen-data", "--out", str(tmp_path / "out")] + SMALL_GEN) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "attack"])
def test_manifest_listing_no_images_is_data_error(pipeline, tmp_path, capsys, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "manifest.csv").write_text("path,label\n")
    argv = {
        "train": ["train", "--num-classes", "3"] + SMALL_TRAIN,
        "attack": ["attack", "--weights", str(pipeline / "model" / "weights.vitw")]
                  + SMALL_ATTACK,
    }[command]
    assert main(argv + ["--data", str(empty), "--out", str(tmp_path / "out")]) == 2
    assert "lists no images" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "attack", "metrics", "project", "detect",
                                     "report"])
def test_manifest_listing_one_id_twice_is_data_error(pipeline, tmp_path, capsys, command):
    # per-class folders repeat file stems: class0/0000.ppm and class1/0000.ppm are one id
    data = tmp_path / "classes"
    rows, per_class = ["path,label"], Counter()
    for it in load_dataset(pipeline / "data" / "manifest.csv"):
        rel = f"class{it.label}/{per_class[it.label]:04d}.ppm"
        per_class[it.label] += 1
        save_image(it.image, data / rel)
        rows.append(f"{rel},{it.label}")
    (data / "manifest.csv").write_text("\n".join(rows) + "\n")
    first, second = (2 + rows[1:].index(f"class{k}/0000.ppm,{k}") for k in (0, 1))
    out = ["--out", str(tmp_path / "out")]
    run = tmp_path / "run"
    if command == "report":
        run.mkdir()
        shutil.copy(pipeline / "attack" / "records.jsonl", run)
        manifest = json.loads((pipeline / "attack" / "manifest-attack.json").read_text())
        manifest["args"]["data"] = str(data)
        (run / "manifest-attack.json").write_text(json.dumps(manifest))
    argv = {
        "train": ["train", "--data", str(data), "--seed", "7"] + out + SMALL_TRAIN,
        "attack": ["attack", "--weights", str(pipeline / "model" / "weights.vitw"),
                   "--data", str(data), "--seed", "7"] + out + SMALL_ATTACK,
        "report": ["report", "--run", str(run)] + out,
    }.get(command, [command] + _analysis_args(pipeline, tmp_path / "out") + ["--data", str(data)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "image id '0000'" in err
    assert f"row {first}" in err and f"row {second}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["metrics", "detect"])
def test_records_naming_images_missing_from_data_is_data_error(pipeline, tmp_path, capsys,
                                                               command):
    small = tmp_path / "small"
    assert main(["gen-data", "--out", str(small), "--seed", "7", "--num-per-class", "2",
                 "--num-classes", "2", "--image-size", "16"]) == 0
    capsys.readouterr()
    known = {it.id for it in load_dataset(small / "manifest.csv")}
    first_missing = next(i for r in read_records(pipeline / "attack" / "records.jsonl")
                         for i in (r.source_id, r.target_id) if i not in known)
    argv = [command] + _analysis_args(pipeline, tmp_path / "out") + ["--data", str(small)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and repr(first_missing) in err


def test_attack_outputs_respect_epsilon(pipeline):
    records_path = pipeline / "attack" / "records.jsonl"
    records = read_records(records_path)
    assert records
    for line in records_path.read_text().splitlines():
        obj = json.loads(line)
        assert obj["max_abs_delta"] <= 0.1 + 1e-6
    for r in records:
        assert (pipeline / "attack" / f"images/{r.source_id}__{r.target_id}.ppm").exists()
    assert not (pipeline / "attack" / "traces").exists()  # the trace is inline only


def test_pairs_sharing_a_sidecar_are_data_error(pipeline, tmp_path, capsys):
    # sidecars are named source__target, so ("a__b", "c") and ("a", "b__c") both write
    # images/a__b__c.*; rename four images of two attacked pairs to make them collide
    index = dataset_index(pipeline / "data" / "manifest.csv")
    test_ids = split(list(index), derive_seed(7, "split")).test
    pairs = build_pairs(list(load_items(index, test_ids).values()), derive_seed(7, "pairs"),
                        limit=4)
    (s1, t1), (s2, t2) = next((p, q) for p in pairs for q in pairs if len({*p, *q}) == 4)
    rename = {s1: "a__b", t1: "c", s2: "a", t2: "b__c"}
    data = tmp_path / "data"
    data.mkdir()
    rows = ["path,label"]
    for image_id, (path, label) in index.items():
        name = rename.get(image_id, image_id) + path.suffix
        shutil.copy(path, data / name)
        rows.append(f"{name},{label}")
    (data / "manifest.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert main(["attack", "--weights", str(pipeline / "model" / "weights.vitw"),
                 "--data", str(data), "--out", str(out), "--seed", "7"] + SMALL_ATTACK) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and "images/a__b__c" in err
    assert "'a__b' -> 'c'" in err and "'a' -> 'b__c'" in err
    assert not out.exists()


def _record_files(root):
    """records.jsonl and its image sidecars under root, by relative path."""
    paths = [root / "records.jsonl"] + sorted((root / "images").iterdir())
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in paths}


def test_records_roundtrip_bitwise(pipeline, tmp_path):
    records = read_records(pipeline / "attack" / "records.jsonl")
    again = read_records(pipeline / "attack" / "records.jsonl")
    for a, b in zip(records, again):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.trace == b.trace
    # writing what was read gives back the attack's own files, byte for byte
    write_records(records, tmp_path / "rewritten")
    written = _record_files(tmp_path / "rewritten")
    assert written == _record_files(pipeline / "attack")
    assert len(written) == 1 + 2 * len(records)


def test_metrics_project_detect_report(pipeline):
    assert main(["metrics"] + _analysis_args(pipeline)) == 0
    assert main(["project"] + _analysis_args(pipeline)) == 0
    assert main(["detect"] + _analysis_args(pipeline) + ["--sigmas", "0.0,0.05"]) == 0
    assert main(["report", "--run", str(pipeline / "attack")]) == 0

    report = json.loads((pipeline / "attack" / "report.json").read_text())
    for key in ("clean_accuracy", "attacked_accuracy", "accuracy_drop", "msr",
                "mean_psnr_original", "std_psnr_original", "mean_psnr_target",
                "mean_ssim_original", "mean_ssim_target", "mean_cosine_original",
                "mean_cosine_target", "n_records", "psnr_excluded"):
        assert key in report["metrics"], key
    assert report["detector_sweep"]
    assert (pipeline / "attack" / "summary.txt").exists()

    # report values equal recomputation from the raw records (no report-only math)
    weights, by_id, records = _inputs(pipeline)
    clean = evaluate(weights, _test_split(by_id, 7))["mil_mean"]
    expected = aggregate(records, record_metrics(records, by_id, weights, "mil_mean"), clean)
    for key, value in expected.to_dict().items():
        assert report["metrics"][key] == pytest.approx(value), key


def _inputs(root):
    """The pipeline's weights, dataset items by id and attack records."""
    items = load_dataset(root / "data" / "manifest.csv")
    return (load_weights(root / "model" / "weights.vitw"), {it.id: it for it in items},
            read_records(root / "attack" / "records.jsonl"))


def _test_split(by_id, seed):
    return [by_id[i] for i in split(list(by_id), derive_seed(seed, "split")).test]


def test_metrics_and_report_are_strict_json_when_every_psnr_is_infinite(pipeline, tmp_path):
    # records whose image is their source: every original PSNR is infinite, its mean NaN
    by_id = {it.id: it for it in load_dataset(pipeline / "data" / "manifest.csv")}
    records = read_records(pipeline / "attack" / "records.jsonl")
    for r in records:
        r.image = by_id[r.source_id].image
    run = tmp_path / "run"
    write_records(records, run)
    shutil.copy(pipeline / "attack" / "manifest-attack.json", run)
    out = tmp_path / "out"
    assert main(["metrics"] + _analysis_args(pipeline, out)
                + ["--records", str(run / "records.jsonl")]) == 0
    assert main(["report", "--run", str(run), "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    assert metrics["psnr_excluded"] == len(records)
    assert metrics["mean_psnr_original"] is None and metrics["std_psnr_original"] is None
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["metrics"] == metrics


@pytest.mark.parametrize("command", ["metrics", "project", "detect", "report"])
def test_analysis_command_runs_each_image_forward_once(pipeline, tmp_path, monkeypatch,
                                                       command):
    seen = Counter()
    record_forward = model.record_forward

    def counting(images, *args, **kwargs):
        seen.update(hashlib.sha256(x.tobytes()).hexdigest() for x in images)
        return record_forward(images, *args, **kwargs)

    monkeypatch.setattr(model, "record_forward", counting)
    out = tmp_path / "out"
    argv = (["report", "--run", str(pipeline / "attack"), "--out", str(out)]
            if command == "report" else [command] + _analysis_args(pipeline, out))
    assert main(argv) == 0
    assert seen and max(seen.values()) == 1, seen.most_common(1)


@pytest.mark.parametrize("command", ["metrics", "detect"])
def test_analysis_command_decodes_only_images_it_reads(pipeline, tmp_path, monkeypatch, capsys,
                                                       command):
    _, by_id, records = _inputs(pipeline)
    named = [i for r in records for i in (r.source_id, r.target_id)]
    readable = {it.id for it in _test_split(by_id, 7)} | set(named)
    decoded = Counter()

    def counting(path):
        decoded[Path(path).stem] += 1
        return load_image(path)

    monkeypatch.setattr("embedmatch.data.load_image", counting)
    assert main([command] + _analysis_args(pipeline, tmp_path / "out")) == 0
    assert decoded and set(decoded) <= readable and max(decoded.values()) == 1, decoded
    # an image the command does not read is not checked; one it reads is
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    argv = [command] + _analysis_args(pipeline, tmp_path / "out") + ["--data", str(data)]
    (data / f"{next(i for i in by_id if i not in readable)}.ppm").write_bytes(b"P6\n")
    assert main(argv) == 0
    (data / f"{named[0]}.ppm").write_bytes(b"P6\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(data / f"{named[0]}.ppm") in err


def test_train_decodes_no_test_split_image(pipeline, tmp_path, capsys):
    _, by_id, _ = _inputs(pipeline)
    parts = split(list(by_id), derive_seed(7, "split"))
    data, out = tmp_path / "data", tmp_path / "model"
    shutil.copytree(pipeline / "data", data)
    argv = ["train", "--data", str(data), "--out", str(out), "--seed", "7"] + SMALL_TRAIN
    (data / f"{parts.test[0]}.ppm").write_bytes(b"P6\n")
    assert main(argv) == 0
    assert (out / "weights.vitw").read_bytes() == \
        (pipeline / "model" / "weights.vitw").read_bytes()
    (data / f"{parts.train[0]}.ppm").write_bytes(b"P6\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(data / f"{parts.train[0]}.ppm") in err


def test_metrics_under_another_seed_reads_images_off_its_test_split(pipeline, tmp_path):
    # the records come from seed 7; seed 8's test split lacks some of their images
    out = tmp_path / "out"
    assert main(["metrics"] + _analysis_args(pipeline, out) + ["--seed", "8"]) == 0
    weights, by_id, records = _inputs(pipeline)
    test_items = _test_split(by_id, 8)
    named = {i for r in records for i in (r.source_id, r.target_id)}
    assert named - {it.id for it in test_items}
    with (out / "per_record.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = record_metrics(records, by_id, weights, "mil_mean")
    assert len(rows) == len(expected)
    for row, m in zip(rows, expected):
        for key, value in m.__dict__.items():
            assert type(value)(row[key]) == value, key
    report = json.loads((out / "metrics.json").read_text())
    assert report["clean_accuracy"] == evaluate(weights, test_items)["mil_mean"]


_DROP = object()
# case: (file, key path into its JSON, new value or _DROP, what the message names)
_JSON_EDITS = {
    "manifest": ("manifest-attack.json", ("args", "weights"), _DROP,
                 "args: missing key 'weights'"),
    "manifest-kind": ("manifest-attack.json", ("args", "kind"), "cnn", "args: unknown kind 'cnn'"),
    "manifest-kind-list": ("manifest-attack.json", ("args", "kind"), ["mil"],
                           "args: unknown kind ['mil']"),
    "manifest-weights-type": ("manifest-attack.json", ("args", "weights"), 5,
                              "args: key 'weights': expected str"),
    "manifest-data-type": ("manifest-attack.json", ("args", "data"), ["data"],
                           "args: key 'data': expected str"),
    "manifest-seed-type": ("manifest-attack.json", ("seed",), "abc", "key 'seed': expected int"),
    "manifest-seed-fraction": ("manifest-attack.json", ("seed",), 1.5, "key 'seed': expected int"),
    "manifest-seed-negative": ("manifest-attack.json", ("seed",), -1, "key 'seed': must be >= 0"),
    "records": ("records.jsonl", ("label_after",), _DROP, "line 1: missing key 'label_after'"),
    "records-label-type": ("records.jsonl", ("label_after",), "x",
                           "line 1: key 'label_after': expected int"),
    "records-trace-point": ("records.jsonl", ("trace", 0), [1, 2],
                            "line 1: key 'trace': expected list[tuple[int, float, float, float]]"),
    "records-trace-type": ("records.jsonl", ("trace",), 5, "line 1: key 'trace'"),
    "records-shape-type": ("records.jsonl", ("image_shape",), "abc",
                           "line 1: key 'image_shape': expected list[int]"),
    "records-shape-size": ("records.jsonl", ("image_shape",), [2, 2],
                           "line 1: key 'image_shape': [2, 2] does not fit"),
    "records-raw-type": ("records.jsonl", ("image_raw",), 5,
                         "line 1: key 'image_raw': expected str"),
}


def _edit_json(obj, keys, value):
    for key in keys[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[keys[-1]]
    else:
        obj[keys[-1]] = value


@pytest.mark.parametrize("case", ["sweep", "sweep-short-row", *_JSON_EDITS, "records-number"])
def test_input_missing_a_key_is_data_error(pipeline, tmp_path, capsys, case):
    run = tmp_path / "run"
    shutil.copytree(pipeline / "attack", run,
                    ignore=shutil.ignore_patterns("sweep.csv", "projections.csv"))
    records = run / "records.jsonl"
    if case == "sweep":
        (run / "sweep.csv").write_text("sigma,clean\n0.05,0.0\n")
        where = "sweep.csv: row 2: missing key 'clean_rate'"
    elif case == "sweep-short-row":
        (run / "sweep.csv").write_text("sigma,clean_rate,attacked_rate\n0.05,0.0\n")
        where = "sweep.csv: row 2: missing key 'attacked_rate'"
    elif case == "records-number":
        records.write_text("3\n")  # valid JSON, but not an object
        where = "records.jsonl: line 1: missing key 'source_id'"
    else:
        name, keys, value, message = _JSON_EDITS[case]
        text = (run / name).read_text()
        # records.jsonl: the first line's object; the manifest: the whole file's
        first, *rest = text.splitlines() if name == "records.jsonl" else [text]
        obj = json.loads(first)
        _edit_json(obj, keys, value)
        (run / name).write_text("\n".join([json.dumps(obj)] + rest) + "\n")
        where = f"{name}: {message}"
    out = tmp_path / "out"
    argv = (["metrics"] + _analysis_args(pipeline, out) + ["--records", str(records)]
            if case.startswith("records") else ["report", "--run", str(run), "--out", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error") and f"{run / where}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "report"])
def test_empty_records_is_usage_error(pipeline, tmp_path, capsys, command):
    run = tmp_path / "run"
    shutil.copytree(pipeline / "attack", run)
    (run / "records.jsonl").write_text("\n")  # what an attack whose every pair failed writes
    out = tmp_path / "out"
    argv = {
        "metrics": ["metrics"] + _analysis_args(pipeline, out)
                   + ["--records", str(run / "records.jsonl")],
        "report": ["report", "--run", str(run), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    assert "no records in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column, cell, expected", [
    ("sigma", "abc", "finite number >= 0, got 'abc'"),
    ("sigma", "nan", "finite number >= 0, got 'nan'"),
    ("sigma", "inf", "finite number >= 0, got 'inf'"),
    ("sigma", "-0.05", "finite number >= 0, got '-0.05'"),
    ("clean_rate", "-3", "finite number in [0, 1], got '-3'"),
    ("clean_rate", "nan", "finite number in [0, 1], got 'nan'"),
    ("attacked_rate", "1.5", "finite number in [0, 1], got '1.5'"),
    ("attacked_rate", "-inf", "finite number in [0, 1], got '-inf'"),
])
def test_bad_sweep_cell_is_data_error(pipeline, tmp_path, capsys, column, cell, expected):
    run = tmp_path / "run"
    shutil.copytree(pipeline / "attack", run,
                    ignore=shutil.ignore_patterns("sweep.csv", "projections.csv"))
    row = {"sigma": "0.05", "clean_rate": "0.0", "attacked_rate": "0.5", column: cell}
    (run / "sweep.csv").write_text("sigma,clean_rate,attacked_rate\n0.1,0.0,0.25\n"
                                   + ",".join(row.values()) + "\n")
    out = tmp_path / "out"
    assert main(["report", "--run", str(run), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error")
    assert f"{run / 'sweep.csv'}: row 3: column {column!r}: expected a {expected}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sweep", "--projections"])
def test_report_path_flag_naming_missing_file_is_usage_error(pipeline, tmp_path, capsys, flag):
    # a run directory holding only the attack's outputs: its own sweep.csv and
    # projections.csv are optional, a path given on the command line is not
    run = tmp_path / "run"
    shutil.copytree(pipeline / "attack", run,
                    ignore=shutil.ignore_patterns("sweep.csv", "projections.csv"))
    out = tmp_path / "out"
    assert main(["report", "--run", str(run), "--out", str(out), flag,
                 str(tmp_path / "missing.csv")]) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()
    assert main(["report", "--run", str(tmp_path), "--out", str(out)]) == 1  # no attack run
    assert not out.exists()
    assert main(["report", "--run", str(run), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["detector_sweep"] == [] and report["projections_csv"] is None


def test_projections_csv_shape(pipeline):
    lines = (pipeline / "attack" / "projections.csv").read_text().strip().splitlines()
    assert lines[0] == "id,role,pc1,pc2,pc3,pc4,pc5,pc6"
    roles = {line.split(",")[1] for line in lines[1:]}
    assert roles == {"original", "optimized", "target"}


def test_command_idempotence(pipeline, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["attack", "--weights", str(pipeline / "model" / "weights.vitw"),
            "--data", str(pipeline / "data"), "--seed", "7"] + SMALL_ATTACK
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        if rel.name.startswith("manifest-"):
            continue  # carries a timestamp
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_rerun_from_manifest_reproduces(pipeline, tmp_path):
    manifest = json.loads((pipeline / "attack" / "manifest-attack.json").read_text())
    args = manifest["args"]
    out = tmp_path / "redo"
    argv = ["attack"]
    for key, value in args.items():
        if value is None or key == "out":
            continue
        argv += [f"--{key.replace('_', '-')}", str(value)]
    argv += ["--out", str(out)]
    assert main(argv) == 0
    original = (pipeline / "attack" / "records.jsonl").read_bytes()
    assert (out / "records.jsonl").read_bytes() == original


def test_seed_env_fallback(pipeline, tmp_path, monkeypatch):
    out_env, out_flag = tmp_path / "env", tmp_path / "flag"
    base = ["attack", "--weights", str(pipeline / "model" / "weights.vitw"),
            "--data", str(pipeline / "data")] + SMALL_ATTACK
    monkeypatch.setenv("EMBEDMATCH_SEED", "7")
    assert main(base + ["--out", str(out_env)]) == 0
    monkeypatch.delenv("EMBEDMATCH_SEED")
    assert main(base + ["--out", str(out_flag), "--seed", "7"]) == 0
    assert (out_env / "records.jsonl").read_bytes() == \
           (out_flag / "records.jsonl").read_bytes()


def test_gen_data_manifest_loadable(pipeline):
    from embedmatch.data import load_dataset
    items = load_dataset(pipeline / "data" / "manifest.csv")
    assert len(items) == 40
    labels = {it.label for it in items}
    assert labels == {0, 1}
