"""CLI exit codes, pipeline smoke, idempotence, and the report invariant."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from embedmatch.cli import main
from embedmatch.records_io import read_records
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


def test_attack_outputs_respect_epsilon(pipeline):
    records_path = pipeline / "attack" / "records.jsonl"
    records = read_records(records_path)
    assert records
    for line in records_path.read_text().splitlines():
        obj = json.loads(line)
        assert obj["max_abs_delta"] <= 0.1 + 1e-6
    for r in records:
        assert (pipeline / "attack" / f"images/{r.source_id}__{r.target_id}.ppm").exists()
        assert (pipeline / "attack" / f"traces/{r.source_id}__{r.target_id}.csv").exists()


def test_records_roundtrip_bitwise(pipeline):
    records = read_records(pipeline / "attack" / "records.jsonl")
    again = read_records(pipeline / "attack" / "records.jsonl")
    for a, b in zip(records, again):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.trace == b.trace


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
    from embedmatch.data import load_dataset
    from embedmatch.metrics import aggregate
    from embedmatch.train import evaluate
    from embedmatch.weights_io import load_weights
    from embedmatch.cli import _split_items
    weights = load_weights(pipeline / "model" / "weights.vitw")
    items = load_dataset(pipeline / "data" / "manifest.csv")
    records = read_records(pipeline / "attack" / "records.jsonl")
    _, _, test_items = _split_items(items, 7)
    clean = evaluate(weights, test_items)["mil_mean"]
    expected = aggregate(records, clean, items_by_id={it.id: it for it in items},
                         weights=weights, kind="mil_mean")
    for key, value in expected.to_dict().items():
        assert report["metrics"][key] == pytest.approx(value), key


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
