"""Weight initialization statistics and the binary container round trip."""

import numpy as np
import pytest

from _reference import file_size
from conftest import tiny_config

from embedmatch.model import ModelConfig, expected_shapes
from embedmatch.weights_io import WeightFormatError, init_weights, load_weights, save_weights


def test_same_seed_bitwise_identical():
    cfg = tiny_config()
    a = init_weights(cfg, 123)
    b = init_weights(cfg, 123)
    assert a.tensors.keys() == b.tensors.keys()
    for name in a.tensors:
        assert a.tensors[name].tobytes() == b.tensors[name].tobytes()


def test_different_seeds_differ():
    cfg = tiny_config()
    a = init_weights(cfg, 1)
    b = init_weights(cfg, 2)
    assert any(a.tensors[n].tobytes() != b.tensors[n].tobytes() for n in a.tensors)


def test_fan_in_scaling():
    cfg = ModelConfig()  # desk scale: plenty of >=1024-entry tensors
    w = init_weights(cfg, 0)
    checked = 0
    for name, t in w.tensors.items():
        if t.size < 1024 or not (name.endswith("_w") or name.endswith(".w")):
            continue
        expected = 1.0 / np.sqrt(t.shape[0])
        assert abs(float(t.std()) - expected) < 0.2 * expected, name
        checked += 1
    assert checked >= 5


def test_biases_zero_gains_one():
    w = init_weights(tiny_config(), 3)
    assert not w.tensors["patch_proj.b"].any()
    assert (w.tensors["block0.attn_norm.g"] == 1.0).all()
    assert not w.tensors["block0.attn_norm.b"].any()


def test_roundtrip_bitwise(tmp_path):
    cfg = tiny_config()
    w = init_weights(cfg, 9)
    path = tmp_path / "w.vitw"
    save_weights(w, path)
    back = load_weights(path)
    assert back.config == cfg
    for name in w.tensors:
        assert back.tensors[name].tobytes() == w.tensors[name].tobytes()
    # file-level idempotence too
    first = path.read_bytes()
    save_weights(back, path)
    assert path.read_bytes() == first


def test_failed_write_keeps_previous_file(tmp_path, fail_writes_halfway):
    path = tmp_path / "weights.vitw"
    save_weights(init_weights(tiny_config(), 0), path)
    before = path.read_bytes()
    fail_writes_halfway()
    with pytest.raises(OSError):
        save_weights(init_weights(tiny_config(), 1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["weights.vitw"]


def test_corrupted_magic_rejected(tmp_path):
    path = tmp_path / "w.vitw"
    save_weights(init_weights(tiny_config(), 0), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(WeightFormatError) as err:
        load_weights(path)
    assert "magic" in str(err.value)
    assert "byte 0" in str(err.value)


def test_truncation_reports_offset(tmp_path):
    path = tmp_path / "w.vitw"
    save_weights(init_weights(tiny_config(), 0), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(WeightFormatError) as err:
        load_weights(path)
    assert "byte" in str(err.value)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "w.vitw"
    save_weights(init_weights(tiny_config(), 0), path)
    data = bytearray(path.read_bytes())
    data[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(WeightFormatError) as err:
        load_weights(path)
    assert "version" in str(err.value)


def test_non_finite_tensor_rejected_by_name(tmp_path):
    path = tmp_path / "w.vitw"
    weights = init_weights(tiny_config(), 0)
    save_weights(weights, path)
    data = bytearray(path.read_bytes())
    name = b"block0.mlp.fc1_w"
    ndim = weights.tensors[name.decode()].ndim
    payload = data.index(name) + len(name) + 1 + 4 * ndim
    data[payload + 8:payload + 12] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(WeightFormatError) as err:
        load_weights(path)
    assert "'block0.mlp.fc1_w'" in str(err.value)
    assert "non-finite" in str(err.value)


def test_file_size_is_analytic(tmp_path):
    for cfg in (tiny_config(), ModelConfig()):
        path = tmp_path / "w.vitw"
        save_weights(init_weights(cfg, 5), path)
        assert path.stat().st_size == file_size(cfg)


def test_expected_shapes_cover_all_parameters():
    cfg = tiny_config(depth=3)
    shapes = expected_shapes(cfg)
    assert sum(int(np.prod(s)) for s in shapes.values()) > 0
    assert f"block{cfg.depth - 1}.mlp.fc2_w" in shapes
    assert "head.class_token.w" in shapes and "head.mil_mean.w" in shapes
