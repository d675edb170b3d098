"""File output, netpbm IO, manifests, deterministic splits, and the synthetic generator."""

import ast
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embedmatch
from embedmatch.data import (ImageParseError, ManifestError, generate_synthetic,
                             lesion_count_range, load_dataset, load_image,
                             load_manifest, save_image, save_manifest, split,
                             write_dataset, write_file)

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


# --- file output ----------------------------------------------------------------


def test_write_file_text_as_utf8_bytes_as_is(tmp_path):
    text, raw = tmp_path / "a" / "b" / "t.csv", tmp_path / "r.f32"
    write_file(text, "é,1\r\n2\n")
    write_file(raw, b"\x00\r\n\xff")
    assert text.read_bytes() == "é,1\r\n2\n".encode("utf-8")
    assert raw.read_bytes() == b"\x00\r\n\xff"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "r.f32", "t.csv"]


def _writes_or_makes_dirs(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes", "mkdir", "makedirs"):
        return True
    if name != "open":
        return False
    # builtin open(file, mode), Path.open(mode); a mode that is not a literal counts
    positional = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes = positional + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or re.search("[wax+]", m.value) for m in modes)


def test_write_file_is_the_only_output_path():
    sites = []
    for path in sorted(Path(embedmatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "data.py":
            tree.body = [s for s in tree.body if getattr(s, "name", None) != "write_file"]
        sites += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and _writes_or_makes_dirs(n)]
    assert sites == []


# --- netpbm ---------------------------------------------------------------------


def test_p6_pixel_mapping(tmp_path):
    path = tmp_path / "one.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 128]))
    img = load_image(path)
    assert img.shape == (1, 1, 3)
    np.testing.assert_allclose(img[0, 0], [1.0, 0.0, 128 / 255], atol=1e-7)


def test_p5_16bit_max_is_one(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + (65535).to_bytes(2, "big") + (0).to_bytes(2, "big"))
    img = load_image(path)
    assert img.shape == (1, 2, 1)
    assert img[0, 0, 0] == 1.0
    assert img[0, 1, 0] == 0.0


def test_header_comments_ok(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 1 # dims\n255\n\x01\x02")
    img = load_image(path)
    np.testing.assert_allclose(img.reshape(-1), [1 / 255, 2 / 255], atol=1e-7)


@settings(max_examples=20)
@given(h=st.integers(1, 6), w=st.integers(1, 6), data=st.data())
def test_save_load_roundtrip_on_quantized(tmp_path_factory, h, w, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    raw = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    img = (raw.astype(np.float32) / 255.0).astype(np.float32)
    path = tmp_path_factory.mktemp("ppm") / "x.ppm"
    save_image(img, path)
    first = path.read_bytes()
    save_image(load_image(path), path)
    assert path.read_bytes() == first
    np.testing.assert_array_equal((load_image(path) * 255).round().astype(np.uint8), raw)


def test_rounding_is_half_up(tmp_path):
    path = tmp_path / "r.pgm"
    # 0.5/255 rounds up to 1, just below rounds down to 0
    img = np.array([[[0.5 / 255], [0.49 / 255]]], dtype=np.float32)
    save_image(img, path)
    assert path.read_bytes().endswith(bytes([1, 0]))


@pytest.mark.parametrize("payload,fragment", [
    (b"P4\n1 1\n255\n\x00", "magic"),
    (b"P5\n1 1\n31\n\x00", "maxval"),
    (b"P5\n0 1\n255\n", "dimensions"),
    (b"P5\n1 1\n255\n\x00\x00", "payload"),
    (b"P5\n1\n", "end of file"),
])
def test_malformed_headers_report_line(tmp_path, payload, fragment):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(ImageParseError) as err:
        load_image(path)
    assert "line" in str(err.value)
    assert fragment in str(err.value)


# --- manifests and splits --------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "manifest.csv"
    save_manifest([("a.ppm", 0), ("b.ppm", 2)], path)
    assert load_manifest(path) == [("a.ppm", 0), ("b.ppm", 2)]


def test_manifest_unknown_label_reports_row(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,label\na.ppm,0\nb.ppm,two\n")
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert "row 3" in str(err.value)


def test_manifest_bad_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("file,cls\na.ppm,0\n")
    with pytest.raises(ManifestError) as err:
        load_manifest(path)
    assert "row 1" in str(err.value)


def test_split_sizes_small():
    parts = split([f"i{k}" for k in range(10)], 0)
    assert (len(parts.train), len(parts.validation), len(parts.test)) == (7, 1, 2)


def test_split_deterministic_and_partition():
    ids = [f"i{k}" for k in range(1000)]
    a = split(ids, 7)
    b = split(ids, 7)
    assert a == b
    assert (len(a.train), len(a.validation), len(a.test)) == (700, 100, 200)
    union = set(a.train) | set(a.validation) | set(a.test)
    assert union == set(ids)
    assert len(a.train) + len(a.validation) + len(a.test) == len(ids)


def test_split_reseeding_changes_membership_not_sizes():
    ids = [f"i{k}" for k in range(50)]
    a = split(ids, 1)
    b = split(ids, 2)
    assert (len(a.train), len(a.validation), len(a.test)) == \
           (len(b.train), len(b.validation), len(b.test))
    assert set(a.train) != set(b.train)


# --- synthetic generator ----------------------------------------------------------


def _bright_components(image, threshold=0.8):
    """4-connected components of bright pixels (tiny BFS, test-local oracle)."""
    mask = image.max(axis=2) > threshold
    seen = np.zeros_like(mask)
    count = 0
    h, w = mask.shape
    for i in range(h):
        for j in range(w):
            if not mask[i, j] or seen[i, j]:
                continue
            count += 1
            stack = [(i, j)]
            seen[i, j] = True
            while stack:
                y, x = stack.pop()
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return count


def test_class0_has_at_most_two_blobs():
    lo, hi = lesion_count_range(0)
    assert lo == 0 and hi <= 2
    items = [it for it in generate_synthetic(20, 3, 32, seed=0) if it.label == 0]
    assert all(_bright_components(it.image) <= 2 for it in items)


def test_generator_deterministic_bitwise():
    a = generate_synthetic(10, 3, 32, seed=42)
    b = generate_synthetic(10, 3, 32, seed=42)
    assert all(x.image.tobytes() == y.image.tobytes() and x.id == y.id and x.label == y.label
               for x, y in zip(a, b))


@pytest.mark.parametrize("case, digest", [
    ((1, 2, 1, 0), "d6baa3b2cf7d91ae9ded2e6f7a2b438b2a495cd5ad24de9268b9cfaab8feb555"),
    ((2, 3, 2, 5), "82e6395e34f0c73f29f1438693553bc45d33eb200dd4c246d2a6565f5ae81cc0"),
    ((3, 2, 7, 11), "f71ac4163595b8679a76ac0f0aeed76dba9f60c160e04030ce47e66555156c97"),
    ((2, 4, 16, 3), "75065ce409463c05553962cd6cbbabab2d5bd890de0ad2075c4723e4d0a0c523"),
    ((2, 3, 32, 1), "9820cef620e72d8c0180da4370df7ee18b71a41cf4f016dc1a1f03524de03ef9"),
    ((1, 3, 64, 9), "d06d93991bf41153381f812ae6fe3e4d72a3fbf65d8d6d76443bffe81724973f"),
])
def test_generator_golden_bits(case, digest):
    # (num_per_class, num_classes, image_size, seed); a faster renderer must keep every bit
    h = hashlib.sha256()
    for it in generate_synthetic(*case):
        h.update(it.id.encode())
        h.update(b"%d" % it.label)
        h.update(it.image.tobytes())
    assert h.hexdigest() == digest


def test_generator_pixels_in_range():
    for it in generate_synthetic(5, 3, 32, seed=1):
        assert it.image.dtype == np.float32
        assert float(it.image.min()) >= 0.0
        assert float(it.image.max()) <= 1.0


def test_generator_needs_two_classes():
    with pytest.raises(ValueError):
        generate_synthetic(5, 1, 32, seed=0)


def test_bright_fraction_classifier_separates_classes():
    # brute-force two-threshold sweep over the bright-pixel fraction
    items = generate_synthetic(100, 3, 32, seed=11)
    fracs = np.array([float(np.mean(it.image.max(axis=2) > 0.8)) for it in items])
    labels = np.array([it.label for it in items])
    cands = np.unique(fracs)
    best = 0.0
    for i, t1 in enumerate(cands):
        for t2 in cands[i:]:
            pred = np.where(fracs <= t1, 0, np.where(fracs <= t2, 1, 2))
            best = max(best, float(np.mean(pred == labels)))
    assert best > 0.7


def test_dataset_listing_no_images_is_manifest_error(tmp_path):
    path = tmp_path / "manifest.csv"
    save_manifest([], path)
    with pytest.raises(ManifestError, match="lists no images"):
        load_dataset(path)


def test_write_and_load_dataset_roundtrip(tmp_path):
    items = generate_synthetic(3, 2, 16, seed=2)
    manifest = write_dataset(items, tmp_path / "ds")
    back = load_dataset(manifest)
    assert [b.id for b in back] == [a.id for a in items]
    assert [b.label for b in back] == [a.label for a in items]
    # loaded pixels are the 8-bit quantization of the originals
    for a, b in zip(items, back):
        q = np.floor(a.image.astype(np.float64) * 255 + 0.5) / 255
        np.testing.assert_allclose(b.image, q.astype(np.float32), atol=1e-7)
