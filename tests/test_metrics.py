"""PSNR/SSIM/cosine identities and the dataset-level aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import match_success_rate, record_metrics
from conftest import random_image, tiny_config

from embedmatch.attack import PRMConfig, build_pairs, run_suite
from embedmatch.autodiff import ContractError, ShapeError
from embedmatch.data import LabelledImage
from embedmatch.metrics import aggregate, cosine, psnr, ssim
from embedmatch.weights_io import init_weights

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")

SSIM_C1 = (0.01) ** 2


def test_psnr_identical_is_inf():
    a = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
    assert psnr(a, a.copy()) == math.inf


def test_psnr_formula():
    a = np.zeros((10, 10, 1))
    b = np.full((10, 10, 1), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)  # MSE 0.01, peak 1


def test_psnr_shape_error():
    with pytest.raises(ShapeError):
        psnr(np.zeros((4, 4, 1)), np.zeros((4, 5, 1)))


@settings(max_examples=20)
@given(data=st.data())
def test_psnr_symmetry(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = rng.random((12, 12, 3)).astype(np.float32)
    b = rng.random((12, 12, 3)).astype(np.float32)
    assert psnr(a, b) == psnr(b, a)


def test_ssim_identical_is_one():
    a = np.random.default_rng(1).random((20, 20, 3)).astype(np.float32)
    assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)


def test_ssim_uniform_zero_vs_one():
    a = np.zeros((16, 16, 3))
    b = np.ones((16, 16, 3))
    assert ssim(a, b) == pytest.approx(SSIM_C1 / (1 + SSIM_C1), abs=1e-9)


@settings(max_examples=10)
@given(data=st.data())
def test_ssim_symmetry(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    a = rng.random((14, 14, 3)).astype(np.float32)
    b = rng.random((14, 14, 3)).astype(np.float32)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)
    assert -1.0 <= ssim(a, b) <= 1.0


def test_ssim_window_contract():
    with pytest.raises(ContractError):
        ssim(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))


def test_cosine_identities():
    u = np.array([1.0, 2.0, -3.0])
    assert cosine(u, u) == pytest.approx(1.0, abs=1e-7)
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    with pytest.raises(ContractError):
        cosine(np.zeros(3), u[:3])
    with pytest.raises(ShapeError):
        cosine(np.ones(3), np.ones(4))


def test_cosine_of_equal_embeddings_is_exactly_one():
    # unclamped, float64 rounding gives 1.0000000000000002 for this vector
    e = np.random.default_rng(3).standard_normal(64).astype(np.float32)
    assert cosine(e, e) == 1.0
    assert cosine(e, -e) == -1.0


# --- attack-record aggregation -------------------------------------------------------


@pytest.fixture(scope="module")
def small_suite():
    cfg = tiny_config(image_size=16, patch_size=4)  # big enough for the SSIM window
    weights = init_weights(cfg, seed=6)
    rng = np.random.default_rng(3)
    items = [LabelledImage(f"im{k}", random_image(rng, cfg), k % 2) for k in range(6)]
    by_id = {it.id: it for it in items}
    pairs = build_pairs(items, seed=2)
    records, failures = run_suite(
        pairs, weights, PRMConfig(kind="mil_mean", epsilon=0.1, eta=0.3, max_iters=25),
        by_id)
    assert not failures
    return cfg, weights, items, by_id, records


def _aggregate(records, clean_accuracy, by_id, weights):
    rows = record_metrics(records, by_id, weights, "mil_mean")
    return aggregate(records, rows, clean_accuracy)


def test_match_success_rate_bounds(small_suite):
    _, weights, _, _, records = small_suite
    rate = match_success_rate(records, weights, "mil_mean")
    assert 0.0 <= rate <= 1.0


def test_msr_trivial_cases(small_suite):
    _, weights, _, by_id, records = small_suite
    # force label_after to match / mismatch; aggregate's rate reads the labels
    import copy
    hits = copy.deepcopy(records)
    for r in hits:
        r.label_after = r.label_target_true
    misses = copy.deepcopy(records)
    for r in misses:
        r.label_after = r.label_target_true + 1
    assert _aggregate(hits, 1.0, by_id, weights).msr == 1.0
    assert _aggregate(misses, 1.0, by_id, weights).msr == 0.0


def test_aggregate_fields_and_bounds(small_suite):
    _, weights, _, by_id, records = small_suite
    report = _aggregate(records, 0.9, by_id, weights)
    assert report.n_records == len(records)
    assert 0.0 <= report.attacked_accuracy <= 1.0
    assert 0.0 <= report.msr <= 1.0
    assert report.accuracy_drop == pytest.approx(0.9 - report.attacked_accuracy)
    assert report.psnr_excluded >= 0
    d = report.to_dict()
    for key in ("clean_accuracy", "msr", "mean_psnr_original", "mean_ssim_target",
                "mean_cosine_original", "mean_cosine_target", "n_records"):
        assert key in d


def test_aggregate_msr_equals_bruteforce_recompute(small_suite):
    _, weights, _, by_id, records = small_suite
    report = _aggregate(records, 1.0, by_id, weights)
    assert report.msr == match_success_rate(records, weights, "mil_mean")


def test_aggregate_single_record_equals_its_values(small_suite):
    _, weights, _, by_id, records = small_suite
    one = records[:1]
    row = record_metrics(one, by_id, weights, "mil_mean")[0]
    report = aggregate(one, [row], clean_accuracy=0.5)
    if math.isfinite(row.psnr_original):
        assert report.mean_psnr_original == pytest.approx(row.psnr_original)
    assert report.mean_ssim_original == pytest.approx(row.ssim_original)
    assert report.mean_cosine_target == pytest.approx(row.cosine_target)


def test_aggregate_mean_psnr_matches_manual_average(small_suite):
    _, weights, _, by_id, records = small_suite
    three = records[:3]
    rows = record_metrics(three, by_id, weights, "mil_mean")
    report = aggregate(three, rows, clean_accuracy=1.0)
    finite = [m.psnr_original for m in rows if math.isfinite(m.psnr_original)]
    assert report.mean_psnr_original == pytest.approx(sum(finite) / len(finite))


def test_psnr_inf_excluded_from_mean(small_suite):
    _, weights, items, by_id, records = small_suite
    import copy
    tweaked = copy.deepcopy(records)
    # make one optimized image identical to its source: PSNR(original)=inf
    tweaked[0].image = by_id[tweaked[0].source_id].image.copy()
    report = _aggregate(tweaked, 1.0, by_id, weights)
    assert report.psnr_excluded >= 1
    assert math.isfinite(report.mean_psnr_original)


def test_aggregate_rejects_empty(small_suite):
    _, weights, _, by_id, records = small_suite
    with pytest.raises(ValueError):
        aggregate([], [], clean_accuracy=1.0)
    rows = record_metrics(records, by_id, weights, "mil_mean")
    with pytest.raises(ValueError):  # rows must pair one to one with the records
        aggregate(records, rows[:-1], clean_accuracy=1.0)
