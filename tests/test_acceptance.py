"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to watch the lines appear.
The desk model (trained once per session) and a 100-pair attack suite back
the behavioral criteria; tolerances are pinned here, not configurable.  The
criteria that need them are marked slow, so `-m "not slow"` skips them.
"""

import json
import math
import time

import numpy as np
import pytest

from _reference import (finite_diff_gradient, match_success_rate, predict, record_metrics,
                        reference_matching_loss)
from conftest import random_image, tiny_config

from embedmatch.attack import PRMConfig, build_pairs, prm, project, run_suite
from embedmatch.cli import main as cli_main
from embedmatch.data import generate_synthetic
from embedmatch.detector import sweep
from embedmatch.metrics import aggregate, cosine, psnr, ssim
from embedmatch.model import ModelConfig, embed, matching_loss_grad_embed
from embedmatch.pca import fit_pca
from embedmatch.pca import project as pca_project
from embedmatch.train import evaluate
from embedmatch.weights_io import (WeightFormatError, init_weights, load_weights,
                                   save_weights)

ATTACK_KIND = "mil_mean"
SUITE_EPSILON = 0.1
SUITE_PAIRS = 100


def _ok(n, detail):
    print(f"\n[criterion {n}] PASS: {detail}")


@pytest.fixture(scope="module")
def suite(desk_model, desk_dataset):
    """The 100-pair epsilon=0.1 attack suite shared by criteria 3, 4, 5."""
    weights, _ = desk_model
    pairs = build_pairs(desk_dataset["test"], seed=123, limit=SUITE_PAIRS)
    cfg = PRMConfig(eta=0.05, epsilon=SUITE_EPSILON, max_iters=5000,
                    kind=ATTACK_KIND, trace_every=100)
    start = time.monotonic()
    records, failures = run_suite(pairs, weights, cfg, desk_dataset["by_id"], workers=2)
    elapsed = time.monotonic() - start
    assert not failures
    clean_acc = evaluate(weights, desk_dataset["test"])
    rows = record_metrics(records, desk_dataset["by_id"], weights, ATTACK_KIND)
    report = aggregate(records, rows, clean_acc[ATTACK_KIND])
    return {"records": records, "report": report, "clean_acc": clean_acc,
            "elapsed": elapsed, "cfg": cfg}


def test_criterion_1_gradient_correctness():
    """Matching-loss input gradient (the tape's backward pass seeded at the
    embedding) vs 64-bit central differences on 20 tiny models."""
    start = time.monotonic()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        cfg = tiny_config(depth=2, embed_dim=8 + 4 * (i % 2), num_heads=2,
                          num_classes=2 + i % 2)
        weights = init_weights(cfg, seed=2000 + i)
        kind = "class_token" if i % 2 else "mil_mean"
        x = random_image(rng, cfg)
        target = embed(random_image(rng, cfg), weights, kind)
        _, grad, _, _ = matching_loss_grad_embed(x, target.values, weights, kind)
        fd = finite_diff_gradient(
            lambda v: reference_matching_loss(v, target.values, weights, kind), x, 1e-3)
        rel = np.linalg.norm(grad.astype(np.float64) - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel < 1e-3, f"instance {i}: relative L2 error {rel}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(1, f"20 instances, worst relative L2 error {worst:.2e} (<1e-3), {elapsed:.1f}s")


def test_criterion_2_projection_soundness():
    """Ball and range hold after every iteration; PSNR floor is analytic."""
    eps = 0.02
    bound = -20.0 * math.log10(eps)
    cfg = ModelConfig()
    weights = init_weights(cfg, seed=7)
    items = generate_synthetic(20, 3, cfg.image_size, seed=3)
    rng = np.random.default_rng(11)
    worst_delta, worst_psnr, saturated = 0.0, math.inf, 0
    for k in range(50):
        src, tgt = rng.choice(len(items), size=2, replace=False)
        x0 = items[src].image
        target = embed(items[tgt].image, weights, ATTACK_KIND)
        record = prm(x0, target.values, weights,
                     PRMConfig(eta=0.1, epsilon=eps, max_iters=60, kind=ATTACK_KIND,
                               trace_every=10, conv_threshold=0.0))
        # max_abs_delta is the running max over every post-update iterate
        assert record.max_abs_delta <= eps + 1e-6
        assert float(record.image.min()) >= 0.0
        assert float(record.image.max()) <= 1.0
        assert float(np.max(np.abs(record.image - x0))) <= eps + 1e-6
        p = psnr(x0, record.image)
        assert p >= bound
        saturated += record.max_abs_delta > eps / 2
        worst_delta = max(worst_delta, record.max_abs_delta)
        worst_psnr = min(worst_psnr, p)
    assert saturated >= 25, "projection never under pressure; bound check vacuous"
    _ok(2, f"50 pairs ({saturated} pressed the ball), "
           f"max|delta| {worst_delta:.6f} <= {eps}+1e-6, "
           f"min PSNR {worst_psnr:.2f} dB >= {bound:.2f} dB")


@pytest.mark.slow
def test_criterion_3_trajectory_shape(suite):
    """A converging run: rising cosine, final loss under 10% of initial."""
    converged = [r for r in suite["records"] if r.converged]
    assert converged, "no converged record in the suite"
    record = converged[0]
    first, last = record.trace[0], record.trace[-1]
    assert last.cosine > first.cosine
    assert last.loss < 0.1 * first.loss
    assert len(record.trace) >= 2
    iters = [p.iteration for p in record.trace]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    per_pair = suite["elapsed"] / len(suite["records"])
    assert per_pair < 120.0
    _ok(3, f"cosine {first.cosine:.3f} -> {last.cosine:.3f}, "
           f"loss ratio {last.loss / first.loss:.2e} (<0.1), "
           f"{per_pair:.1f}s/pair (<120s)")


@pytest.mark.slow
def test_criterion_4_accuracy_collapse(suite, desk_dataset):
    """Clean accuracy >= 90%; attack drops it >= 50 pp with MSR >= 60%."""
    report = suite["report"]
    clean = suite["clean_acc"]
    assert len(suite["records"]) >= 100
    assert clean[ATTACK_KIND] >= 0.90
    assert report.accuracy_drop >= 0.50
    assert report.msr >= 0.60
    assert suite["elapsed"] < 1800.0
    psnr_floor = -20.0 * math.log10(SUITE_EPSILON)
    for r in suite["records"]:
        assert psnr(desk_dataset["by_id"][r.source_id].image, r.image) >= psnr_floor
    _ok(4, f"clean acc vit={clean['class_token']:.3f} mil={clean['mil_mean']:.3f}; "
           f"attacked {report.attacked_accuracy:.3f} (drop {100 * report.accuracy_drop:.1f} pp), "
           f"MSR {report.msr:.3f}, suite {suite['elapsed']:.0f}s (<1800s)")


@pytest.mark.slow
def test_criterion_5_cosine_separation(suite, desk_model, desk_dataset):
    """Optimized images sit near targets, far from originals, in cosine."""
    report = suite["report"]
    margin = report.mean_cosine_target - report.mean_cosine_original
    assert margin >= 0.3
    # progress invariant over the full suite: the returned image never ends
    # above its starting loss, nor below its starting cosine to the target
    weights, _ = desk_model
    by_id = desk_dataset["by_id"]
    for r in suite["records"]:
        target = embed(by_id[r.target_id].image, weights, ATTACK_KIND)
        e0 = embed(by_id[r.source_id].image, weights, ATTACK_KIND)
        ef = embed(r.image, weights, ATTACK_KIND)
        t64 = target.values.astype(np.float64)
        loss0 = 0.5 * float(np.sum((e0.values.astype(np.float64) - t64) ** 2))
        lossf = 0.5 * float(np.sum((ef.values.astype(np.float64) - t64) ** 2))
        assert lossf <= loss0 * (1 + 1e-9)
        assert cosine(ef.values, target.values) >= cosine(e0.values, target.values) - 1e-9
    _ok(5, f"mean cos(optimized,target) {report.mean_cosine_target:.3f} vs "
           f"cos(optimized,original) {report.mean_cosine_original:.3f} "
           f"(margin {margin:.3f} >= 0.3); progress held on all {len(suite['records'])} pairs")


@pytest.mark.slow
def test_criterion_6_metric_identities(suite, desk_model):
    weights, _ = desk_model
    rng = np.random.default_rng(0)
    a = rng.random((32, 32, 3)).astype(np.float32)
    assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)
    b = rng.random((32, 32, 3)).astype(np.float32)
    assert psnr(a, b) == psnr(b, a)
    u = rng.standard_normal(64)
    assert cosine(u, u.copy()) == pytest.approx(1.0, abs=1e-7)
    c1 = 0.01**2
    assert ssim(np.zeros((16, 16, 3)), np.ones((16, 16, 3))) == \
        pytest.approx(c1 / (1 + c1), abs=1e-9)
    report = suite["report"]
    assert report.msr == match_success_rate(suite["records"], weights, ATTACK_KIND)
    _ok(6, "ssim(a,a)=1, psnr symmetric, cosine(u,u)=1, uniform SSIM=C1/(1+C1), "
           "aggregate MSR == brute-force recompute (exact)")


@pytest.mark.slow
def test_criterion_7_pca_contract(desk_model, desk_dataset):
    weights, _ = desk_model
    embeddings = [embed(it.image, weights, ATTACK_KIND).values
                  for it in desk_dataset["test"][:40]]
    basis_a = fit_pca(embeddings, k=6)
    basis_b = fit_pca(list(embeddings), k=6)
    gram = basis_a.components @ basis_a.components.T
    assert np.abs(gram - np.eye(6)).max() < 1e-5
    mean_coords = pca_project(basis_a.mean, basis_a)
    assert np.abs(mean_coords).max() < 1e-9
    assert basis_a.components.tobytes() == basis_b.components.tobytes()
    for row in basis_a.components:
        assert row[np.argmax(np.abs(row))] > 0
    _ok(7, "orthonormal within 1e-5, mean projects to 0, sign convention "
           "reproduces bitwise on refit")


def _boundary_matched(src_item, tgt_item, weights, kind=ATTACK_KIND,
                      eta=1e-3, eps=SUITE_EPSILON, max_iters=600):
    """Minimally matched PRM product: walk to the first label flip, then
    bisect that single-step segment to the decision boundary.

    Converged desk-scale attacks repaint class evidence and end up as
    noise-robust as natural images, so the noise-sensitivity effect lives in
    the minimally matched products.  Both segment endpoints are feasible
    iterates, hence every interpolate stays in the epsilon ball and [0, 1].
    """
    target = embed(tgt_item.image, weights, kind).values
    x0 = src_item.image
    before = predict(x0, weights, kind)
    x = x0.copy()
    for _ in range(max_iters):
        _, grad, _, _ = matching_loss_grad_embed(x, target, weights, kind)
        nxt = project(x - np.float32(eta) * grad, x0, eps)
        if predict(nxt, weights, kind) != before:
            lo, hi = x, nxt  # label flips between these one-step neighbors
            for _ in range(12):
                mid = ((lo.astype(np.float64) + hi.astype(np.float64)) / 2).astype(np.float32)
                if predict(mid, weights, kind) != before:
                    hi = mid
                else:
                    lo = mid
            return hi
        x = nxt
    return x


@pytest.mark.slow
def test_criterion_8_detector_margin(desk_model, desk_dataset):
    """Attacked flag rate beats clean flag rate by >= 30 pp at some sigma."""
    start = time.monotonic()
    weights, _ = desk_model
    by_id = desk_dataset["by_id"]
    pairs = build_pairs(desk_dataset["test"], seed=321, limit=50)
    attacked = [_boundary_matched(by_id[s], by_id[t], weights) for s, t in pairs]
    clean = [by_id[s].image for s, _ in pairs]
    assert len(attacked) >= 50 and len(clean) >= 50
    rows = sweep(clean, attacked, [0.01, 0.02, 0.05, 0.1], weights, ATTACK_KIND,
                 seed=77, draws=1)
    best = max(rows, key=lambda r: r.attacked_flag_rate - r.clean_flag_rate)
    margin = best.attacked_flag_rate - best.clean_flag_rate
    elapsed = time.monotonic() - start
    assert margin >= 0.30, [f"sigma={r.sigma}: {r.clean_flag_rate}/{r.attacked_flag_rate}"
                            for r in rows]
    assert elapsed < 300.0
    _ok(8, f"best sigma {best.sigma}: attacked {best.attacked_flag_rate:.2f} vs "
           f"clean {best.clean_flag_rate:.2f} (margin {100 * margin:.0f} pp >= 30), "
           f"{elapsed:.0f}s (<300s)")


SMOKE_GEN = ["--num-per-class", "20", "--num-classes", "2", "--image-size", "16"]
SMOKE_TRAIN = ["--patch-size", "4", "--embed-dim", "16", "--depth", "1",
               "--num-heads", "2", "--epochs", "2"]
SMOKE_ATTACK = ["--epsilon", "0.1", "--eta", "0.1", "--max-iters", "30",
                "--trace-every", "10", "--kind", "mil", "--num-pairs", "6"]


def test_criterion_9_reproducibility(tmp_path):
    """Same seed => bitwise-equal weights, records and reports; workers agree."""
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data), "--seed", "5"] + SMOKE_GEN) == 0

    model_a, model_b = tmp_path / "ma", tmp_path / "mb"
    for out in (model_a, model_b):
        assert cli_main(["train", "--data", str(data), "--out", str(out),
                         "--seed", "5"] + SMOKE_TRAIN) == 0
    weights_bytes = (model_a / "weights.vitw").read_bytes()
    assert weights_bytes == (model_b / "weights.vitw").read_bytes()

    atk_a, atk_b, atk_w = tmp_path / "aa", tmp_path / "ab", tmp_path / "aw"
    base = ["attack", "--weights", str(model_a / "weights.vitw"), "--data", str(data),
            "--seed", "5"] + SMOKE_ATTACK
    assert cli_main(base + ["--out", str(atk_a)]) == 0
    assert cli_main(base + ["--out", str(atk_b)]) == 0
    assert cli_main(base + ["--out", str(atk_w), "--workers", "4"]) == 0
    records = (atk_a / "records.jsonl").read_bytes()
    assert records == (atk_b / "records.jsonl").read_bytes()
    assert records == (atk_w / "records.jsonl").read_bytes()

    rep_a, rep_b = tmp_path / "ra", tmp_path / "rb"
    assert cli_main(["report", "--run", str(atk_a), "--out", str(rep_a)]) == 0
    assert cli_main(["report", "--run", str(atk_a), "--out", str(rep_b)]) == 0
    assert (rep_a / "report.json").read_bytes() == (rep_b / "report.json").read_bytes()
    assert (rep_a / "summary.txt").read_bytes() == (rep_b / "summary.txt").read_bytes()
    _ok(9, "weights, attack records (workers 1 == 1 == 4) and reports are "
           "bitwise identical under a fixed seed")


def test_criterion_10_weight_container(tmp_path):
    cfg = ModelConfig()
    weights = init_weights(cfg, seed=31)
    path = tmp_path / "w.vitw"
    save_weights(weights, path)
    back = load_weights(path)
    assert all(back.tensors[n].tobytes() == weights.tensors[n].tobytes()
               for n in weights.tensors)
    first = path.read_bytes()
    save_weights(back, path)
    assert path.read_bytes() == first
    corrupted = tmp_path / "bad.vitw"
    corrupted.write_bytes(b"JUNK" + first[4:])
    with pytest.raises(WeightFormatError) as err:
        load_weights(corrupted)
    assert "magic" in str(err.value)
    _ok(10, "round trip bitwise at file and tensor level; corrupted magic "
            "rejected with a format error")
