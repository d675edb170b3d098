"""Projection, the matching-attack loop, pair building, and the suite runner."""

import numpy as np
import pytest

from _reference import predict
from conftest import random_image, tiny_config

from embedmatch import attack
from embedmatch.attack import (AttackError, AttackRecord, PairingError,
                               PRMConfig, build_pairs, prm, project, run_suite)
from embedmatch.autodiff import ShapeError
from embedmatch.data import LabelledImage
from embedmatch.model import CHUNK, ModelConfig, embed
from embedmatch.records_io import write_records
from embedmatch.weights_io import init_weights


@pytest.fixture()
def setup():
    cfg = tiny_config()
    return cfg, init_weights(cfg, seed=2), np.random.default_rng(5)


# --- project ----------------------------------------------------------------------


def test_project_clamps_to_ball():
    x0 = np.full((1, 1, 1), 0.50, np.float32)
    xt = np.full((1, 1, 1), 0.70, np.float32)
    assert project(xt, x0, 0.10)[0, 0, 0] == pytest.approx(0.60, abs=1e-7)


def test_project_identity_inside_ball():
    rng = np.random.default_rng(0)
    x0 = rng.random((4, 4, 3), dtype=np.float32)
    xt = np.clip(x0 + rng.uniform(-0.05, 0.05, x0.shape).astype(np.float32), 0, 1)
    out = project(xt, x0, 0.10)
    np.testing.assert_array_equal(out, xt.astype(np.float32))


def test_project_respects_pixel_range():
    x0 = np.full((1, 1, 1), 0.01, np.float32)
    xt = np.full((1, 1, 1), -0.30, np.float32)
    assert project(xt, x0, 0.10)[0, 0, 0] == 0.0


def test_project_shape_mismatch():
    with pytest.raises(ShapeError):
        project(np.zeros((2, 2, 1), np.float32), np.zeros((2, 2, 3), np.float32), 0.1)


# --- prm ---------------------------------------------------------------------------


def test_prm_converges_immediately_at_own_embedding(setup):
    cfg, w, rng = setup
    x0 = random_image(rng, cfg)
    target = embed(x0, w, "mil_mean").values
    record = prm(x0, target, w, PRMConfig(kind="mil_mean", max_iters=50))
    assert record.converged
    assert record.iterations_used == 1
    assert record.image.tobytes() == x0.tobytes()
    assert record.max_abs_delta == 0.0


def test_prm_trace_cosine_never_exceeds_one():
    # float64 rounding put cosine(e, e) at 1 + 2.2e-16 for about a fifth of these images
    w = init_weights(ModelConfig(), 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0 = random_image(rng, w.config)
        record = prm(x0, embed(x0, w, "mil_mean").values, w, PRMConfig(max_iters=3))
        assert record.converged and -1.0 <= record.trace[0].cosine <= 1.0


def test_prm_epsilon_zero_keeps_source(setup):
    cfg, w, rng = setup
    x0 = random_image(rng, cfg)
    target = embed(random_image(rng, cfg), w, "class_token").values
    record = prm(x0, target, w,
                 PRMConfig(kind="class_token", epsilon=0.0, max_iters=20))
    assert record.image.tobytes() == x0.tobytes()
    assert record.max_abs_delta == 0.0


def test_prm_trace_density_and_final_state(setup):
    cfg, w, rng = setup
    x0 = random_image(rng, cfg)
    target = embed(random_image(rng, cfg), w, "class_token").values
    record = prm(x0, target, w,
                 PRMConfig(kind="class_token", max_iters=3, trace_every=1,
                           conv_threshold=0.0))
    assert len(record.trace) >= 3
    assert [p.iteration for p in record.trace] == [1, 2, 3]
    assert not record.converged
    assert record.iterations_used == 3


def test_prm_ball_invariant_and_range(setup):
    cfg, w, rng = setup
    for _ in range(5):
        x0 = random_image(rng, cfg)
        target = embed(random_image(rng, cfg), w, "mil_mean").values
        eps = 0.05
        record = prm(x0, target, w,
                     PRMConfig(kind="mil_mean", epsilon=eps, eta=0.5, max_iters=30,
                               conv_threshold=0.0))
        assert record.max_abs_delta <= eps + 1e-6
        assert float(np.max(np.abs(record.image - x0))) <= eps + 1e-6
        assert float(record.image.min()) >= 0.0
        assert float(record.image.max()) <= 1.0


def test_prm_config_validation():
    with pytest.raises(ValueError):
        PRMConfig(eta=0.0)
    with pytest.raises(ValueError):
        PRMConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        PRMConfig(kind="bogus")
    PRMConfig(epsilon=0.0)  # degenerate ball is allowed


# --- pairs -------------------------------------------------------------------------


def _labelled(cfg, labels, rng):
    return [LabelledImage(f"im{k}", random_image(rng, cfg), lab)
            for k, lab in enumerate(labels)]


def test_build_pairs_two_items(setup):
    cfg, _, rng = setup
    items = _labelled(cfg, [0, 1], rng)
    pairs = build_pairs(items, seed=3)
    assert sorted(pairs) == [("im0", "im1"), ("im1", "im0")]


def test_build_pairs_labels_always_differ(setup):
    cfg, _, rng = setup
    items = _labelled(cfg, [0, 1, 2, 0, 1, 2, 0, 1], rng)
    by_id = {it.id: it.label for it in items}
    for s, t in build_pairs(items, seed=1):
        assert by_id[s] != by_id[t]


def test_build_pairs_deterministic(setup):
    cfg, _, rng = setup
    items = _labelled(cfg, [0, 1, 2, 0, 1, 2], rng)
    assert build_pairs(items, seed=8) == build_pairs(items, seed=8)
    assert build_pairs(items, seed=8, limit=3) == build_pairs(items, seed=8, limit=3)
    assert len(build_pairs(items, seed=8, limit=3)) == 3


def test_build_pairs_single_label_fails(setup):
    cfg, _, rng = setup
    with pytest.raises(PairingError):
        build_pairs(_labelled(cfg, [1, 1, 1], rng), seed=0)


# --- suite -------------------------------------------------------------------------


def _suite_fixture(cfg, rng, n=6):
    items = _labelled(cfg, [k % 2 for k in range(n)], rng)
    by_id = {it.id: it for it in items}
    pairs = build_pairs(items, seed=4)
    return items, by_id, pairs


def test_run_suite_one_record_per_pair(setup):
    cfg, w, rng = setup
    _, by_id, pairs = _suite_fixture(cfg, rng)
    records, failures = run_suite(pairs, w, PRMConfig(kind="mil_mean", max_iters=10),
                                  by_id)
    assert not failures
    assert len(records) == len(pairs)
    assert [(r.source_id, r.target_id) for r in records] == pairs
    for r in records:
        assert isinstance(r, AttackRecord)
        assert r.trace
        assert r.label_before >= 0 and r.label_after >= 0


def test_run_suite_parallel_equals_serial(setup):
    cfg, w, rng = setup
    _, by_id, pairs = _suite_fixture(cfg, rng, n=4)
    cfg_a = PRMConfig(kind="class_token", max_iters=15, trace_every=5)
    serial, _ = run_suite(pairs, w, cfg_a, by_id, workers=1)
    parallel, _ = run_suite(pairs, w, cfg_a, by_id, workers=4)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.trace == b.trace
        assert (a.iterations_used, a.converged, a.max_abs_delta) == \
               (b.iterations_used, b.converged, b.max_abs_delta)


# pairs stop anywhere between iteration 4 and the cap of 30 on the tiny model
UNEVEN = PRMConfig(kind="mil_mean", eta=0.5, max_iters=30, trace_every=7, conv_threshold=0.1)


def _record_key(r):
    return (r.source_id, r.target_id, r.image.tobytes(), r.iterations_used, r.trace,
            r.label_source_true, r.label_target_true, r.label_before, r.label_after,
            r.max_abs_delta, r.converged)


def _written(records, out):
    write_records(records, out)
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _prm_pair(w, cfg, by_id, source_id, target_id):
    source, target = by_id[source_id], by_id[target_id]
    return prm(source.image, embed(target.image, w, cfg.kind).values, w, cfg,
               source_id=source_id, target_id=target_id,
               label_source_true=source.label, label_target_true=target.label)


def test_run_suite_lockstep_equals_per_pair_prm(setup, tmp_path):
    cfg, w, rng = setup
    _, by_id, pairs = _suite_fixture(cfg, rng, n=20)
    assert len(pairs) > 2 * CHUNK  # several chunks, the last one partial
    serial, serial_failures = run_suite(pairs, w, UNEVEN, by_id, workers=1)
    parallel, parallel_failures = run_suite(pairs, w, UNEVEN, by_id, workers=4)
    assert not serial_failures and not parallel_failures
    iterations = [r.iterations_used for r in serial]
    assert len(set(iterations)) > 5 and max(iterations) == UNEVEN.max_iters
    assert 0 < sum(r.converged for r in serial) < len(serial)
    assert _written(serial, tmp_path / "w1") == _written(parallel, tmp_path / "w4")
    for r, (source_id, target_id) in zip(serial, pairs):
        assert r.image.base is None  # a copy: a record never pins its chunk's stack
        # the benchmark's record check reads trace[0] as iteration 1, the unperturbed source
        iters = [p.iteration for p in r.trace]
        assert iters[0] == 1 and iters[-1] == r.iterations_used
        assert all(a < b for a, b in zip(iters, iters[1:]))
        assert _record_key(r) == _record_key(_prm_pair(w, UNEVEN, by_id, source_id, target_id))
        # the suite reads its labels off its own iteration tapes; predict is an independent oracle
        assert r.label_before == predict(by_id[source_id].image, w, UNEVEN.kind)
        assert r.label_after == predict(r.image, w, UNEVEN.kind)


def test_run_suite_records_do_not_depend_on_chunk_size(setup, tmp_path, monkeypatch):
    cfg, w, rng = setup
    _, by_id, pairs = _suite_fixture(cfg, rng, n=20)
    written = []
    for chunk in (4, 8):
        monkeypatch.setattr(attack, "CHUNK", chunk)
        records, failures = run_suite(pairs, w, UNEVEN, by_id)
        assert not failures
        written.append(_written(records, tmp_path / f"chunk{chunk}"))
    assert written[0] == written[1]


def test_run_suite_contains_non_finite_pair(setup):
    cfg, w, rng = setup
    _, by_id, pairs = _suite_fixture(cfg, rng, n=6)
    targets = {t for _, t in pairs}
    bad = next(i for i, (s, _) in enumerate(pairs) if s not in targets)
    source = by_id[pairs[bad][0]]
    poisoned = source.image.copy()
    poisoned[0, 0, 0] = np.nan
    by_id_bad = dict(by_id)
    by_id_bad[source.id] = LabelledImage(source.id, poisoned, source.label)
    clean, _ = run_suite(pairs, w, UNEVEN, by_id)
    records, failures = run_suite(pairs, w, UNEVEN, by_id_bad)
    assert failures == [(*pairs[bad], "non-finite loss or gradient at iteration 1")]
    assert [_record_key(r) for r in records] == \
        [_record_key(r) for i, r in enumerate(clean) if i != bad]
    with pytest.raises(AttackError, match="at iteration 1$"):
        prm(poisoned, embed(by_id[pairs[bad][1]].image, w, UNEVEN.kind).values, w, UNEVEN)


def test_run_suite_rejects_empty(setup):
    cfg, w, _ = setup
    with pytest.raises(ValueError):
        run_suite([], w, PRMConfig(), {})


# --- trained-model behavior (desk scale) --------------------------------------------


@pytest.mark.slow
def test_prm_raises_cosine_on_trained_model(desk_model, desk_dataset):
    weights, _ = desk_model
    by_id = desk_dataset["by_id"]
    test_items = desk_dataset["test"]
    pair = build_pairs(test_items, seed=97, limit=1)[0]
    source, target = by_id[pair[0]], by_id[pair[1]]
    target_emb = embed(target.image, weights, "mil_mean").values
    record = prm(source.image, target_emb, weights,
                 PRMConfig(eta=0.05, epsilon=0.1, max_iters=5000, kind="mil_mean"),
                 source_id=source.id, target_id=target.id,
                 label_source_true=source.label, label_target_true=target.label)
    assert record.trace[-1].cosine > 0.9
    assert record.trace[-1].cosine > record.trace[0].cosine
