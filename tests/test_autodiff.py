"""Tape primitives, backward passes, and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embedmatch.autodiff import (ContractError, ShapeError, Tape,
                                 backward_to_input, finite_diff_gradient)

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


def _tape_with_leaf(value, watch=True):
    tape = Tape()
    nid = tape.input_leaf(np.asarray(value, np.float32)) if watch else tape.leaf(value)
    return tape, nid


# --- spec'd single-op examples -------------------------------------------------


def test_softmax_uniform():
    tape, x = _tape_with_leaf([[0.0, 0.0, 0.0]])
    out = tape.value(tape.apply("softmax", x))
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)


def test_layer_norm_constant_row_is_zero():
    tape, x = _tape_with_leaf([[5.0, 5.0, 5.0, 5.0]])
    g = tape.leaf(np.ones(4, np.float32))
    b = tape.leaf(np.zeros(4, np.float32))
    out = tape.value(tape.apply("layer_norm", x, g, b))
    np.testing.assert_array_equal(out, np.zeros((1, 4), np.float32))


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.random((3, 5), dtype=np.float32)
    tape = Tape()
    i3 = tape.leaf(np.eye(3, dtype=np.float32))
    am = tape.leaf(a)
    np.testing.assert_array_equal(tape.value(tape.apply("matmul", i3, am)), a)


def test_backward_half_sum_squares():
    # loss = sum(x^2)/2 at x=[1,2,3] -> gradient [1,2,3]
    tape, x = _tape_with_leaf([[1.0, 2.0, 3.0]])
    loss = tape.apply("scale", tape.apply("matmul", x, x, transpose_b=True), factor=0.5)
    np.testing.assert_allclose(backward_to_input(tape, loss), [[1.0, 2.0, 3.0]], rtol=1e-6)


def test_backward_zero_scaled_loss_is_zero_gradient():
    tape, x = _tape_with_leaf([[1.0, -2.0, 0.5]])
    y = tape.apply("gelu", tape.apply("softmax", x))
    loss = tape.apply("scale", tape.apply("matmul", y, y, transpose_b=True), factor=0.0)
    np.testing.assert_array_equal(backward_to_input(tape, loss), np.zeros((1, 3), np.float32))


def test_backward_requires_scalar_loss():
    tape, x = _tape_with_leaf([[1.0, 2.0]])
    y = tape.apply("gelu", x)
    with pytest.raises(ContractError):
        backward_to_input(tape, y)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    tape, x = _tape_with_leaf(rng.random((2, 4), dtype=np.float32))
    g = tape.leaf(rng.random(4, dtype=np.float32))
    b = tape.leaf(rng.random(4, dtype=np.float32))
    h = tape.apply("layer_norm", x, g, b)
    s = tape.apply("softmax", h)
    loss = tape.apply("scale", tape.apply("matmul", tape.apply("mean_pool", s),
                                          tape.apply("mean_pool", s), transpose_b=True),
                      factor=0.5)
    first = backward_to_input(tape, loss)
    second = backward_to_input(tape, loss)
    assert first.tobytes() == second.tobytes()


# --- finite_diff_gradient ------------------------------------------------------


def test_finite_diff_square():
    g = finite_diff_gradient(lambda v: float(v.reshape(-1)[0]) ** 2,
                             np.array([3.0], np.float32), 1e-3)
    assert abs(g[0] - 6.0) < 1e-5


def test_finite_diff_constant():
    g = finite_diff_gradient(lambda v: 7.5, np.ones((2, 2), np.float32), 1e-3)
    np.testing.assert_array_equal(g, np.zeros((2, 2)))


def test_finite_diff_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda v: 0.0, np.ones(2, np.float32), 0.0)


# --- shape errors ---------------------------------------------------------------


@pytest.mark.parametrize("op,shapes,attrs", [
    ("matmul", [(2, 3), (2, 3)], {}),
    ("add", [(2, 3), (3, 2)], {}),
    ("layer_norm", [(2, 3), (2,), (3,)], {}),
    ("softmax", [(3,)], {}),
    ("patchify", [(9, 9, 3)], {"patch_size": 4}),
    ("mean_pool", [(4,)], {}),
    ("concat", [(2, 3), (2, 4)], {}),
    ("slice", [(2, 3)], {"rows": (0, 5)}),
    ("attention", [(2, 10)], {"heads": 2}),
    ("matmul", [(2, 3, 4), (3, 4, 2)], {}),
    ("concat", [(2, 1, 3), (3, 2, 3)], {}),
])
def test_shape_errors_name_the_primitive(op, shapes, attrs):
    tape = Tape()
    ids = [tape.leaf(np.zeros(s, np.float32)) for s in shapes]
    with pytest.raises(ShapeError) as err:
        tape.apply(op, *ids, **attrs)
    assert op in str(err.value)


# --- per-primitive gradient checks vs the finite-difference oracle --------------
#
# The oracle side evaluates the same math in float64 (helpers shared with the
# independent reference forward), so finite differences at h=1e-3 are not
# noise-limited by the tape's float32 activation storage.

from _reference import _gelu as gelu64
from _reference import _layer_norm as layer_norm64
from _reference import _softmax_rows as softmax64


def _gradcheck(build, f64_eval, x, h=1e-3, tol=1e-3):
    """Tape gradient of build(tape, leaf) vs central differences of f64_eval."""
    tape, nid = _tape_with_leaf(x)
    loss = build(tape, nid)
    grad = backward_to_input(tape, loss).astype(np.float64)
    fd = finite_diff_gradient(f64_eval, x, h)
    # relative above unit gradient norm, absolute below: near-zero gradients
    # would otherwise divide rounding noise by an arbitrarily small norm
    assert np.linalg.norm(grad - fd) < tol * max(np.linalg.norm(fd), 1.0)


def _to_scalar(tape, node):
    """Reduce any 2-d node to a smooth scalar via mean_pool + squared norm."""
    pooled = tape.apply("mean_pool", node)
    return tape.apply("scale", tape.apply("matmul", pooled, pooled, transpose_b=True),
                      factor=0.5)


def _pool_sq64(y: np.ndarray) -> float:
    p = y.mean(axis=0)
    return 0.5 * float(p @ p)


small = st.integers(min_value=1, max_value=8)


@settings(max_examples=20)
@given(m=small, k=small, n=small, data=st.data())
def test_gradcheck_matmul(m, k, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, k)).astype(np.float32)
    w = rng.standard_normal((k, n)).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("matmul", nid, tape.leaf(w)))

    _gradcheck(build, lambda v: _pool_sq64(v.astype(np.float64) @ w.astype(np.float64)), x)


@settings(max_examples=10)
@given(m=small, n=small, data=st.data())
def test_gradcheck_matmul_transpose_b(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)
    w = rng.standard_normal((4, n)).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("matmul", nid, tape.leaf(w), transpose_b=True))

    _gradcheck(build, lambda v: _pool_sq64(v.astype(np.float64) @ w.astype(np.float64).T), x)


@settings(max_examples=15)
@given(m=small, n=st.integers(2, 8), data=st.data())
def test_gradcheck_layer_norm(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)
    # near-zero row variance blows up the curvature and invalidates h=1e-3
    # central differences; the degenerate point is covered separately by the
    # epsilon-in-denominator test
    assume(float(x.var(axis=1).min()) > 5e-2)
    g = rng.standard_normal(n).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("layer_norm", nid, tape.leaf(g), tape.leaf(b)))

    _gradcheck(build,
               lambda v: _pool_sq64(layer_norm64(v.astype(np.float64),
                                                 g.astype(np.float64),
                                                 b.astype(np.float64))), x)


@settings(max_examples=15)
@given(m=small, n=small, data=st.data())
def test_gradcheck_softmax(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("softmax", nid))

    _gradcheck(build, lambda v: _pool_sq64(softmax64(v.astype(np.float64))), x)


@settings(max_examples=15)
@given(m=small, n=small, data=st.data())
def test_gradcheck_gelu(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("gelu", nid))

    _gradcheck(build, lambda v: _pool_sq64(gelu64(v.astype(np.float64))), x)


@settings(max_examples=10)
@given(data=st.data())
def test_gradcheck_patchify_and_friends(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.random((4, 4, 2), dtype=np.float32)
    bias = rng.standard_normal(8).astype(np.float32)

    def build(tape, nid):
        patches = tape.apply("patchify", nid, patch_size=2)
        top = tape.apply("slice", patches, rows=(0, 1))
        bottom = tape.apply("slice", patches, rows=(1, 4))
        merged = tape.apply("concat", bottom, top)
        scaled = tape.apply("scale", merged, factor=1.7)
        return _to_scalar(tape, tape.apply("add", scaled, tape.leaf(bias)))

    def f64_eval(v):
        p = v.astype(np.float64).reshape(2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 4).reshape(4, 8)
        merged = np.vstack([p[1:], p[:1]])
        return _pool_sq64(1.7 * merged + bias.astype(np.float64))

    _gradcheck(build, f64_eval, x)


def _attention64(qkv, heads):
    """Float64 multi-head self-attention over (T, 3d) rows, one head at a time."""
    d = qkv.shape[-1] // 3
    dh = d // heads
    outs = []
    for j in range(heads):
        q, k, v = (qkv[:, p * d + j * dh:p * d + (j + 1) * dh] for p in range(3))
        outs.append(softmax64(q @ k.T / np.sqrt(dh)) @ v)
    return np.hstack(outs)


@settings(max_examples=15)
@given(t=small, heads=st.integers(1, 3), dh=st.integers(1, 4), data=st.data())
def test_gradcheck_attention(t, heads, dh, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((t, 3 * heads * dh)).astype(np.float32)

    def build(tape, nid):
        return _to_scalar(tape, tape.apply("attention", nid, heads=heads))

    _gradcheck(build, lambda v: _pool_sq64(_attention64(v.astype(np.float64), heads)), x)


def test_attention_matches_per_head_primitives_bitwise():
    # the fused primitive rounds to float32 wherever the unfused graph stored a node
    rng = np.random.default_rng(8)
    heads, dh = 4, 16
    d = heads * dh
    qkv = rng.standard_normal((17, 3 * d)).astype(np.float32)
    tape = Tape()
    x = tape.input_leaf(qkv)
    fused = tape.apply("attention", x, heads=heads)
    outs = []
    for j in range(heads):
        q, k, v = (tape.leaf(qkv[:, p * d + j * dh:p * d + (j + 1) * dh]) for p in range(3))
        scores = tape.apply("scale", tape.apply("matmul", q, k, transpose_b=True),
                            factor=1.0 / np.sqrt(dh))
        outs.append(tape.value(tape.apply("matmul", tape.apply("softmax", scores), v)))
    assert tape.value(fused).tobytes() == np.hstack(outs).tobytes()


# --- batched primitives: a leading batch axis, shared 2-d operands ----------------
#
# Each case is (input width, shared-operand factory, tape builder, per-item
# float64 oracle).  The loss sums every item's pooled squared norm, so the
# gradient of a shared operand sums over the batch.

def _no_shared(rng, b, m, n):
    return None


_BATCHED_CASES = {
    "matmul": (lambda n: n, lambda rng, b, m, n: rng.standard_normal((n, 3)),
               lambda tape, x, s: tape.apply("matmul", x, s),
               lambda item, s, b: item @ s),
    "matmul_batched_transpose_b": (
        lambda n: n, lambda rng, b, m, n: rng.standard_normal((b, 2, n)),
        lambda tape, x, s: tape.apply("matmul", x, s, transpose_b=True),
        lambda item, s, b: item @ s[b].T),
    "add_bias": (lambda n: n, lambda rng, b, m, n: rng.standard_normal(n),
                 lambda tape, x, s: tape.apply("add", x, s),
                 lambda item, s, b: item + s),
    "add_shared_rows": (lambda n: n, lambda rng, b, m, n: rng.standard_normal((m, n)),
                        lambda tape, x, s: tape.apply("add", x, s),
                        lambda item, s, b: item + s),
    "layer_norm_gain": (
        lambda n: n + 1, lambda rng, b, m, n: rng.standard_normal(n),
        lambda tape, x, s: tape.apply("layer_norm", x, s,
                                      tape.leaf(np.full(tape.value(s).shape, 0.3, np.float32))),
        lambda item, s, b: layer_norm64(item, s, 0.3)),
    "layer_norm_bias": (
        lambda n: n + 1, lambda rng, b, m, n: rng.standard_normal(n),
        lambda tape, x, s: tape.apply("layer_norm", x,
                                      tape.leaf(np.full(tape.value(s).shape, 1.3, np.float32)), s),
        lambda item, s, b: layer_norm64(item, 1.3, s)),
    "concat_shared_first": (lambda n: n, lambda rng, b, m, n: rng.standard_normal((2, n)),
                            lambda tape, x, s: tape.apply("concat", s, x),
                            lambda item, s, b: np.vstack([s, item])),
    "softmax": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("softmax", x),
                lambda item, s, b: softmax64(item)),
    "gelu": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("gelu", x),
             lambda item, s, b: gelu64(item)),
    "attention": (lambda n: 6 * n, _no_shared,
                  lambda tape, x, s: tape.apply("attention", x, heads=2),
                  lambda item, s, b: _attention64(item, 2)),
    "mean_pool": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("mean_pool", x),
                  lambda item, s, b: item.mean(axis=0, keepdims=True)),
    "scale": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("scale", x, factor=-0.7),
              lambda item, s, b: -0.7 * item),
    "slice": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("slice", x, rows=(0, 1)),
              lambda item, s, b: item[:1]),
}


@pytest.mark.parametrize("case", sorted(_BATCHED_CASES))
@settings(max_examples=8)
@given(b=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(1, 3), data=st.data())
def test_gradcheck_batched(case, b, m, n, data):
    width, make_shared, build, item64 = _BATCHED_CASES[case]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((b, m, width(n))).astype(np.float32)
    if case.startswith("layer_norm"):
        assume(float(x.var(axis=-1).min()) > 5e-2)
    shared = make_shared(rng, b, m, x.shape[-1])
    shared = None if shared is None else shared.astype(np.float32)

    def oracle(v, s):
        s64 = None if s is None else s.astype(np.float64)
        return sum(_pool_sq64(item64(item, s64, i))
                   for i, item in enumerate(v.astype(np.float64)))

    for wrt in ("input", "shared") if shared is not None else ("input",):
        tape = Tape()
        if wrt == "input":
            xi = tape.input_leaf(x)
            si = None if shared is None else tape.leaf(shared)
        else:
            si = tape.input_leaf(shared)
            xi = tape.leaf(x)
        grad = backward_to_input(tape, _to_scalar(tape, build(tape, xi, si))).astype(np.float64)
        if wrt == "input":
            fd = finite_diff_gradient(lambda v: oracle(v, shared), x, 1e-3)
        else:
            fd = finite_diff_gradient(lambda v: oracle(x, v), shared, 1e-3)
        assert np.linalg.norm(grad - fd) < 1e-3 * max(np.linalg.norm(fd), 1.0), wrt


@settings(max_examples=8)
@given(b=st.integers(1, 3), data=st.data())
def test_gradcheck_batched_patchify(b, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.random((b, 4, 4, 2), dtype=np.float32)

    def f64_eval(v):
        p = v.astype(np.float64).reshape(b, 2, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4, 5)
        return sum(_pool_sq64(item) for item in p.reshape(b, 4, 8))

    _gradcheck(lambda tape, nid: _to_scalar(tape, tape.apply("patchify", nid, patch_size=2)),
               f64_eval, x)


@pytest.mark.parametrize("op,attrs,width", [
    ("softmax", {}, 5), ("gelu", {}, 5), ("attention", {"heads": 2}, 12),
    ("mean_pool", {}, 5), ("slice", {"rows": (1, 3)}, 5),
])
def test_batched_primitive_equals_items_bitwise(op, attrs, width):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4, width)).astype(np.float32)
    w = rng.standard_normal((width // 3 if op == "attention" else width, 3)).astype(np.float32)

    def run(v):
        tape = Tape()
        nid = tape.input_leaf(v)
        out = tape.apply("matmul", tape.apply(op, nid, **attrs), tape.leaf(w))
        loss = _to_scalar(tape, out)
        return tape.value(out), backward_to_input(tape, loss)

    out, grad = run(x)
    for i in range(len(x)):
        item_out, item_grad = run(x[i:i + 1])
        assert item_out.tobytes() == out[i:i + 1].tobytes()
        assert item_grad.tobytes() == grad[i:i + 1].tobytes()


def test_backward_to_input_accepts_one_scalar_per_item():
    tape, x = _tape_with_leaf(np.ones((3, 1, 2), np.float32))
    loss = tape.apply("scale", tape.apply("matmul", x, x, transpose_b=True), factor=0.5)
    np.testing.assert_array_equal(backward_to_input(tape, loss), np.ones((3, 1, 2)))


def test_context_kept_only_where_gradients_flow():
    tape = Tape()
    frozen = tape.leaf(np.ones((2, 3), np.float32))
    watched = tape.input_leaf(np.ones((2, 3), np.float32))
    assert tape.nodes[tape.apply("gelu", frozen)].ctx == ()
    assert tape.nodes[tape.apply("gelu", watched)].ctx != ()


# --- algebraic properties -------------------------------------------------------


@settings(max_examples=30)
@given(m=small, n=small, data=st.data())
def test_softmax_rows_are_distributions(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = (10 * rng.standard_normal((m, n))).astype(np.float32)
    tape, nid = _tape_with_leaf(x)
    out = tape.value(tape.apply("softmax", nid))
    assert (out >= 0).all()
    np.testing.assert_allclose(out.sum(axis=1), np.ones(m), atol=1e-6)


@settings(max_examples=30)
@given(m=small, n=st.integers(2, 8), data=st.data())
def test_layer_norm_moments(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)
    # with denominator epsilon 1e-6, output variance is v/(v+1e-6): the 1e-4
    # bound needs row variance >= 1e-2, not just the nonzero-variance guard
    assume(float(x.var(axis=1).min()) > 1.5e-2)
    tape, nid = _tape_with_leaf(x)
    g = tape.leaf(np.ones(n, np.float32))
    b = tape.leaf(np.zeros(n, np.float32))
    out = tape.value(tape.apply("layer_norm", nid, g, b)).astype(np.float64)
    assert np.abs(out.mean(axis=1)).max() < 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4


@settings(max_examples=25)
@given(m=small, n=small, data=st.data())
def test_primitives_preserve_finiteness(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = (100 * rng.standard_normal((m, n))).astype(np.float32)
    tape, nid = _tape_with_leaf(x)
    for op in ("softmax", "gelu"):
        assert np.isfinite(tape.value(tape.apply(op, nid))).all()
    pooled = tape.apply("mean_pool", nid)
    assert np.isfinite(tape.value(pooled)).all()


# --- tiny-ViT end-to-end gradient check (oracle: independent f64 forward) -------


def test_tiny_vit_gradient_matches_finite_differences():
    from _reference import reference_matching_loss

    from embedmatch.model import embed, matching_loss_grad_embed
    from embedmatch.weights_io import init_weights
    from conftest import random_image, tiny_config

    cfg = tiny_config()
    rng = np.random.default_rng(42)
    weights = init_weights(cfg, seed=9)
    x = random_image(rng, cfg)
    target = embed(random_image(rng, cfg), weights, "class_token")
    _, grad, _ = matching_loss_grad_embed(x, target, weights, "class_token")
    fd = finite_diff_gradient(
        lambda v: reference_matching_loss(v, target.values, weights, "class_token"), x, 1e-3)
    rel = np.linalg.norm(grad.astype(np.float64) - fd) / np.linalg.norm(fd)
    assert rel < 1e-3
