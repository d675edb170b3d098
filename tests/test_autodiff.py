"""Tape primitives, backward passes, and the finite-difference oracle."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import (attention_per_head32, finite_diff_gradient, layer_norm_numpy,
                        mean_pool_numpy)

from embedmatch.autodiff import ContractError, Forward, ShapeError, Tape

settings.register_profile("ci", deadline=None)
settings.load_profile("ci")


def _tape_with_leaf(value, watch=True):
    tape = Tape()
    return tape, tape.leaf(value, watch=watch)


def _pooled_sq_grad(tape, node, wrt):
    """Gradient at leaf ``wrt`` of half the squared norm of each item's mean-pooled row.

    The loss's gradient at the pooled node is the node's own value, so that
    value seeds the backward pass; the loss is never recorded on the tape.
    """
    pooled = tape.apply("mean_pool", node, rows=(0, tape.value(node).shape[-2]))
    return tape.backward({pooled: tape.value(pooled).astype(np.float64)})[wrt]


# --- spec'd single-op examples -------------------------------------------------


def test_softmax_uniform():
    # zero queries and keys give each of the 3 keys probability 1/3, so every
    # output row is the mean of the value rows
    v = np.array([[3.0], [0.0], [6.0]], np.float32)
    tape = Tape()
    qkv = tape.leaf(np.hstack([np.zeros((3, 2), np.float32), v]))
    out = tape.value(tape.apply("attention", qkv, heads=1))
    np.testing.assert_allclose(out, np.full((3, 1), 3.0), atol=1e-6)


def test_layer_norm_constant_row_is_zero():
    tape, x = _tape_with_leaf([[5.0, 5.0, 5.0, 5.0]])
    g = tape.leaf(np.ones(4, np.float32))
    b = tape.leaf(np.zeros(4, np.float32))
    out = tape.value(tape.apply("layer_norm", x, g, b))
    np.testing.assert_array_equal(out, np.zeros((1, 4), np.float32))


def test_linear_identity():
    rng = np.random.default_rng(0)
    a = rng.random((3, 5), dtype=np.float32)
    tape = Tape()
    ids = [tape.leaf(a), tape.leaf(np.eye(5, dtype=np.float32)), tape.leaf(np.zeros(5, np.float32))]
    np.testing.assert_array_equal(tape.value(tape.apply("linear", *ids)), a)


@pytest.mark.parametrize("shape", [(3, 5), (4, 3, 5)])
def test_linear_equals_float64_product_then_float32_bias_bitwise(shape):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal((5, 7)).astype(np.float32)
    b = rng.standard_normal(7).astype(np.float32)
    want = (x.astype(np.float64) @ w.astype(np.float64)).astype(np.float32) + b
    tape = Tape()
    out = tape.value(tape.apply("linear", tape.leaf(x), tape.leaf(w), tape.leaf(b)))
    assert out.dtype == np.float32 and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [0, 2, 3])
def test_mean_pool_of_one_row_reads_it_out_bitwise(r):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 4, 3)).astype(np.float32)
    tape, nid = _tape_with_leaf(x)
    pooled = tape.apply("mean_pool", nid, rows=(r, r + 1))
    assert tape.value(pooled).tobytes() == x[:, r:r + 1].tobytes()
    g = rng.standard_normal((2, 1, 3))
    grad = tape.backward({pooled: g})[nid]
    want = np.zeros(x.shape)
    want[:, r:r + 1] = g
    assert grad.tobytes() == want.tobytes()


def test_backward_half_sum_squares():
    # loss = sum(x^2)/2 at x=[1,2,3] -> gradient [1,2,3]
    tape, x = _tape_with_leaf([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(_pooled_sq_grad(tape, x, x), [[1.0, 2.0, 3.0]])


def test_backward_zero_scaled_loss_is_zero_gradient():
    tape, x = _tape_with_leaf([[1.0, -2.0, 0.5]])
    y = tape.apply("gelu", tape.apply("gelu", x))
    grads = tape.backward({y: np.zeros((1, 3))})
    np.testing.assert_array_equal(grads[x], np.zeros((1, 3)))


def test_backward_rejects_seed_of_wrong_shape():
    tape, x = _tape_with_leaf([[1.0, 2.0]])
    y = tape.apply("gelu", x)
    with pytest.raises(ShapeError):
        tape.backward({y: np.ones((2, 1))})


# known primitives called without the attr they require, and the attr the error names
_MISSING_ATTR = {"mean_pool": "rows", "attention": "heads", "patchify": "patch_size"}


@pytest.mark.parametrize("op", ["scale", "softmax", "matmul", "slice", "no_such_op",
                                "mean_pool", "attention", "patchify"])
def test_unknown_primitive_is_contract_error(op):
    tape, x = _tape_with_leaf([[1.0, 2.0]])
    with pytest.raises(ContractError, match=op) as err:
        tape.apply(op, x)
    assert _MISSING_ATTR.get(op, op) in str(err.value)


@pytest.mark.parametrize("op,shapes,attrs", [
    ("no_such_op", [(1, 2)], {}), ("mean_pool", [(1, 2)], {}), ("attention", [(1, 6)], {}),
    ("patchify", [(4, 4, 1)], {}), ("linear", [(2, 3), (2, 3), (3,)], {}),
    ("mean_pool", [(2, 3)], {"rows": (0, 5)}), ("concat", [(2, 3), (2, 4)], {}),
])
def test_forward_raises_what_tape_raises(op, shapes, attrs):
    arrays = [np.zeros(s, np.float32) for s in shapes]
    tape = Tape()
    with pytest.raises((ContractError, ShapeError)) as taped:
        tape.apply(op, *(tape.leaf(a) for a in arrays), **attrs)
    forward = Forward()
    with pytest.raises(taped.type) as untaped:
        forward.apply(op, *(forward.leaf(a) for a in arrays), **attrs)
    assert str(untaped.value) == str(taped.value)
    with pytest.raises(ContractError):
        forward.leaf(arrays[0], watch=True)


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x, g, b = (rng.random(shape, dtype=np.float32) for shape in ((2, 4), (4,), (4,)))

    def grad():
        tape, xi = _tape_with_leaf(x)
        h = tape.apply("gelu", tape.apply("layer_norm", xi, tape.leaf(g), tape.leaf(b)))
        return _pooled_sq_grad(tape, h, xi)

    assert grad().tobytes() == grad().tobytes()


def test_second_backward_is_contract_error():
    tape, x = _tape_with_leaf([[1.0, 2.0]])
    y = tape.apply("gelu", x)
    tape.backward({y: np.ones((1, 2))})
    with pytest.raises(ContractError, match="single-use"):
        tape.backward({y: np.ones((1, 2))})


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
    ("linear", [(2, 3), (2, 3), (3,)], {}),
    ("add", [(2, 3), (3, 2)], {}),
    ("layer_norm", [(2, 3), (2,), (3,)], {}),
    ("linear", [(2, 3, 4), (2, 4, 5), (5,)], {}),
    ("patchify", [(9, 9, 3)], {"patch_size": 4}),
    ("mean_pool", [(4,)], {"rows": (0, 1)}),
    ("concat", [(2, 3), (2, 4)], {}),
    ("mean_pool", [(2, 3)], {"rows": (0, 5)}),
    ("attention", [(2, 10)], {"heads": 2}),
    ("linear", [(2, 3, 4), (4, 2), (3,)], {}),
    ("concat", [(2, 1, 3), (3, 2, 3)], {}),
    ("mean_pool", [(2, 3)], {"rows": (1, 1)}),
    ("mean_pool", [(2, 3)], {"rows": (-1, 1)}),
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
    """Tape gradient of the pooled squared norm of build(tape, leaf) vs central
    differences of f64_eval."""
    tape, nid = _tape_with_leaf(x)
    grad = _pooled_sq_grad(tape, build(tape, nid), nid)
    fd = finite_diff_gradient(f64_eval, x, h)
    # relative above unit gradient norm, absolute below: near-zero gradients
    # would otherwise divide rounding noise by an arbitrarily small norm
    assert np.linalg.norm(grad - fd) < tol * max(np.linalg.norm(fd), 1.0)


def _pool_sq64(y: np.ndarray) -> float:
    p = y.mean(axis=0)
    return 0.5 * float(p @ p)


small = st.integers(min_value=1, max_value=8)


@settings(max_examples=20)
@given(m=small, k=small, n=small, data=st.data())
def test_gradcheck_linear(m, k, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, k)).astype(np.float32)
    w = rng.standard_normal((k, n)).astype(np.float32)
    b = rng.standard_normal(n).astype(np.float32)

    def build(tape, nid):
        return tape.apply("linear", nid, tape.leaf(w), tape.leaf(b))

    _gradcheck(build, lambda v: _pool_sq64(v.astype(np.float64) @ w.astype(np.float64)
                                           + b.astype(np.float64)), x)


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
        return tape.apply("layer_norm", nid, tape.leaf(g), tape.leaf(b))

    _gradcheck(build,
               lambda v: _pool_sq64(layer_norm64(v.astype(np.float64),
                                                 g.astype(np.float64),
                                                 b.astype(np.float64))), x)


@settings(max_examples=15)
@given(m=small, n=small, data=st.data())
def test_gradcheck_gelu(m, n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.standard_normal((m, n)).astype(np.float32)

    def build(tape, nid):
        return tape.apply("gelu", nid)

    _gradcheck(build, lambda v: _pool_sq64(gelu64(v.astype(np.float64))), x)


@settings(max_examples=10)
@given(data=st.data())
def test_gradcheck_patchify_and_friends(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    x = rng.random((4, 4, 2), dtype=np.float32)
    bias = rng.standard_normal(8).astype(np.float32)

    def build(tape, nid):
        patches = tape.apply("patchify", nid, patch_size=2)
        top = tape.apply("mean_pool", patches, rows=(0, 1))
        bottom = tape.apply("mean_pool", patches, rows=(1, 4))
        merged = tape.apply("concat", bottom, top)
        return tape.apply("add", merged, tape.leaf(bias))

    def f64_eval(v):
        p = v.astype(np.float64).reshape(2, 2, 2, 2, 2).transpose(0, 2, 1, 3, 4).reshape(4, 8)
        merged = np.vstack([p[1:].mean(axis=0, keepdims=True), p[:1]])
        return _pool_sq64(merged + bias.astype(np.float64))

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
        return tape.apply("attention", nid, heads=heads)

    _gradcheck(build, lambda v: _pool_sq64(_attention64(v.astype(np.float64), heads)), x)


def test_attention_matches_per_head_primitives_bitwise():
    # the fused primitive rounds to float32 wherever a graph of separate
    # per-head nodes would store a value
    rng = np.random.default_rng(8)
    heads, dh = 4, 16
    qkv = rng.standard_normal((17, 3 * heads * dh)).astype(np.float32)
    tape = Tape()
    fused = tape.apply("attention", tape.leaf(qkv), heads=heads)
    assert tape.value(fused).tobytes() == attention_per_head32(qkv, heads).tobytes()


# --- batched primitives: a leading batch axis, shared 2-d operands ----------------
#
# Each case is (input width, shared-operand factory, tape builder, per-item
# float64 oracle).  The loss sums every item's pooled squared norm, so the
# gradient of a shared operand sums over the batch.

def _no_shared(rng, b, m, n):
    return None


def _fixed_weight(n):
    """A constant (n, 3) weight for the linear case whose bias is the shared operand."""
    return np.linspace(-1.0, 1.0, 3 * n, dtype=np.float32).reshape(n, 3)


_FIXED_BIAS = np.array([0.3, -0.2, 0.1], np.float32)

_BATCHED_CASES = {
    "linear_weight": (lambda n: n, lambda rng, b, m, n: rng.standard_normal((n, 3)),
                      lambda tape, x, s: tape.apply("linear", x, s, tape.leaf(_FIXED_BIAS)),
                      lambda item, s, b: item @ s + _FIXED_BIAS.astype(np.float64)),
    "linear_bias": (
        lambda n: n, lambda rng, b, m, n: rng.standard_normal(3),
        lambda tape, x, s: tape.apply(
            "linear", x, tape.leaf(_fixed_weight(tape.value(x).shape[-1])), s),
        lambda item, s, b: item @ _fixed_weight(item.shape[-1]).astype(np.float64) + s),
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
    "gelu": (lambda n: n, _no_shared, lambda tape, x, s: tape.apply("gelu", x),
             lambda item, s, b: gelu64(item)),
    "attention": (lambda n: 6 * n, _no_shared,
                  lambda tape, x, s: tape.apply("attention", x, heads=2),
                  lambda item, s, b: _attention64(item, 2)),
    "mean_pool": (lambda n: n, _no_shared,
                  lambda tape, x, s: tape.apply("mean_pool", x,
                                                rows=(0, tape.value(x).shape[-2])),
                  lambda item, s, b: item.mean(axis=0, keepdims=True)),
    "mean_pool_first_row": (lambda n: n, _no_shared,
                            lambda tape, x, s: tape.apply("mean_pool", x, rows=(0, 1)),
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
        xi = tape.leaf(x, watch=wrt == "input")
        si = None if shared is None else tape.leaf(shared, watch=wrt == "shared")
        grad = _pooled_sq_grad(tape, build(tape, xi, si), xi if wrt == "input" else si)
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

    _gradcheck(lambda tape, nid: tape.apply("patchify", nid, patch_size=2), f64_eval, x)


# shapes of each primitive's shared operands after the batched input
_SHARED_SHAPES = {"linear": [(5, 5), (5,)], "layer_norm": [(5,), (5,)], "add": [(5,)],
                  "concat": [(2, 5)]}


@pytest.mark.parametrize("op,attrs,width", [
    ("layer_norm", {}, 5), ("gelu", {}, 5), ("attention", {"heads": 2}, 12),
    ("mean_pool", {"rows": (0, 4)}, 5), ("mean_pool", {"rows": (1, 3)}, 5),
    ("add", {}, 5), ("concat", {}, 5), ("patchify", {"patch_size": 2}, 8),
    ("linear", {}, 5),
])
def test_batched_primitive_equals_items_bitwise(op, attrs, width):
    # each output then goes through a linear layer with shared weights, as in the model
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4, 4, 2) if op == "patchify" else (5, 4, width))
    x = x.astype(np.float32)
    shared = [rng.standard_normal(s).astype(np.float32) for s in _SHARED_SHAPES.get(op, [])]
    w = rng.standard_normal((width // 3 if op == "attention" else width, 3)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)

    def run(v):
        tape, nid = _tape_with_leaf(v)
        node = tape.apply(op, nid, *(tape.leaf(s) for s in shared), **attrs)
        out = tape.apply("linear", node, tape.leaf(w), tape.leaf(b))
        return tape.value(out), _pooled_sq_grad(tape, out, nid)

    out, grad = run(x)
    for i in range(len(x)):
        item_out, item_grad = run(x[i:i + 1])
        assert item_out.tobytes() == out[i:i + 1].tobytes()
        assert item_grad.tobytes() == grad[i:i + 1].tobytes()


@pytest.mark.parametrize("shape", [(1, 7), (3, 5, 9), (2, 3, 17, 64)])
def test_layer_norm_and_mean_pool_equal_numpy_mean_and_var_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    x = (3 * rng.standard_normal(shape) + rng.standard_normal(shape[-1])).astype(np.float32)
    gain, bias = rng.standard_normal((2, shape[-1])).astype(np.float32)
    g = rng.standard_normal(shape)
    out, grads = layer_norm_numpy(x, gain, bias, g)
    tape = Tape()
    ids = [tape.leaf(a, watch=True) for a in (x, gain, bias)]
    y = tape.apply("layer_norm", *ids)
    assert tape.value(y).tobytes() == out.tobytes()
    taped = tape.backward({y: g})
    for nid, want in zip(ids, grads):
        assert taped[nid].tobytes() == want.tobytes()
    for rows in ((0, 1), (1, shape[-2]), (0, shape[-2])):
        if rows[0] < rows[1]:
            pooled = tape.value(tape.apply("mean_pool", ids[0], rows=rows))
            assert pooled.tobytes() == mean_pool_numpy(x, rows).tobytes()


def test_context_kept_only_where_gradients_flow():
    tape = Tape()
    frozen = tape.leaf(np.ones((2, 3), np.float32))
    watched = tape.leaf(np.ones((2, 3), np.float32), watch=True)
    assert tape.nodes[tape.apply("gelu", frozen).index] is None  # no context, no input
    assert tape.nodes[tape.apply("gelu", watched).index].ctx != ()


@pytest.mark.parametrize("watch_weights", [False, True])
def test_linear_input_kept_only_when_the_weights_need_it(watch_weights):
    # the weight gradient reads the linear's input; the input gradient reads only w
    rng = np.random.default_rng(4)
    tape, x = _tape_with_leaf(rng.standard_normal((2, 3, 4)).astype(np.float32))
    w, b = (tape.leaf(rng.standard_normal(s).astype(np.float32), watch=watch_weights)
            for s in ((4, 5), (5,)))
    h = tape.apply("add", x, x)
    y = tape.apply("linear", h, w, b)
    freed = weakref.ref(tape.value(h))
    del h
    gc.collect()
    assert (freed() is None) is not watch_weights
    grads = tape.backward({y: np.ones((2, 3, 5))})
    assert grads[x].shape == (2, 3, 4) and (w in grads) is watch_weights


# --- algebraic properties -------------------------------------------------------


@settings(max_examples=30)
@given(m=small, data=st.data())
def test_softmax_rows_are_distributions(m, data):
    # with the identity as the values, attention returns its probability rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    qk = (10 * rng.standard_normal((m, 2 * m))).astype(np.float32)
    tape, nid = _tape_with_leaf(np.hstack([qk, np.eye(m, dtype=np.float32)]))
    out = tape.value(tape.apply("attention", nid, heads=1))
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
    assert np.isfinite(tape.value(tape.apply("gelu", nid))).all()
    qkv = tape.leaf(np.tile(x, 3))
    assert np.isfinite(tape.value(tape.apply("attention", qkv, heads=1))).all()
    pooled = tape.apply("mean_pool", nid, rows=(0, m))
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
    _, grad, _, _ = matching_loss_grad_embed(x, target.values, weights, "class_token")
    fd = finite_diff_gradient(
        lambda v: reference_matching_loss(v, target.values, weights, "class_token"), x, 1e-3)
    rel = np.linalg.norm(grad.astype(np.float64) - fd) / np.linalg.norm(fd)
    assert rel < 1e-3
