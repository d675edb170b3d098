"""Reverse-mode automatic differentiation over an explicitly recorded tape.

The primitive set covers exactly what the tiny vision transformer needs.
Every primitive works on the last two axes of its operands; any axes in front
of those are a batch axis, so a stack of B images runs through the same code
as one image (B=1).  A 2-d operand (a weight matrix, a class token) next to a
batched one is shared by every batch item, and its gradient sums over them.

Values are stored as float32; reductions (matmul inner products, means,
variances, softmax normalizers) accumulate in float64 before rounding back,
which keeps finite-difference gradient checks tight at h=1e-3.  Every batch
item goes through the same float64 operations in the same order as a lone
image would, so each item gets bitwise the values and input gradient it gets
alone (the tests pin this, because numpy and BLAS do not promise it).  The
gradient of a shared operand is one product over all batch rows, not a sum of
per-item products.

Tapes are single-use, single-thread objects.  Recorded arrays are treated as
immutable; callers must not mutate them afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAYER_NORM_EPS = 1e-6
_GELU_C = 0.044715
_GELU_K = math.sqrt(2.0 / math.pi)


class ShapeError(ValueError):
    """A primitive was applied to tensors with incompatible dims."""


class ContractError(ValueError):
    """An operation precondition was violated (e.g. non-scalar loss node)."""


@dataclass
class Node:
    op: str                  # "leaf" or a primitive name
    inputs: tuple[int, ...]
    value: np.ndarray        # float32
    attrs: dict
    ctx: tuple               # float64 intermediates the vjp needs; () unless `requires`
    requires: bool           # gradient must flow into or through this node


class Tape:
    """Ordered record of primitive applications, rooted at one input tensor.

    Node ids are indices into ``nodes`` and are topologically ordered by
    construction.  ``root`` designates the input-image leaf that
    :func:`backward_to_input` differentiates with respect to.
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self.root: int | None = None

    def leaf(self, value: np.ndarray, *, watch: bool = False) -> int:
        arr = np.asarray(value, dtype=np.float32)
        self.nodes.append(Node("leaf", (), arr, {}, (), watch))
        return len(self.nodes) - 1

    def input_leaf(self, value: np.ndarray) -> int:
        """Record the designated input tensor (watched, set as root)."""
        nid = self.leaf(value, watch=True)
        self.root = nid
        return nid

    def value(self, nid: int) -> np.ndarray:
        return self.nodes[nid].value

    def apply(self, op: str, *inputs: int, **attrs) -> int:
        """Run one primitive forward and record it.

        ``op`` is one of matmul, add, scale, layer_norm, softmax, gelu,
        attention, patchify, mean_pool, concat, slice.  Returns the new node
        id.  The node keeps backward context only when a gradient can reach it.
        """
        try:
            fwd, _ = _PRIMITIVES[op]
        except KeyError:
            raise ContractError(f"unknown primitive {op!r}") from None
        arrays = [self.nodes[i].value for i in inputs]
        out, ctx = fwd(attrs, arrays)
        requires = any(self.nodes[i].requires for i in inputs)
        self.nodes.append(Node(op, tuple(inputs), out, attrs, ctx if requires else (), requires))
        return len(self.nodes) - 1

    def backward(self, seeds: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Propagate seed gradients to every watched leaf they reach.

        Returns float64 gradients keyed by leaf node id.  Gradient flow is
        pruned at nodes whose subgraph contains no watched leaf.
        """
        grads: dict[int, np.ndarray] = {}
        for nid, seed in seeds.items():
            g = np.asarray(seed, dtype=np.float64)
            if g.shape != self.nodes[nid].value.shape:
                raise ShapeError(
                    f"backward: seed shape {g.shape} does not match node shape "
                    f"{self.nodes[nid].value.shape}"
                )
            grads[nid] = grads[nid] + g if nid in grads else g.copy()
        leaf_grads: dict[int, np.ndarray] = {}
        for nid in range(len(self.nodes) - 1, -1, -1):
            g = grads.pop(nid, None)
            if g is None:
                continue
            node = self.nodes[nid]
            if node.op == "leaf":
                leaf_grads[nid] = g
                continue
            need = [self.nodes[i].requires for i in node.inputs]
            if not any(need):
                continue
            _, vjp = _PRIMITIVES[node.op]
            arrays = [self.nodes[i].value for i in node.inputs]
            for i, gi in zip(node.inputs, vjp(node.attrs, node.ctx, g, arrays, need)):
                if gi is None:
                    continue
                grads[i] = grads[i] + gi if i in grads else gi
        return leaf_grads


def backward_to_input(tape: Tape, loss_node: int) -> np.ndarray:
    """Gradient of a loss node with respect to the tape's root input.

    The loss node holds one scalar per batch item (shape (..., 1, 1)); every
    item's gradient is that of its own loss, since batch items do not mix.
    """
    value = tape.value(loss_node)
    if value.ndim < 2 or value.shape[-2:] != (1, 1):
        raise ContractError(
            f"backward_to_input: loss node has shape {value.shape}, expected a scalar per item")
    if tape.root is None:
        raise ContractError("backward_to_input: tape has no designated input node")
    grads = tape.backward({loss_node: np.ones_like(value, dtype=np.float64)})
    g = grads.get(tape.root)
    if g is None:
        g = np.zeros_like(tape.value(tape.root), dtype=np.float64)
    return g.astype(np.float32)


def finite_diff_gradient(evaluate, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function, accumulated in float64.

    Independent of the tape machinery; used as the oracle for backward passes.
    Non-finite evaluations propagate into the corresponding entries.
    """
    if h <= 0:
        raise ValueError(f"finite_diff_gradient: h must be positive, got {h}")
    x = np.asarray(x, dtype=np.float32)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = grad.reshape(-1)
    for i in range(x.size):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] = np.float32(xp[i] + h)
        xm[i] = np.float32(xm[i] - h)
        denom = float(xp[i]) - float(xm[i])
        fp = float(evaluate(xp.reshape(x.shape)))
        fm = float(evaluate(xm.reshape(x.shape)))
        flat[i] = (fp - fm) / denom
    return grad


# ---------------------------------------------------------------------------
# primitive forward / vjp pairs
#
# forward: (attrs, float32 arrays) -> (float32 output, ctx)
# vjp:     (attrs, ctx, float64 upstream grad, float32 arrays, need) -> per-input grads
#
# ctx holds only float64 intermediates that cannot be recovered exactly from
# the float32 inputs; a vjp re-casts the inputs it needs.
# ---------------------------------------------------------------------------


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64)


def _mT(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    return g if g.shape == shape else g.reshape(-1, *shape).sum(axis=0)


def _fwd_matmul(attrs, arrays):
    a, b = arrays
    tb = bool(attrs.get("transpose_b", False))
    if a.ndim < 2 or b.ndim < 2 or (b.ndim > 2 and b.shape[:-2] != a.shape[:-2]):
        raise ShapeError(
            f"matmul: expected (..., m, k) with (k, n) or equal batch dims, got {a.shape} and "
            f"{b.shape}")
    inner = b.shape[-1] if tb else b.shape[-2]
    if a.shape[-1] != inner:
        raise ShapeError(
            f"matmul: inner dims differ, {a.shape} @ {b.shape}"
            + (" with transpose_b" if tb else "")
        )
    b64 = _f64(b)
    out = _f64(a) @ (_mT(b64) if tb else b64)
    return out.astype(np.float32), ()


def _vjp_matmul(attrs, ctx, g, arrays, need):
    a, b = arrays
    tb = bool(attrs.get("transpose_b", False))
    ga = gb = None
    if need[0]:
        b64 = _f64(b)
        ga = g @ b64 if tb else g @ _mT(b64)
    if need[1]:
        a64 = _f64(a)
        if b.ndim < a.ndim:  # shared operand: one product over every batch row
            a64 = a64.reshape(-1, a.shape[-1])
            g = g.reshape(-1, g.shape[-1])
        gb = _mT(g) @ a64 if tb else _mT(a64) @ g
    return ga, gb


def _fwd_add(attrs, arrays):
    a, b = arrays
    if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise ShapeError(f"add: incompatible dims {a.shape} and {b.shape}")
    return a + b, ()


def _vjp_add(attrs, ctx, g, arrays, need):
    return (g if need[0] else None,
            _sum_to(g, arrays[1].shape) if need[1] else None)


def _fwd_scale(attrs, arrays):
    (a,) = arrays
    return a * np.float32(attrs["factor"]), ()


def _vjp_scale(attrs, ctx, g, arrays, need):
    return (g * float(attrs["factor"]) if need[0] else None,)


def _fwd_layer_norm(attrs, arrays):
    x, gain, bias = arrays
    if x.ndim < 2 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: expected x (..., m, n) with gain/bias (n,), got "
            f"{x.shape}, {gain.shape}, {bias.shape}"
        )
    x64 = _f64(x)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (x64 - mu) * inv
    out = (xhat * _f64(gain) + _f64(bias)).astype(np.float32)
    return out, (xhat, inv)


def _vjp_layer_norm(attrs, ctx, g, arrays, need):
    xhat, inv = ctx
    n = xhat.shape[-1]
    gx = ggain = gbias = None
    if need[0]:
        dxhat = g * _f64(arrays[1])
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (dxhat - m1 - xhat * m2)
    if need[1]:
        ggain = (g * xhat).reshape(-1, n).sum(axis=0)
    if need[2]:
        gbias = g.reshape(-1, n).sum(axis=0)
    return gx, ggain, gbias


def _softmax64(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, float32 in, unrounded float64 out."""
    x64 = _f64(x)
    e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def _fwd_softmax(attrs, arrays):
    (x,) = arrays
    if x.ndim < 2:
        raise ShapeError(f"softmax: expected input (..., m, n), got {x.shape}")
    s = _softmax64(x)
    return s.astype(np.float32), (s,)


def _vjp_softmax(attrs, ctx, g, arrays, need):
    return (_softmax_vjp(ctx[0], g) if need[0] else None,)


def _fwd_gelu(attrs, arrays):
    (x,) = arrays
    x64 = _f64(x)
    # x is float32, so x*x is exact in float64 and the product is the
    # correctly rounded cube (x**3 goes through pow: slower, not always so)
    th = np.tanh(_GELU_K * (x64 + _GELU_C * (x64 * x64 * x64)))
    return (0.5 * x64 * (1.0 + th)).astype(np.float32), (th,)


def _vjp_gelu(attrs, ctx, g, arrays, need):
    if not need[0]:
        return (None,)
    (th,) = ctx
    x64 = _f64(arrays[0])
    du = _GELU_K * (1.0 + 3.0 * _GELU_C * (x64 * x64))
    return (g * (0.5 * (1.0 + th) + 0.5 * x64 * (1.0 - th**2) * du),)


def _split_heads(a: np.ndarray, parts: int, heads: int) -> np.ndarray:
    """(..., T, parts*heads*dh) -> (parts, ..., heads, T, dh), a view."""
    *lead, t, width = a.shape
    n = len(lead)
    split = a.reshape(*lead, t, parts, heads, width // (parts * heads))
    return split.transpose(n + 1, *range(n), n + 2, n, n + 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(parts, ..., heads, T, dh) -> (..., T, parts*heads*dh), a copy."""
    parts, *lead, heads, t, dh = a.shape
    n = len(lead)
    merged = a.transpose(*range(1, n + 1), n + 2, 0, n + 1, n + 3)
    return merged.reshape(*lead, t, parts * heads * dh)


def _fwd_attention(attrs, arrays):
    (qkv,) = arrays
    heads = int(attrs["heads"])
    if qkv.ndim < 2 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise ShapeError(
            f"attention: expected qkv (..., T, 3*d) with d divisible by {heads} heads, "
            f"got {qkv.shape}")
    q64, k64, v64 = np.ascontiguousarray(_split_heads(qkv, 3, heads), dtype=np.float64)
    # every step rounds to float32 where a separate node's output would
    scores = (q64 @ _mT(k64)).astype(np.float32) * np.float32(1.0 / np.sqrt(q64.shape[-1]))
    s = _softmax64(scores)
    out = (_f64(s.astype(np.float32)) @ v64).astype(np.float32)
    return _merge_heads(out[None]), (s,)


def _vjp_attention(attrs, ctx, g, arrays, need):
    if not need[0]:
        return (None,)
    (s,) = ctx
    heads = int(attrs["heads"])
    q64, k64, v64 = np.ascontiguousarray(_split_heads(arrays[0], 3, heads), dtype=np.float64)
    (g_out,) = _split_heads(g, 1, heads)
    gp = g_out @ _mT(v64)
    gv = _mT(_f64(s.astype(np.float32))) @ g_out
    gs = _softmax_vjp(s, gp) * float(1.0 / np.sqrt(q64.shape[-1]))
    gq = gs @ k64
    gk = _mT(gs) @ q64
    return (_merge_heads(np.stack((gq, gk, gv))),)


def _fwd_patchify(attrs, arrays):
    (x,) = arrays
    ps = int(attrs["patch_size"])
    if x.ndim < 3:
        raise ShapeError(f"patchify: expected images (..., H, W, C), got {x.shape}")
    *lead, h, w, c = x.shape
    if h % ps or w % ps:
        raise ShapeError(f"patchify: image {x.shape} not divisible by patch size {ps}")
    n = len(lead)
    gh, gw = h // ps, w // ps
    grid = x.reshape(*lead, gh, ps, gw, ps, c).transpose(*range(n), n, n + 2, n + 1, n + 3, n + 4)
    return np.ascontiguousarray(grid.reshape(*lead, gh * gw, ps * ps * c)), ()


def _vjp_patchify(attrs, ctx, g, arrays, need):
    if not need[0]:
        return (None,)
    ps = int(attrs["patch_size"])
    *lead, h, w, c = arrays[0].shape
    n = len(lead)
    gh, gw = h // ps, w // ps
    grid = g.reshape(*lead, gh, gw, ps, ps, c).transpose(*range(n), n, n + 2, n + 1, n + 3, n + 4)
    return (np.ascontiguousarray(grid.reshape(*lead, h, w, c)),)


def _fwd_mean_pool(attrs, arrays):
    (x,) = arrays
    if x.ndim < 2 or x.shape[-2] < 1:
        raise ShapeError(f"mean_pool: expected non-empty input (..., m, n), got {x.shape}")
    out = _f64(x).mean(axis=-2, keepdims=True)
    return out.astype(np.float32), ()


def _vjp_mean_pool(attrs, ctx, g, arrays, need):
    if not need[0]:
        return (None,)
    shape = arrays[0].shape
    return (np.broadcast_to(g / shape[-2], shape).copy(),)


def _fwd_concat(attrs, arrays):
    """Join along the second-to-last axis; 2-d inputs are shared across the batch."""
    lead = max((a.shape[:-2] for a in arrays), key=len, default=())
    if (any(a.ndim < 2 or a.shape[:-2] not in ((), lead) for a in arrays)
            or len({a.shape[-1] for a in arrays}) != 1):
        raise ShapeError(f"concat: incompatible dims {[a.shape for a in arrays]}")
    parts = [np.broadcast_to(a, lead + a.shape[-2:]) for a in arrays]
    return np.concatenate(parts, axis=-2), ()


def _vjp_concat(attrs, ctx, g, arrays, need):
    out = []
    start = 0
    for a, needed in zip(arrays, need):
        size = a.shape[-2]
        out.append(_sum_to(g[..., start:start + size, :], a.shape) if needed else None)
        start += size
    return tuple(out)


def _fwd_slice(attrs, arrays):
    (x,) = arrays
    if x.ndim < 2:
        raise ShapeError(f"slice: expected input (..., m, n), got {x.shape}")
    r0, r1 = attrs["rows"]
    if not 0 <= r0 < r1 <= x.shape[-2]:
        raise ShapeError(f"slice: rows=({r0},{r1}) invalid for {x.shape}")
    return x[..., r0:r1, :].copy(), ()


def _vjp_slice(attrs, ctx, g, arrays, need):
    if not need[0]:
        return (None,)
    r0, r1 = attrs["rows"]
    gx = np.zeros(arrays[0].shape, dtype=np.float64)
    gx[..., r0:r1, :] = g
    return (gx,)


_PRIMITIVES = {
    "matmul": (_fwd_matmul, _vjp_matmul),
    "add": (_fwd_add, _vjp_add),
    "scale": (_fwd_scale, _vjp_scale),
    "layer_norm": (_fwd_layer_norm, _vjp_layer_norm),
    "softmax": (_fwd_softmax, _vjp_softmax),
    "gelu": (_fwd_gelu, _vjp_gelu),
    "attention": (_fwd_attention, _vjp_attention),
    "patchify": (_fwd_patchify, _vjp_patchify),
    "mean_pool": (_fwd_mean_pool, _vjp_mean_pool),
    "concat": (_fwd_concat, _vjp_concat),
    "slice": (_fwd_slice, _vjp_slice),
}
