"""Reverse-mode automatic differentiation over an explicitly recorded tape.

The primitive set covers exactly what the tiny vision transformer needs.
Every primitive works on the last two axes of its operands; any axes in front
of those are a batch axis, so a stack of B images runs through the same code
as one image (B=1).  An operand without the batch axis (a weight matrix, a
bias, a class token) is shared by every batch item, and its gradient sums over
them.

Values are stored as float32; reductions (linear-layer inner products, means,
variances, softmax normalizers) accumulate in float64 before rounding back,
which keeps finite-difference gradient checks tight at h=1e-3.  Every batch
item goes through the same float64 operations in the same order as a lone
image would, so each item gets bitwise the values and input gradient it gets
alone (the tests pin this, because numpy and BLAS do not promise it).  The
gradient of a shared operand is one product over all batch rows, not a sum of
per-item products.

The one way to differentiate is :meth:`Tape.backward`, seeded at head nodes
with gradients the caller computes analytically; no loss is recorded.  A pass
that nothing differentiates runs on :class:`Forward` instead: the same
``leaf``/``apply``/``value`` calls and the same primitive forwards, so the
same values and errors, but no tape.

A tape keeps per node only what that node's VJP reads: its float64 context
and the input values the VJP reads for the gradients it must produce (a
``linear`` node keeps ``w`` when its input needs a gradient and ``x`` when its
weight does), plus every input's shape.  ``leaf`` and ``apply`` return
handles that hold the values, as :class:`Forward`'s ids are the values, so a
value no VJP reads is freed once the caller drops it.

Tapes are single-use, single-thread objects: backward drops each node once its
VJP has run, and a second backward is a ContractError.  Recorded arrays are
treated as immutable; callers must not mutate them afterwards.
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
    """An operation precondition was violated (e.g. an unknown primitive)."""


@dataclass(slots=True, eq=False)  # hashed by identity: backward's results are keyed by handle
class Handle:
    """One recorded node, as :meth:`Tape.leaf` and :meth:`Tape.apply` return it.

    The tape keeps no reference to a handle, except to a watched leaf's, so
    its value lives only as long as the caller holds the handle or a VJP
    reads the value.
    """

    value: np.ndarray   # float32
    index: int          # its place in Tape.nodes
    requires: bool      # a gradient must flow into or through this node


@dataclass(slots=True)
class Node:
    """What the tape keeps of one primitive application that a gradient reaches.

    ``need`` says per input whether a gradient must flow into it.  The node
    keeps ``ctx``, the input values its VJP reads given ``need`` (``kept``,
    with None for every other input) and every input's shape.
    """

    op: str
    inputs: tuple[int, ...]     # input handles' indices
    attrs: dict
    ctx: tuple                  # float64 intermediates
    kept: tuple                 # per input, its float32 value or None
    shapes: tuple               # per input, its shape
    need: tuple[bool, ...]


class Tape:
    """Ordered record of primitive applications.

    ``leaf`` and ``apply`` return a :class:`Handle`; ``value`` reads it.
    ``nodes`` holds, per handle index and in topological order, a watched
    leaf's handle, a :class:`Node` per primitive application a gradient
    reaches, and None for every other leaf or application.  The tape holds
    no value that no VJP reads: an activation that only feeds an ``add`` is
    freed once the caller rebinds its variable.
    :meth:`backward` returns gradients for the watched leaves, drops each node
    once its VJP has run, and may run once.
    """

    def __init__(self) -> None:
        self.nodes: list[Handle | Node | None] = []
        self._spent = False

    def leaf(self, value: np.ndarray, *, watch: bool = False) -> Handle:
        handle = Handle(np.asarray(value, dtype=np.float32), len(self.nodes), watch)
        self.nodes.append(handle if watch else None)
        return handle

    def value(self, handle: Handle) -> np.ndarray:
        return handle.value

    def apply(self, op: str, *inputs: Handle, **attrs) -> Handle:
        """Run one primitive forward and record it.

        ``op`` is one of linear, add, layer_norm, gelu, attention, patchify,
        mean_pool, concat.  Returns the new node's handle.  The node keeps
        backward context, and the inputs its VJP reads, only when a gradient
        can reach it.
        """
        arrays = [h.value for h in inputs]
        out, ctx = _forward(op, arrays, attrs)
        need = tuple(h.requires for h in inputs)
        requires = any(need)
        if requires:
            kept = tuple(None if k is None or not need[k] else a
                         for a, k in zip(arrays, _READ_BY.get(op, ())))
            self.nodes.append(Node(op, tuple(h.index for h in inputs), attrs, ctx, kept,
                                   tuple(a.shape for a in arrays), need))
        else:
            self.nodes.append(None)
        return Handle(out, len(self.nodes) - 1, requires)

    def backward(self, seeds: dict[Handle, np.ndarray]) -> dict[Handle, np.ndarray]:
        """Propagate seed gradients to every watched leaf they reach.

        Each seed is the loss gradient at one node, shaped like that node.
        Returns float64 gradients keyed by watched leaf handle.  Gradient flow
        is pruned at nodes whose subgraph contains no watched leaf.  Each node
        is dropped as soon as its VJP has run, so a second call is a
        ContractError.
        """
        if self._spent:
            raise ContractError("backward already ran on this tape; a tape is single-use")
        grads: dict[int, np.ndarray] = {}
        for handle, seed in seeds.items():
            g = np.asarray(seed, dtype=np.float64)
            if g.shape != handle.value.shape:
                raise ShapeError(
                    f"backward: seed shape {g.shape} does not match node shape "
                    f"{handle.value.shape}"
                )
            grads[handle.index] = g.copy()
        self._spent = True
        nodes = self.nodes
        leaf_grads: dict[Handle, np.ndarray] = {}
        while nodes:
            node = nodes.pop()
            g = grads.pop(len(nodes), None)
            if g is None or node is None:
                continue
            if type(node) is Handle:
                leaf_grads[node] = g
                continue
            _, vjp = _PRIMITIVES[node.op]
            for i, gi in zip(node.inputs, vjp(node, g)):
                if gi is None:
                    continue
                grads[i] = grads[i] + gi if i in grads else gi
        return leaf_grads


class Forward:
    """A forward-only pass with a Tape's ``leaf``/``apply``/``value`` calls.

    Node ids are the float32 values themselves: nothing is recorded, no
    backward context is kept, and an activation lives only as long as the
    caller holds it.
    """

    def leaf(self, value: np.ndarray, *, watch: bool = False) -> np.ndarray:
        if watch:
            raise ContractError("a forward-only pass has no gradients to watch")
        return np.asarray(value, dtype=np.float32)

    def value(self, nid: np.ndarray) -> np.ndarray:
        return nid

    def apply(self, op: str, *inputs: np.ndarray, **attrs) -> np.ndarray:
        """Run one primitive forward, as :meth:`Tape.apply` does; returns its value."""
        return _forward(op, inputs, attrs)[0]


def _forward(op: str, arrays, attrs: dict):
    """(output, ctx) of one primitive forward; a bad op or a missing attr is a ContractError."""
    try:
        fwd, _ = _PRIMITIVES[op]
    except KeyError:
        raise ContractError(f"unknown primitive {op!r}") from None
    try:
        return fwd(attrs, arrays)
    except KeyError as e:  # the only KeyError a forward raises is a missing attr
        raise ContractError(f"{op}: missing attr {e.args[0]!r}") from None


# ---------------------------------------------------------------------------
# primitive forward / vjp pairs
#
# forward: (attrs, float32 arrays) -> (float32 output, ctx)
# vjp:     (node, float64 upstream grad) -> per-input grads
#
# ctx holds only float64 intermediates that cannot be recovered exactly from
# the float32 inputs.  A vjp reads the other inputs it needs from node.kept,
# re-casting them, and every input's shape from node.shapes.  _READ_BY names,
# per input, the input whose gradient reads its value; a primitive missing
# from it keeps shapes only.  Float64 temporaries are updated in place where
# that runs the same operations in the same order, so the bits are the same.
# ---------------------------------------------------------------------------


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64)


def _mT(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    return g if g.shape == shape else g.reshape(-1, *shape).sum(axis=0)


def _fwd_linear(attrs, arrays):
    x, w, b = arrays
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear: expected x (..., m, k), w (k, n) and b (n,), got "
                         f"{x.shape}, {w.shape}, {b.shape}")
    out = (_f64(x) @ _f64(w)).astype(np.float32)
    out += b  # in place: a second output array per call slowed forward passes (heap trimming)
    return out, ()


def _vjp_linear(node, g):
    x, w, _ = node.kept
    need = node.need
    gx = g @ _f64(w).T if need[0] else None
    # w and b are shared by every batch item: one product over every batch row
    gw = _f64(x).reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]) if need[1] else None
    return gx, gw, _sum_to(g, node.shapes[2]) if need[2] else None


def _fwd_add(attrs, arrays):
    a, b = arrays
    if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise ShapeError(f"add: incompatible dims {a.shape} and {b.shape}")
    return a + b, ()


def _vjp_add(node, g):
    return (g if node.need[0] else None,
            _sum_to(g, node.shapes[1]) if node.need[1] else None)


def _fwd_layer_norm(attrs, arrays):
    x, gain, bias = arrays
    if x.ndim < 2 or gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: expected x (..., m, n) with gain/bias (n,), got "
            f"{x.shape}, {gain.shape}, {bias.shape}"
        )
    # the float64 operations of numpy's mean and var, without their Python wrappers
    n = x.shape[-1]
    xhat = _f64(x)
    xhat -= np.add.reduce(xhat, -1, keepdims=True) / n
    tmp = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(tmp, -1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, _f64(gain), out=tmp)
    tmp += _f64(bias)
    return tmp.astype(np.float32), (xhat, inv)


def _vjp_layer_norm(node, g):
    xhat, inv = node.ctx
    need = node.need
    n = xhat.shape[-1]
    gx = ggain = gbias = None
    if need[0]:
        # inv * (dxhat - m1 - xhat * m2), one step at a time
        gx = g * _f64(node.kept[1])
        m1 = np.add.reduce(gx, -1, keepdims=True) / n
        tmp = gx * xhat
        m2 = np.add.reduce(tmp, -1, keepdims=True) / n
        gx -= m1
        gx -= np.multiply(xhat, m2, out=tmp)
        gx *= inv
    if need[1]:
        ggain = (g * xhat).reshape(-1, n).sum(axis=0)
    if need[2]:
        gbias = g.reshape(-1, n).sum(axis=0)
    return gx, ggain, gbias


def _softmax64(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, float32 in, unrounded float64 out."""
    e = _f64(x)
    e -= x.max(axis=-1, keepdims=True)  # a float32 max is exact, so the same bits
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_vjp(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def _fwd_gelu(attrs, arrays):
    (x,) = arrays
    x64 = _f64(x)
    # tanh(K * (x + C * x^3)).  x is float32, so x*x is exact in float64 and the
    # product is the correctly rounded cube (x**3 goes through pow: slower, not always so)
    th = x64 * x64
    th *= x64
    th *= _GELU_C
    th += x64
    th *= _GELU_K
    np.tanh(th, out=th)
    x64 *= 0.5
    x64 *= th + 1.0
    return x64.astype(np.float32), (th,)


def _vjp_gelu(node, g):
    # g * (0.5 * (1 + th) + 0.5 * x * (1 - th^2) * K * (1 + 3 * C * x^2))
    (th,) = node.ctx
    x64 = _f64(node.kept[0])
    du = x64 * x64
    du *= 3.0 * _GELU_C
    du += 1.0
    du *= _GELU_K
    x64 *= 0.5
    tmp = np.multiply(th, th)
    np.subtract(1.0, tmp, out=tmp)
    x64 *= tmp
    x64 *= du
    np.add(th, 1.0, out=tmp)
    tmp *= 0.5
    tmp += x64
    tmp *= g
    return (tmp,)


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


def _vjp_attention(node, g):
    (s,) = node.ctx
    heads = int(node.attrs["heads"])
    q64, k64, v64 = np.ascontiguousarray(_split_heads(node.kept[0], 3, heads), dtype=np.float64)
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


def _vjp_patchify(node, g):
    ps = int(node.attrs["patch_size"])
    *lead, h, w, c = node.shapes[0]
    n = len(lead)
    gh, gw = h // ps, w // ps
    grid = g.reshape(*lead, gh, gw, ps, ps, c).transpose(*range(n), n, n + 2, n + 1, n + 3, n + 4)
    return (np.ascontiguousarray(grid.reshape(*lead, h, w, c)),)


def _fwd_mean_pool(attrs, arrays):
    """Mean over rows r0..r1-1 of the second-to-last axis; one row is read out exactly."""
    (x,) = arrays
    r0, r1 = attrs["rows"]
    if x.ndim < 2 or not 0 <= r0 < r1 <= x.shape[-2]:
        raise ShapeError(f"mean_pool: rows=({r0},{r1}) invalid for input {x.shape}")
    out = np.add.reduce(_f64(x[..., r0:r1, :]), -2, keepdims=True) / (r1 - r0)
    return out.astype(np.float32), ()


def _vjp_mean_pool(node, g):
    r0, r1 = node.attrs["rows"]
    gx = np.zeros(node.shapes[0], dtype=np.float64)
    gx[..., r0:r1, :] = g / (r1 - r0)
    return (gx,)


def _fwd_concat(attrs, arrays):
    """Join along the second-to-last axis; 2-d inputs are shared across the batch."""
    lead = max((a.shape[:-2] for a in arrays), key=len, default=())
    if (any(a.ndim < 2 or a.shape[:-2] not in ((), lead) for a in arrays)
            or len({a.shape[-1] for a in arrays}) != 1):
        raise ShapeError(f"concat: incompatible dims {[a.shape for a in arrays]}")
    parts = [np.broadcast_to(a, lead + a.shape[-2:]) for a in arrays]
    return np.concatenate(parts, axis=-2), ()


def _vjp_concat(node, g):
    out = []
    start = 0
    for shape, needed in zip(node.shapes, node.need):
        size = shape[-2]
        out.append(_sum_to(g[..., start:start + size, :], shape) if needed else None)
        start += size
    return tuple(out)


_PRIMITIVES = {
    "linear": (_fwd_linear, _vjp_linear),
    "add": (_fwd_add, _vjp_add),
    "layer_norm": (_fwd_layer_norm, _vjp_layer_norm),
    "gelu": (_fwd_gelu, _vjp_gelu),
    "attention": (_fwd_attention, _vjp_attention),
    "patchify": (_fwd_patchify, _vjp_patchify),
    "mean_pool": (_fwd_mean_pool, _vjp_mean_pool),
    "concat": (_fwd_concat, _vjp_concat),
}
_READ_BY = {
    "linear": (1, 0, None),      # gw reads x, gx reads w
    "layer_norm": (None, 0, None),
    "gelu": (0,),
    "attention": (0,),
}
