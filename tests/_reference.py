"""Test oracles; only the tests use them, so they live outside the library.

An independent float64 re-implementation of the network, which shares no
code with embedmatch.model: a straight-line numpy forward pass kept in 64-bit
end to end, so finite-difference gradient checks are not limited by float32
storage noise.  Beside it: the predicted label of the library's own forward
pass, a central-difference gradient, one-image-at-a-time recomputes of the
match success rate and of the per-record metrics, SSIM by its direct 121-tap
2-D window, the detector's noisy copies, the float32 primitive formulas
written with numpy's mean and var, and the analytic size of a weight file.
"""

import numpy as np

from embedmatch.metrics import per_record_metrics
from embedmatch.model import embed, expected_shapes, outputs
from embedmatch.weights_io import _HPARAM_FIELDS, HPARAMS_NAME

LN_EPS = 1e-6
GELU_C = 0.044715
GELU_K = np.sqrt(2.0 / np.pi)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(GELU_K * (x + GELU_C * x**3)))


def attention_per_head32(qkv, heads):
    """Multi-head self-attention over float32 (T, 3d) rows, one head at a time.

    Each step rounds to float32 where a graph of separate nodes would store
    it: the scores, the scores times float32 1/sqrt(dh), the probabilities
    and their product with the values.
    """
    qkv = np.asarray(qkv, np.float32)
    d = qkv.shape[-1] // 3
    dh = d // heads
    outs = []
    for j in range(heads):
        q, k, v = (qkv[:, p * d + j * dh:p * d + (j + 1) * dh].astype(np.float64)
                   for p in range(3))
        scores = (q @ k.T).astype(np.float32) * np.float32(1.0 / np.sqrt(dh))
        probs = _softmax_rows(scores.astype(np.float64)).astype(np.float32)
        outs.append((probs.astype(np.float64) @ v).astype(np.float32))
    return np.hstack(outs)


def reference_embedding(image, weights, kind):
    """Float64 embedding of an image under the chosen head."""
    cfg = weights.config
    t = {k: v.astype(np.float64) for k, v in weights.tensors.items()}
    ps, c = cfg.patch_size, cfg.channels
    g = cfg.image_size // ps
    x = np.asarray(image, dtype=np.float64)
    patches = x.reshape(g, ps, g, ps, c).transpose(0, 2, 1, 3, 4).reshape(g * g, ps * ps * c)
    tokens = np.vstack([t["cls_token"], patches @ t["patch_proj.w"] + t["patch_proj.b"]])
    tokens = tokens + t["pos_embed"]
    d, dh = cfg.embed_dim, cfg.embed_dim // cfg.num_heads
    for i in range(cfg.depth):
        p = f"block{i}."
        h = _layer_norm(tokens, t[p + "attn_norm.g"], t[p + "attn_norm.b"])
        qkv = h @ t[p + "attn.qkv_w"] + t[p + "attn.qkv_b"]
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        heads = []
        for j in range(cfg.num_heads):
            sl = slice(j * dh, (j + 1) * dh)
            attn = _softmax_rows(q[:, sl] @ k[:, sl].T / np.sqrt(dh))
            heads.append(attn @ v[:, sl])
        tokens = tokens + np.hstack(heads) @ t[p + "attn.out_w"] + t[p + "attn.out_b"]
        h = _layer_norm(tokens, t[p + "mlp_norm.g"], t[p + "mlp_norm.b"])
        tokens = tokens + _gelu(h @ t[p + "mlp.fc1_w"] + t[p + "mlp.fc1_b"]) @ t[p + "mlp.fc2_w"] + t[p + "mlp.fc2_b"]
    tokens = _layer_norm(tokens, t["final_norm.g"], t["final_norm.b"])
    return tokens[0] if kind == "class_token" else tokens[1:].mean(axis=0)


def reference_matching_loss(image, target_values, weights, kind):
    """Float64 value of the embedding-matching loss."""
    diff = reference_embedding(image, weights, kind) - np.asarray(target_values, np.float64)
    return 0.5 * float(diff @ diff)


def reference_logits(image, weights, kind):
    e = reference_embedding(image, weights, kind)
    t = weights.tensors
    return e @ t[f"head.{kind}.w"].astype(np.float64) + t[f"head.{kind}.b"].astype(np.float64)


def predict(images, weights, kind: str):
    """Predicted class label (an int, or an int array for a stack); ties go to the lowest index."""
    labels = np.argmax(outputs(images, weights)[f"logits.{kind}"], axis=-1)
    return int(labels) if labels.ndim == 0 else labels


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


def match_success_rate(records, weights, kind: str) -> float:
    """Fraction of optimized images classified as the target's true label.

    Recomputes every prediction from the stored image, one image at a time;
    independent of the labels cached on the records.
    """
    if not records:
        raise ValueError("no records")
    hits = sum(int(predict(r.image, weights, kind) == r.label_target_true) for r in records)
    return hits / len(records)


def record_metrics(records, by_id, weights, kind: str):
    """per_record_metrics over embeddings computed one image at a time with embed."""
    clean = {i: embed(by_id[i].image, weights, kind).values
             for r in records for i in (r.source_id, r.target_id)}
    optimized = [embed(r.image, weights, kind).values for r in records]
    return per_record_metrics(records, items_by_id=by_id, clean=clean, optimized=optimized)


def reference_ssim(a, b, peak=1.0, size=11, sigma=1.5):
    """SSIM as one 2-D Gaussian window of size x size taps slid over each channel."""
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * sigma**2))
    kernel = np.outer(g, g) / np.outer(g, g).sum()
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2

    def windowed_mean(x):
        windows = np.lib.stride_tricks.sliding_window_view(x, (size, size))
        return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))

    values = []
    for ch in range(a.shape[2]):
        x, y = a[:, :, ch], b[:, :, ch]
        mx, my = windowed_mean(x), windowed_mean(y)
        vx = windowed_mean(x * x) - mx * mx
        vy = windowed_mean(y * y) - my * my
        cxy = windowed_mean(x * y) - mx * my
        num = (2 * mx * my + c1) * (2 * cxy + c2)
        den = (mx * mx + my * my + c1) * (vx + vy + c2)
        values.append(float(np.mean(num / den)))
    return float(np.mean(values))


def noisy_copies(images, seeds, sigma, draws):
    """The detector's noisy copies, each image's draws from its own seeded stream, as float64."""
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(s)))) for s in seeds]
    return np.stack([np.clip(image + rng.normal(0.0, sigma, image.shape), 0.0, 1.0)
                     for image, rng in zip(images, rngs) for _ in range(draws)])


def layer_norm_numpy(x, gain, bias, g):
    """layer_norm's float32 value and float64 VJP (x, gain, bias) through numpy's mean and var."""
    n = x.shape[-1]
    x64 = x.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x64 - mu) * inv
    out = (xhat * gain.astype(np.float64) + bias.astype(np.float64)).astype(np.float32)
    dxhat = g * gain.astype(np.float64)
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (dxhat - m1 - xhat * m2)
    return out, (gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))


def mean_pool_numpy(x, rows):
    """mean_pool's float32 value through numpy's mean."""
    r0, r1 = rows
    return x[..., r0:r1, :].astype(np.float64).mean(axis=-2, keepdims=True).astype(np.float32)


def file_size(config) -> int:
    """Analytic byte size of a saved weight file for this config."""
    total = 4 + 4 + 4
    entries = [(HPARAMS_NAME, (len(_HPARAM_FIELDS),))]
    entries.extend(expected_shapes(config).items())
    for name, shape in entries:
        total += 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape)
        total += 4 * int(np.prod(shape, dtype=np.int64))
    return total
