"""Quantitative measures: PSNR, SSIM, cosine similarity, attack aggregates.

Images are floats in [0, 1], so PSNR and SSIM take a dynamic range of 1.0.  PSNR
returns +inf for identical inputs; infinite values are excluded from dataset means (the
exclusion count is reported).  SSIM follows the canonical definition: 11x11 Gaussian window
with sigma 1.5, K1=0.01, K2=0.03, valid windows only, channels averaged.  The window
is an outer product of 1-D Gaussians, so two banded matmuls (rows @ map @ cols.T) take
every window mean of the maps x, y, x*x, y*y, x*y of all channels at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, ShapeError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; +inf sentinel for identical images."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"psnr: dims {a.shape} vs {b.shape}")
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _window_matrix(n: int) -> np.ndarray:
    """Banded (n - 10, n) matrix whose row i holds the 1-D Gaussian weights of window i."""
    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(r**2) / (2.0 * SSIM_SIGMA**2))
    starts = np.arange(n - SSIM_WINDOW + 1)[:, None]
    band = np.zeros((len(starts), n))
    band[starts, starts + np.arange(SSIM_WINDOW)] = g / g.sum()
    return band


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity over valid Gaussian windows, in [-1, 1]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"ssim: dims {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[:, :, None], b[:, :, None]
    if a.ndim != 3:
        raise ShapeError(f"ssim: expected (H, W, C) images, got {a.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ContractError(
            f"ssim: image {a.shape[:2]} smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    x, y = (np.moveaxis(v, 2, 0).astype(np.float64) for v in (a, b))  # (C, H, W)
    stack = np.stack([x, y, x * x, y * y, x * y])
    mx, my, mxx, myy, mxy = _window_matrix(a.shape[0]) @ stack @ _window_matrix(a.shape[1]).T
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    num = (2 * mx * my + c1) * (2 * cxy + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(np.mean(num / den, axis=(1, 2))))


def cosine(u, v) -> float:
    """Normalized dot product of two embedding vectors, in [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ShapeError(f"cosine: lengths {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ContractError("cosine: zero vector")
    # rounding can carry the quotient past +-1 (cosine(e, e) came out 1 + 2.2e-16)
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


@dataclass
class MetricsReport:
    clean_accuracy: float
    attacked_accuracy: float
    accuracy_drop: float
    msr: float
    mean_psnr_original: float
    std_psnr_original: float
    mean_psnr_target: float
    std_psnr_target: float
    psnr_excluded: int
    mean_ssim_original: float
    std_ssim_original: float
    mean_ssim_target: float
    std_ssim_target: float
    mean_cosine_original: float
    mean_cosine_target: float
    n_records: int

    def to_dict(self) -> dict:
        """The fields by name, each non-finite float as None, so the dict is strict JSON."""
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in self.__dict__.items()}


@dataclass
class RecordMetrics:
    source_id: str
    target_id: str
    psnr_original: float
    psnr_target: float
    ssim_original: float
    ssim_target: float
    cosine_original: float
    cosine_target: float
    label_after: int


def per_record_metrics(records, *, items_by_id, clean, optimized) -> list[RecordMetrics]:
    """Image quality and embedding similarity per attack record; runs no forward pass.

    ``clean`` maps image ids to embedding rows; ``optimized`` rows follow the records.
    """
    return [RecordMetrics(
        source_id=r.source_id,
        target_id=r.target_id,
        psnr_original=psnr(items_by_id[r.source_id].image, r.image),
        psnr_target=psnr(items_by_id[r.target_id].image, r.image),
        ssim_original=ssim(items_by_id[r.source_id].image, r.image),
        ssim_target=ssim(items_by_id[r.target_id].image, r.image),
        cosine_original=cosine(e, clean[r.source_id]),
        cosine_target=cosine(e, clean[r.target_id]),
        label_after=r.label_after,
    ) for r, e in zip(records, optimized)]


def _mean_std_excluding_inf(values):
    finite = [v for v in values if math.isfinite(v)]
    excluded = len(values) - len(finite)
    if not finite:
        return math.nan, math.nan, excluded
    arr = np.asarray(finite, dtype=np.float64)
    return float(arr.mean()), float(arr.std()), excluded


def aggregate(records, rows, clean_accuracy: float) -> MetricsReport:
    """Dataset-level report over attack records and their per_record_metrics rows.

    Image quality and embedding similarities come from the rows; label-based
    rates come from the records themselves.  attacked_accuracy is measured
    over the attacked subset (the records), not the full test split.
    """
    if not records or len(rows) != len(records):
        raise ValueError(f"need one metrics row per record, got {len(rows)} for {len(records)}")
    col = {f: [getattr(m, f) for m in rows] for f in RecordMetrics.__dataclass_fields__}
    attacked = sum(int(r.label_after == r.label_source_true) for r in records) / len(records)
    msr = sum(int(r.label_after == r.label_target_true) for r in records) / len(records)
    mpo, spo, excl_o = _mean_std_excluding_inf(col["psnr_original"])
    mpt, spt, excl_t = _mean_std_excluding_inf(col["psnr_target"])
    return MetricsReport(
        clean_accuracy=float(clean_accuracy),
        attacked_accuracy=attacked,
        accuracy_drop=float(clean_accuracy) - attacked,
        msr=msr,
        mean_psnr_original=mpo,
        std_psnr_original=spo,
        mean_psnr_target=mpt,
        std_psnr_target=spt,
        psnr_excluded=excl_o + excl_t,
        mean_ssim_original=float(np.mean(col["ssim_original"])),
        std_ssim_original=float(np.std(col["ssim_original"])),
        mean_ssim_target=float(np.mean(col["ssim_target"])),
        std_ssim_target=float(np.std(col["ssim_target"])),
        mean_cosine_original=float(np.mean(col["cosine_original"])),
        mean_cosine_target=float(np.mean(col["cosine_target"])),
        n_records=len(records),
    )
