"""Top-k principal components of an embedding set, for projection plots.

Fitted via SVD of the mean-centered data matrix.  Component signs follow a
fixed convention (largest-magnitude entry positive) so refits on identical
data reproduce bit-identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError


class ReducedRankError(ValueError):
    """Data rank below the requested component count; message reports the rank."""


@dataclass
class PCABasis:
    mean: np.ndarray                # (d,)
    components: np.ndarray          # (k, d), orthonormal rows
    explained_variance: np.ndarray  # (k,), non-increasing


def _as_matrix(embeddings) -> np.ndarray:
    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    lengths = {r.shape for r in rows}
    if len(lengths) != 1 or rows[0].ndim != 1:
        raise ShapeError(f"fit_pca: embeddings must share one 1-d length, got {lengths}")
    return np.stack(rows)


def fit_pca(embeddings, k: int = 6) -> PCABasis:
    """Fit the top-k components of a set of embeddings (needs > k samples)."""
    x = _as_matrix(embeddings)
    n, d = x.shape
    if n < k + 1:
        raise ValueError(f"fit_pca: need at least {k + 1} embeddings, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, d) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    if rank < k:
        raise ReducedRankError(f"data rank {rank} below requested {k} components")
    components = vt[:k].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PCABasis(mean=mean, components=components,
                    explained_variance=(s[:k] ** 2) / (n - 1))


def project(e, basis: PCABasis) -> np.ndarray:
    """Coordinates of one embedding in the fitted component basis."""
    v = np.asarray(e, dtype=np.float64)
    if v.shape != basis.mean.shape:
        raise ShapeError(f"project: length {v.shape} vs basis {basis.mean.shape}")
    return (v - basis.mean) @ basis.components.T
