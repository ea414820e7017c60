"""Compensation bases, each an (N, d) matrix with columns ordered by
importance: KL (covariance eigenvectors), DFT and DCT columns."""

from __future__ import annotations

import numpy as np

from .numerics import CMat, herm_eig


def _check_d(n: int, d: int) -> None:
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")


def kl_basis(r: CMat, d: int) -> CMat:
    """Top-d eigenvectors of the phase-noise covariance r, by eigenvalue."""
    _check_d(r.shape[0], d)
    _, vectors = herm_eig(r)
    return vectors[:, :d].copy()


def dft_low_freq_order(n: int) -> list[int]:
    """Tone indices by increasing absolute frequency: 0, 1, n-1, 2, n-2, ..."""
    order = [0]
    for i in range(1, n // 2 + 1):
        order.append(i)
        if n - i != i:
            order.append(n - i)
    return order[:n]


def dft_basis(n: int, d: int) -> CMat:
    """Low-frequency complex exponential columns; column 0 is 1/sqrt(n)."""
    _check_d(n, d)
    cols = dft_low_freq_order(n)[:d]
    m = np.arange(n)
    return np.stack([np.exp(2j * np.pi * k * m / n) / np.sqrt(n)
                     for k in cols], axis=1)


def dct_basis(n: int, d: int) -> CMat:
    """Orthonormal type-II DCT columns 0..d-1 (real, stored as complex)."""
    _check_d(n, d)
    m = np.arange(n)
    v = np.empty((n, d))
    for k in range(d):
        c = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        v[:, k] = c * np.cos(np.pi * (m + 0.5) * k / n)
    return v.astype(np.complex128)
