"""Compensation bases: KL (covariance eigenvectors), DFT and DCT columns."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .numerics import CMat, herm_eig
from .phase_noise import PnCovariance


@dataclass(frozen=True)
class CompBasis:
    """N x d basis matrix, columns ordered by importance."""

    v: CMat
    kind: str

    @property
    def d(self) -> int:
        return self.v.shape[1]

    @property
    def n(self) -> int:
        return self.v.shape[0]


def _check_d(n: int, d: int) -> None:
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")


def kl_basis(cov: PnCovariance, d: int) -> CompBasis:
    """Top-d eigenvectors of the phase-noise covariance, by eigenvalue."""
    n = cov.r.shape[0]
    _check_d(n, d)
    eig = herm_eig(cov.r)
    return CompBasis(v=eig.vectors[:, :d].copy(), kind="KL")


def dft_low_freq_order(n: int) -> list[int]:
    """Tone indices by increasing absolute frequency: 0, 1, n-1, 2, n-2, ..."""
    order = [0]
    for i in range(1, n // 2 + 1):
        order.append(i)
        if n - i != i:
            order.append(n - i)
    return order[:n]


def dft_basis(n: int, d: int) -> CompBasis:
    """Low-frequency complex exponential columns; column 0 is 1/sqrt(n)."""
    _check_d(n, d)
    cols = dft_low_freq_order(n)[:d]
    m = np.arange(n)
    v = np.stack([np.exp(2j * np.pi * k * m / n) / np.sqrt(n) for k in cols],
                 axis=1)
    return CompBasis(v=v, kind="DFT")


def dct_basis(n: int, d: int) -> CompBasis:
    """Orthonormal type-II DCT columns 0..d-1 (real, stored as complex)."""
    _check_d(n, d)
    m = np.arange(n)
    v = np.empty((n, d))
    for k in range(d):
        c = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        v[:, k] = c * np.cos(np.pi * (m + 0.5) * k / n)
    return CompBasis(v=v.astype(np.complex128), kind="DCT")


def export_basis_csv(basis: CompBasis, path) -> None:
    """N rows, 2d columns: re/im pairs per basis column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for j in range(basis.d):
            header += [f"v{j}_re", f"v{j}_im"]
        writer.writerow(header)
        for row in basis.v:
            out = []
            for val in row:
                out += [f"{val.real:.18e}", f"{val.imag:.18e}"]
            writer.writerow(out)
