"""Complex linear-algebra kernel shared by the rest of the package.

Everything here is a thin, convention-fixing layer over numpy.linalg:
unitary FFT/IFFT, Hermitian eigendecomposition with deterministic
ordering and phase, SVD, and the Moore-Penrose pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

CVec = NDArray[np.complex128]
CMat = NDArray[np.complex128]

DEFAULT_RCOND = 1e-12


def _as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    if not np.isfinite(out).all():
        raise ValueError("non-finite entries in input")
    return out


def _check_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"length must be a power of two, got {n}")


def fft(x: CVec) -> CVec:
    """Unitary forward DFT (1/sqrt(N) normalization)."""
    x = _as_complex(x)
    _check_pow2(x.shape[-1])
    return np.fft.fft(x, axis=-1) / np.sqrt(x.shape[-1])


def ifft(x: CVec) -> CVec:
    """Unitary inverse DFT; exact inverse of :func:`fft`."""
    x = _as_complex(x)
    _check_pow2(x.shape[-1])
    return np.fft.ifft(x, axis=-1) * np.sqrt(x.shape[-1])


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues sorted descending; vectors[:, i] pairs with values[i]."""

    values: NDArray[np.float64]
    vectors: CMat


@dataclass(frozen=True)
class SvdResult:
    """A = u @ diag(sigma) @ q.conj().T with sigma sorted descending."""

    u: CMat
    sigma: NDArray[np.float64]
    q: CMat


def _phase_normalize(vectors: CMat) -> CMat:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    idx = np.argmax(np.abs(out), axis=0)
    for j in range(out.shape[1]):
        pivot = out[idx[j], j]
        if np.abs(pivot) > 0:
            out[:, j] *= np.conj(pivot) / np.abs(pivot)
    return out


def herm_eig(a: CMat) -> EigResult:
    """Eigendecomposition of a Hermitian matrix, descending eigenvalues.

    The input is symmetrized as (A + A*)/2 so callers may pass sample
    covariances with round-off asymmetry.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got {a.shape}")
    a = (a + a.conj().T) / 2
    values, vectors = np.linalg.eigh(a)
    order = np.arange(len(values))[::-1]  # eigh is ascending; stable reverse
    return EigResult(values[order].real, _phase_normalize(vectors[:, order]))


def svd(a: CMat) -> SvdResult:
    """Full SVD of a matrix, or of each matrix of a stack (..., m, n)."""
    a = _as_complex(a)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return SvdResult(u, s, np.swapaxes(vh.conj(), -1, -2))


def pinv(a: CMat, rcond: float = DEFAULT_RCOND) -> CMat:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff, of a
    matrix or of each matrix of a stack (..., m, n); np.linalg.pinv's
    arithmetic step for step (same bits), less overhead."""
    a = _as_complex(a)
    if not 0 < rcond < 1:
        raise ValueError(f"rcond must be in (0, 1), got {rcond}")
    u, s, vt = np.linalg.svd(a.conjugate(), full_matrices=False)
    large = s > rcond * s.max(axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return np.swapaxes(vt, -1, -2) @ (s[..., None] * np.swapaxes(u, -1, -2))
