"""Complex linear-algebra kernel shared by the rest of the package.

Everything here is a thin, convention-fixing layer over numpy.linalg:
unitary FFT/IFFT, Hermitian eigendecomposition with deterministic
ordering and phase, SVD, and the Moore-Penrose pseudoinverse.
Inputs are not scanned for NaN or inf: non-finite values are rejected
where they enter the program, in harness.Scenario and
phase_noise.load_pn_samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

CVec = NDArray[np.complex128]
CMat = NDArray[np.complex128]

DEFAULT_RCOND = 1e-12
# sqrt(n), the unitary FFT scale, of every power-of-two length n
_ROOT_N = {1 << k: np.sqrt(1 << k) for k in range(63)}


def _root_n(n: int) -> float:
    if n not in _ROOT_N:
        raise ValueError(f"length must be a power of two, got {n}")
    return _ROOT_N[n]


def fft(x: CVec) -> CVec:
    """Unitary forward DFT (1/sqrt(N) normalization)."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.fft.fft(x)
    y /= _root_n(x.shape[-1])
    return y


def ifft(x: CVec) -> CVec:
    """Unitary inverse DFT; exact inverse of :func:`fft`."""
    x = np.asarray(x, dtype=np.complex128)
    y = np.fft.ifft(x)
    y *= _root_n(x.shape[-1])
    return y


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
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got {a.shape}")
    a = (a + a.conj().T) / 2
    values, vectors = np.linalg.eigh(a)
    order = np.arange(len(values))[::-1]  # eigh is ascending; stable reverse
    return EigResult(values[order].real, _phase_normalize(vectors[:, order]))


def svd(a: CMat) -> SvdResult:
    """Reduced SVD of a matrix, or of each matrix of a stack (..., m, n):
    u is (..., m, k) and q (..., n, k) with k = min(m, n)."""
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=np.complex128),
                             full_matrices=False)
    return SvdResult(u, s, vh.conj().swapaxes(-1, -2))


def pinv(a: CMat) -> CMat:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff
    DEFAULT_RCOND, of a matrix or of each matrix of a stack (..., m, n);
    np.linalg.pinv's arithmetic step for step (same bits), less overhead."""
    a = np.asarray(a, dtype=np.complex128)
    u, s, vt = np.linalg.svd(a.conjugate(), full_matrices=False)
    large = s > DEFAULT_RCOND * s.max(axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=np.zeros(s.shape))
    return vt.swapaxes(-1, -2) @ (s[..., None] * u.swapaxes(-1, -2))
