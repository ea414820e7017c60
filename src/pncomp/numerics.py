"""Complex linear-algebra kernel shared by the rest of the package.

Everything here is a thin, convention-fixing layer over numpy:
unitary FFT/IFFT, Hermitian eigendecomposition with deterministic
ordering and phase, SVD, and the Moore-Penrose pseudoinverse.
Inputs are not scanned for NaN or inf, nor for shapes numpy rejects
itself: bad values are rejected where they enter the program, in
harness.Scenario and phase_noise.load_pn_samples.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

CVec = NDArray[np.complex128]
CMat = NDArray[np.complex128]

DEFAULT_RCOND = 1e-12


def fft(x: CVec) -> CVec:
    """Unitary forward DFT (1/sqrt(N) normalization) along the last axis."""
    return np.fft.fft(x, norm="ortho")


def ifft(x: CVec) -> CVec:
    """Unitary inverse DFT; exact inverse of :func:`fft`."""
    return np.fft.ifft(x, norm="ortho")


def _phase_normalize(vectors: CMat) -> CMat:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    idx = np.argmax(np.abs(out), axis=0)
    for j in range(out.shape[1]):
        pivot = out[idx[j], j]
        if np.abs(pivot) > 0:
            out[:, j] *= np.conj(pivot) / np.abs(pivot)
    return out


def herm_eig(a: CMat) -> tuple[NDArray[np.float64], CMat]:
    """Eigendecomposition (values, vectors) of a Hermitian matrix: values
    sorted descending, vectors[:, i] pairs with values[i].

    The input is symmetrized as (A + A*)/2 so callers may pass sample
    covariances with round-off asymmetry.
    """
    a = np.asarray(a, dtype=np.complex128)
    a = (a + a.conj().T) / 2
    values, vectors = np.linalg.eigh(a)
    order = np.arange(len(values))[::-1]  # eigh is ascending; stable reverse
    return values[order].real, _phase_normalize(vectors[:, order])


def svd(a: CMat) -> tuple[CMat, NDArray[np.float64], CMat]:
    """Reduced SVD (u, sigma, q) of a matrix, or of each matrix of a stack
    (..., m, n): A = u @ diag(sigma) @ q.conj().T with sigma descending,
    u (..., m, k) and q (..., n, k) with k = min(m, n)."""
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=np.complex128),
                             full_matrices=False)
    return u, s, vh.conj().swapaxes(-1, -2)


def pinv(a: CMat) -> CMat:
    """Moore-Penrose pseudoinverse with relative singular-value cutoff
    DEFAULT_RCOND, of a matrix or of each matrix of a stack (..., m, n)."""
    return np.linalg.pinv(a, rcond=DEFAULT_RCOND)
