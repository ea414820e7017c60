"""Plain reference implementations the tests check pncomp against.

None of these has a caller in the package: each is the textbook form of
something pncomp computes another way (the dense DFT matrix for the FFT,
the implied TLS perturbation for the fit, one-shot phase noise and
modulation for the block simulation).
"""

import numpy as np

from pncomp.numerics import CMat, CVec, fft, ifft
from pncomp.ofdm import FreqSymbol, ToneLayout
from pncomp.phase_noise import PhaseNoiseRealization, PnGenerator, PnModel


def dft_matrix(n: int) -> CMat:
    """Dense unitary DFT matrix; F @ x == fft(x)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def tls_implied_perturbation(w_rows: CMat, s_rows: CVec, gamma: CVec) -> CMat:
    """Minimal [dW, ds] with (W+dW)gamma = s+ds; rank one in the residual."""
    r = w_rows @ gamma - s_rows
    g = np.concatenate([gamma, [-1.0 + 0j]])
    return -np.outer(r, g.conj()) / (np.linalg.norm(g) ** 2)


def gen_pn(model: PnModel, n: int) -> PhaseNoiseRealization:
    """One-shot realization; deterministic given model.seed."""
    return PnGenerator(model).next(n)


def modulate(sym: FreqSymbol) -> CVec:
    """Time-domain symbol x = F* s (unitary inverse DFT)."""
    return ifft(sym.s)


def demodulate(x: CVec, layout: ToneLayout) -> FreqSymbol:
    return FreqSymbol(s=fft(x), layout=layout)
