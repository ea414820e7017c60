"""Multipath channel generation and fast circulant application with AWGN.

The channel is circulant (cyclic prefix removed), so applying it is a
per-tone multiplication in the frequency domain: y = F* (lambda ⊙ F x) + n.
A channel is its per-tone response lambda, (n_rx, N) with one row per
receive branch: lambda = sqrt(N) * fft(taps), so H = F* diag(lambda) F.
"""

from __future__ import annotations

import re

import numpy as np

from .numerics import CVec, CMat, fft, ifft


def tap_weights(n_taps: int, profile: str, n: int) -> np.ndarray:
    """Mean power of each of n_taps taps (at most n), summing to 1, for
    profile "uniform", "exp_decay" (tau = 3) or "exp_decay(tau)"."""
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps must be in [1, {n}], got {n_taps}")
    if profile == "uniform":
        w = np.ones(n_taps)
    else:
        decay = re.fullmatch(r"exp_decay(?:\((.*)\))?", profile)
        try:
            tau = 3.0 if decay[1] is None else float(decay[1])
        except (TypeError, ValueError):  # no match, or no number in the ()
            tau = np.nan
        if not 0 < tau < np.inf:
            raise ValueError(f"channel_profile: {profile!r} is not uniform, "
                             f"exp_decay or exp_decay(tau), tau finite > 0")
        w = np.exp(-np.arange(n_taps) / tau)
    return w / w.sum()


def from_taps(taps: np.ndarray, n: int) -> CMat:
    """The response lambda (n_rx, N) of taps (n_rx, L), or (L,) for one
    branch, with L <= n."""
    taps = np.atleast_2d(np.asarray(taps, dtype=np.complex128))
    padded = np.zeros((taps.shape[0], n), dtype=np.complex128)
    padded[:, :taps.shape[1]] = taps
    return np.sqrt(n) * fft(padded)


def gen_channel(n_taps: int, profile: str, seed: int, n_rx: int = 1,
                n: int = 64) -> CMat:
    """The response lambda (n_rx, N) of random taps shaped by profile,
    normalized so E|lambda_k|^2 = 1."""
    w = tap_weights(n_taps, profile, n)
    rng = np.random.default_rng(seed)
    taps = np.sqrt(w / 2) * (rng.standard_normal((n_rx, n_taps))
                             + 1j * rng.standard_normal((n_rx, n_taps)))
    return from_taps(taps, n)


def apply_channel(lam: CMat, x: CVec, snr_db: float,
                  rng: np.random.Generator) -> CMat:
    """y_b = H_b x + n_b per receive branch of the channel lam (n_rx, N);
    returns shape (..., n_rx, N).

    x is one length-N symbol or a block of them along leading axes.  Noise
    power is 10^(-snr_db/10) per complex sample, referenced to the unit
    nominal signal power (channels are normalized to unit mean tone gain).
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1:] != lam.shape[-1:]:
        raise ValueError(f"x length {x.shape} != N={lam.shape[-1]}")
    return add_awgn(ifft(lam * fft(x)[..., None, :]), snr_db, rng)


def awgn(shape: tuple, snr_db: float,
         rng: np.random.Generator) -> CMat | None:
    """AWGN of shape (..., n_rx, N) and power 10^(-snr_db/10) per complex
    sample drawn from rng, or None when snr_db is inf: adding zeros would
    turn -0.0 into 0.0.

    Per symbol the real parts are drawn first, then the imaginary parts,
    so a block of symbols consumes rng as the symbols one by one would.
    """
    if snr_db == np.inf:
        return None
    sigma = np.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    g = rng.standard_normal(shape[:-2] + (2,) + shape[-2:])
    return sigma * (g[..., 0, :, :] + 1j * g[..., 1, :, :])


def add_awgn(y: CMat, snr_db: float, rng: np.random.Generator) -> CMat:
    """y (..., n_rx, N) plus awgn(y.shape, snr_db, rng)."""
    n = awgn(y.shape, snr_db, rng)
    return y if n is None else y + n
