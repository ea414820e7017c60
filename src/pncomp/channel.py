"""Multipath channel generation and fast circulant application with AWGN.

The channel is circulant (cyclic prefix removed), so applying it is a
per-tone multiplication in the frequency domain: y = F* (lambda ⊙ F x) + n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import CVec, CMat, fft, ifft


@dataclass(frozen=True)
class ChannelState:
    """Per-branch taps (n_rx, N) and per-tone response lambda (n_rx, N).

    lambda = sqrt(N) * fft(taps), consistent with H = F* diag(lambda) F.
    """

    taps: CMat
    lam: CMat

    @property
    def n_rx(self) -> int:
        return self.taps.shape[0]

    @property
    def n(self) -> int:
        return self.taps.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN level relative to unit nominal per-sample signal power."""

    snr_db: float

    def __post_init__(self):
        if not (np.isfinite(self.snr_db) or self.snr_db == np.inf):
            raise ValueError("snr_db must be finite or +inf")
        if self.snr_db != np.inf:
            try:
                self.power
            except OverflowError:
                raise ValueError(f"snr_db = {self.snr_db} gives a noise "
                                 f"power beyond the float range") from None

    @property
    def power(self) -> float:
        """Noise power per complex sample, 10^(-snr/10)."""
        return 10.0 ** (-self.snr_db / 10.0)


def tap_weights(n_taps: int, profile: str, n: int) -> np.ndarray:
    """Mean power of each of n_taps taps (at most n), summing to 1."""
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps must be in [1, {n}], got {n_taps}")
    if profile == "uniform":
        w = np.ones(n_taps)
    elif profile.startswith("exp_decay"):
        tau = 3.0
        if "(" in profile:
            tau = float(profile[profile.index("(") + 1:profile.rindex(")")])
        if not tau > 0:
            raise ValueError(f"exp_decay needs tau > 0, got {tau}")
        w = np.exp(-np.arange(n_taps) / tau)
    else:
        raise ValueError(f"unknown channel profile {profile!r}")
    return w / w.sum()


def from_taps(taps: np.ndarray, n: int) -> ChannelState:
    taps = np.atleast_2d(np.asarray(taps, dtype=np.complex128))
    if taps.shape[1] > n:
        raise ValueError(f"more taps than tones ({taps.shape[1]} > {n})")
    padded = np.zeros((taps.shape[0], n), dtype=np.complex128)
    padded[:, :taps.shape[1]] = taps
    lam = np.sqrt(n) * fft(padded)
    return ChannelState(taps=padded, lam=lam)


def gen_channel(n_taps: int, profile: str, seed: int, n_rx: int = 1,
                n: int = 64) -> ChannelState:
    """Random taps shaped by profile, normalized so E|lambda_k|^2 = 1."""
    w = tap_weights(n_taps, profile, n)
    rng = np.random.default_rng(seed)
    taps = np.sqrt(w / 2) * (rng.standard_normal((n_rx, n_taps))
                             + 1j * rng.standard_normal((n_rx, n_taps)))
    return from_taps(taps, n)


def apply_channel(ch: ChannelState, x: CVec, noise: NoiseSpec,
                  rng: np.random.Generator) -> CMat:
    """y_b = H_b x + n_b per receive branch; returns shape (..., n_rx, N).

    x is one length-N symbol or a block of them along leading axes.  Noise
    power is 10^(-snr/10) per complex sample, referenced to the unit
    nominal signal power (channels are normalized to unit mean tone gain).
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1:] != (ch.n,):
        raise ValueError(f"x length {x.shape} != N={ch.n}")
    return add_awgn(ifft(ch.lam * fft(x)[..., None, :]), noise, rng)


def awgn(shape: tuple, noise: NoiseSpec,
         rng: np.random.Generator) -> CMat | None:
    """AWGN of shape (..., n_rx, N) drawn from rng, or None when snr_db is
    inf: adding zeros would turn -0.0 into 0.0.

    Per symbol the real parts are drawn first, then the imaginary parts,
    so a block of symbols consumes rng as the symbols one by one would.
    """
    if noise.snr_db == np.inf:
        return None
    sigma = np.sqrt(noise.power / 2.0)
    g = rng.standard_normal(shape[:-2] + (2,) + shape[-2:])
    return sigma * (g[..., 0, :, :] + 1j * g[..., 1, :, :])


def add_awgn(y: CMat, noise: NoiseSpec, rng: np.random.Generator) -> CMat:
    """y (..., n_rx, N) plus awgn(y.shape, noise, rng)."""
    n = awgn(y.shape, noise, rng)
    return y if n is None else y + n
