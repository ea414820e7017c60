"""Locked-oscillator phase noise: generation, covariance, carrier offset.

The phase process phi is a lowpass-filtered white Gaussian sequence; the
multiplicative noise is psi = exp(j*phi).  One generator instance owns its
filter and RNG state so the process stays continuous across consecutive
OFDM symbols of a run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .numerics import CVec, CMat

_IMPULSE_LEN = 1 << 15
_WARMUP = 20_000


@dataclass(frozen=True)
class PnModel:
    """Second-order Chebyshev-I lowpass shaping by default.

    cutoff is a fraction of the sample rate; sigma_deg is the target
    standard deviation of phi in degrees.
    """

    sigma_deg: float
    seed: int = 0
    order: int = 2
    cutoff: float = 0.005
    ripple_db: float = 1.0

    def __post_init__(self):
        if self.sigma_deg < 0:
            raise ValueError("sigma_deg must be >= 0")
        if not 0 < self.cutoff < 0.5:
            raise ValueError("cutoff must be in (0, 0.5) of the sample rate")


@dataclass(frozen=True)
class PhaseNoiseRealization:
    """One OFDM symbol's worth of unit-modulus samples psi = exp(j*phi)."""

    psi: CVec
    phi: np.ndarray

    @staticmethod
    def from_phi(phi: np.ndarray) -> "PhaseNoiseRealization":
        phi = np.asarray(phi, dtype=np.float64)
        return PhaseNoiseRealization(psi=np.exp(1j * phi), phi=phi)


@dataclass(frozen=True)
class PnCovariance:
    """Sample covariance R = (1/M) sum psi psi*; Hermitian PSD, unit diagonal."""

    r: CMat
    n_samples_used: int


@dataclass(frozen=True)
class CarrierOffset:
    """Residual carrier offset: delta_f = ppm * 1e-6 * carrier_hz."""

    ppm: float
    carrier_hz: float
    sample_rate_hz: float

    @property
    def delta_f(self) -> float:
        return self.ppm * 1e-6 * self.carrier_hz

    @property
    def phase_per_sample(self) -> float:
        return 2.0 * np.pi * self.delta_f / self.sample_rate_hz


@functools.lru_cache(maxsize=16)
def _design_filter(order: int, cutoff: float, ripple_db: float):
    """Chebyshev-I coefficients (b, a), read-only, and the gain of their
    impulse response (the steady-state output std for unit white input).
    Neither depends on the seed or sigma, so every generator of one
    (order, cutoff, ripple) shares them."""
    # scipy's Wn is a fraction of the Nyquist rate
    b, a = signal.cheby1(order, ripple_db, 2.0 * cutoff)
    poles = np.roots(a)
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("unstable phase-noise filter specification")
    h = signal.lfilter(b, a, np.r_[1.0, np.zeros(_IMPULSE_LEN - 1)])
    b.flags.writeable = a.flags.writeable = False
    return b, a, float(np.sqrt(np.sum(h * h)))


class PnGenerator:
    """Stateful generator: one stationary phi process across symbols."""

    def __init__(self, model: PnModel):
        self.model = model
        self._b, self._a, gain = _design_filter(model.order, model.cutoff,
                                                model.ripple_db)
        self._scale = np.deg2rad(model.sigma_deg) / gain if gain > 0 else 0.0
        self._rng = np.random.default_rng(model.seed)
        self._zi = np.zeros(max(len(self._a), len(self._b)) - 1)
        self._warm_up()

    def _warm_up(self):
        _, self._zi = signal.lfilter(
            self._b, self._a, self._rng.standard_normal(_WARMUP), zi=self._zi)

    def next_phi(self, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        y, self._zi = signal.lfilter(
            self._b, self._a, self._rng.standard_normal(n), zi=self._zi)
        return self._scale * y

    def next(self, n: int) -> PhaseNoiseRealization:
        return PhaseNoiseRealization.from_phi(self.next_phi(n))


def estimate_cov(realizations) -> PnCovariance:
    """R = (1/M) sum psi psi* over the given realizations (or psi rows)."""
    rows = [getattr(real, "psi", real) for real in realizations]
    if not rows:
        raise ValueError("need at least one realization")
    n = len(rows[0])
    r = np.zeros((n, n), dtype=np.complex128)
    for psi in rows:
        if len(psi) != n:
            raise ValueError("realizations must share a common length")
        r += np.outer(psi, psi.conj())
    r /= len(rows)
    return PnCovariance(r=(r + r.conj().T) / 2, n_samples_used=len(rows))


def offset_factor(off: CarrierOffset, start_sample: int, n: int) -> CVec:
    """exp(j*2*pi*delta_f*(start+m)*Ts) for m = 0..n-1."""
    m = start_sample + np.arange(n)
    return np.exp(1j * off.phase_per_sample * m)


def apply_offset(psi: PhaseNoiseRealization, off: CarrierOffset,
                 start_sample: int = 0) -> PhaseNoiseRealization:
    """Multiply by the carrier-offset ramp; start_sample is absolute time."""
    c = offset_factor(off, start_sample, len(psi.psi))
    phi = psi.phi + off.phase_per_sample * (start_sample + np.arange(len(psi.psi)))
    return PhaseNoiseRealization(psi=psi.psi * c, phi=phi)


def save_pn_samples(path, phi: np.ndarray) -> None:
    """One phase angle (radians) per line; the load format below."""
    np.savetxt(path, np.asarray(phi, dtype=np.float64), fmt="%.18e")


def load_pn_samples(path, n: int):
    """Yield consecutive non-overlapping length-n realizations from a file.

    Each line is either one angle in radians or a 're,im' pair (projected
    to the unit circle).
    """
    phi = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                if len(parts) == 1:
                    phi.append(float(parts[0]))
                elif len(parts) == 2:
                    phi.append(float(np.angle(complex(float(parts[0]),
                                                      float(parts[1])))))
                else:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed sample line") from None
    if len(phi) < n:
        raise ValueError(f"{path}: {len(phi)} samples, need at least {n}")
    phi = np.asarray(phi)
    for i in range(len(phi) // n):
        yield PhaseNoiseRealization.from_phi(phi[i * n:(i + 1) * n])
