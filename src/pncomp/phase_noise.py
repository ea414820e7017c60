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
            raise ValueError(f"sigma_deg must be >= 0, got {self.sigma_deg}")
        if not 0 < self.cutoff < 0.5:
            raise ValueError("cutoff must be in (0, 0.5) of the sample rate")
        if not self.ripple_db > 0:
            raise ValueError(f"ripple_db must be > 0, got {self.ripple_db}")
        # raises for an order, cutoff and ripple that give no stable filter
        _design_filter(self.order, self.cutoff, self.ripple_db)


@functools.lru_cache(maxsize=16)
def _design_filter(order: int, cutoff: float, ripple_db: float):
    """Chebyshev-I coefficients (b, a), read-only, and the gain of their
    impulse response (the steady-state output std for unit white input).
    Neither depends on the seed or sigma, so every generator of one
    (order, cutoff, ripple) shares them."""
    try:  # scipy's Wn is a fraction of the Nyquist rate
        b, a = signal.cheby1(order, ripple_db, 2.0 * cutoff)
    except ArithmeticError:  # a ripple too small or too large to design
        raise ValueError(f"no phase-noise filter for ripple_db = "
                         f"{ripple_db}") from None
    poles = np.roots(a)
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError("unstable phase-noise filter specification")
    h = signal.lfilter(b, a, np.r_[1.0, np.zeros(_IMPULSE_LEN - 1)])
    b.flags.writeable = a.flags.writeable = False
    return b, a, float(np.sqrt(np.sum(h * h)))


class PnGenerator:
    """Stateful generator: one stationary phi process across symbols.

    Only the output scale depends on sigma, so one generator can draw its
    filtered stream at several levels: given sigmas, each phi has one row
    per level, equal to what a generator of that sigma_deg would draw."""

    def __init__(self, model: PnModel, sigmas=None):
        self._b, self._a, gain = _design_filter(model.order, model.cutoff,
                                                model.ripple_db)
        if sigmas is None:
            self._scale = _phi_scale(model.sigma_deg, gain)
        else:
            self._scale = np.array([[_phi_scale(s, gain)] for s in sigmas])
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

    def next(self, n: int) -> CVec:
        """psi = exp(j*phi) of the next n samples, shaped as next_phi's."""
        psi = 1j * self.next_phi(n)
        return np.exp(psi, out=psi)


def _phi_scale(sigma_deg: float, gain: float) -> float:
    return np.deg2rad(sigma_deg) / gain if gain > 0 else 0.0


def estimate_cov(rows) -> CMat:
    """Sample covariance R = (1/M) sum psi psi* over the M rows psi that
    rows yields, each (..., N), summed one outer product at a time in row
    order (one matmul would sum in another order and change the last
    bits): Hermitian PSD, unit diagonal, one per leading index, R of
    (..., N, N).  rows is iterated once: an array (M, ..., N) or a
    generator that makes each row when it is asked for."""
    r = None
    for m, psi in enumerate(map(np.asarray, rows), 1):
        if r is None:
            r = np.zeros(psi.shape + psi.shape[-1:], dtype=np.complex128)
            term = np.empty_like(r)
        if psi.ndim < 1 or psi.shape != r.shape[:-1]:
            raise ValueError(f"row {m} is {psi.shape}, need row 1's (..., N)")
        np.multiply(psi[..., :, None], psi.conj()[..., None, :], out=term)
        r += term
    if r is None:
        raise ValueError("need at least one row")
    r /= m
    return (r + np.swapaxes(r.conj(), -1, -2)) / 2


def offset_factor(phase_per_sample: float, start: int, n: int) -> CVec:
    """exp(j*phase_per_sample*(start+m)) for m = 0..n-1."""
    m = start + np.arange(n)
    return np.exp(1j * phase_per_sample * m)


def apply_offset(psi: CVec, phase_per_sample: float,
                 start_sample: int = 0) -> CVec:
    """psi times the carrier-offset ramp along the last axis, with
    phase_per_sample = 2*pi*delta_f*Ts; start_sample is absolute time."""
    return psi * offset_factor(phase_per_sample, start_sample, psi.shape[-1])


def save_pn_samples(path, phi: np.ndarray) -> None:
    """One phase angle (radians) per line; the load format below.  phi is
    one stream (n,): a (levels, n) draw has no one-column form."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1:
        raise ValueError(f"phi must be one stream (n,), got {phi.shape}")
    np.savetxt(path, phi, fmt="%.18e")


def load_pn_samples(path, n: int) -> np.ndarray:
    """The consecutive non-overlapping length-n windows of phase angles in
    a file, (windows, n); samples past the last whole window are dropped.

    Each line is either one angle in radians or a 're,im' pair, projected
    to the unit circle; a zero pair has no phase and is rejected.
    """
    phi = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals = [float(part) for part in line.split(",")]
            except ValueError:
                vals = []
            if len(vals) not in (1, 2):
                raise ValueError(f"{path}:{lineno}: malformed sample line")
            if not np.isfinite(vals).all():
                raise ValueError(f"{path}:{lineno}: non-finite sample")
            if vals == [0.0, 0.0]:
                raise ValueError(f"{path}:{lineno}: zero sample has no phase")
            phi.append(vals[0] if len(vals) == 1
                       else float(np.angle(complex(*vals))))
    if len(phi) < n:
        raise ValueError(f"{path}: {len(phi)} samples, need at least {n}")
    return np.reshape(phi[:len(phi) // n * n], (-1, n))
