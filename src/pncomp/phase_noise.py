"""Locked-oscillator phase noise: generation, covariance, carrier offset.

The phase process phi is a lowpass-filtered white Gaussian sequence; the
multiplicative noise is psi = exp(j*phi).  One generator instance owns its
filter and RNG state so the process stays continuous across consecutive
OFDM symbols of a run.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import signal

from .numerics import CVec, CMat

_IMPULSE_LEN = 1 << 15
_WARMUP = 20_000
# the share of the impulse response's energy it may hold past the warm-up
_TAIL_ENERGY = 1e-12


@functools.lru_cache(maxsize=16)
def design_filter(order: int, cutoff: float, ripple_db: float):
    """Chebyshev-I lowpass of the given order, cutoff (a fraction of the
    sample rate) and passband ripple: its coefficients (b, a), read-only,
    and the gain of its impulse response (the steady-state output std for
    unit white input).  Neither depends on the seed or sigma, so every
    generator of one (order, cutoff, ripple) shares them.

    Raises ValueError for parameters scipy cannot design from (a cutoff
    outside (0, 0.5), a ripple <= 0), no stable filter, or an impulse
    response that holds more than _TAIL_ENERGY of its energy past the
    _WARMUP samples a generator warms up for: the gain and the warm-up
    would both miss sigma_deg.  The messages name the parameters by their
    config keys, pn_order, pn_cutoff and pn_ripple_db."""
    spec = (f"pn_order = {order}, pn_cutoff = {cutoff} and "
            f"pn_ripple_db = {ripple_db}")
    try:  # scipy's Wn is a fraction of the Nyquist rate
        b, a = signal.cheby1(order, ripple_db, 2.0 * cutoff)
    except ArithmeticError:  # a ripple too small or too large to design
        raise ValueError(f"no phase-noise filter for {spec}") from None
    poles = np.roots(a)
    if np.any(np.abs(poles) >= 1.0):
        raise ValueError(f"unstable phase-noise filter for {spec}")
    h = signal.lfilter(b, a, np.r_[1.0, np.zeros(_IMPULSE_LEN - 1)])
    energy = np.sum(h * h)
    if not energy > 0:  # b underflowed: the filter passes nothing
        raise ValueError(f"no phase-noise filter for {spec}")
    if not np.sum(h[_WARMUP:] ** 2) <= _TAIL_ENERGY * energy:
        raise ValueError(f"the phase-noise filter for {spec} does not "
                         f"settle within its {_WARMUP}-sample warm-up")
    b.flags.writeable = a.flags.writeable = False
    return b, a, float(np.sqrt(energy))


class PnGenerator:
    """Stateful generator: one stationary phi process across symbols, at
    every level of sigmas (degrees).  Only the output scale depends on
    sigma, so the seed's white noise is filtered once: each draw has one
    row per level, equal to what a generator of that sigma alone would
    draw.  The filter is design_filter(order, cutoff, ripple_db)."""

    def __init__(self, seed: int, sigmas, order: int = 2,
                 cutoff: float = 0.005, ripple_db: float = 1.0):
        self._b, self._a, gain = design_filter(order, cutoff, ripple_db)
        self._scale = np.deg2rad(sigmas)[:, None] / gain
        self._rng = np.random.default_rng(seed)
        # the first draw starts _WARMUP samples into the stream
        _, self._zi = signal.lfilter(
            self._b, self._a, self._rng.standard_normal(_WARMUP),
            zi=np.zeros(max(len(self._a), len(self._b)) - 1))

    def next_phi(self, n: int) -> np.ndarray:
        """The angles phi (levels, n) of the next n samples."""
        if n < 1:  # kept: lfilter changes its state on an empty input
            raise ValueError("n must be >= 1")
        y, self._zi = signal.lfilter(
            self._b, self._a, self._rng.standard_normal(n), zi=self._zi)
        return self._scale * y

    def next(self, n: int) -> CMat:
        """psi = exp(j*phi) of the next n samples, (levels, n)."""
        psi = 1j * self.next_phi(n)
        return np.exp(psi, out=psi)


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
        # kept: a row of another shape could broadcast into r silently
        if psi.ndim < 1 or psi.shape != r.shape[:-1]:
            raise ValueError(f"row {m} is {psi.shape}, need row 1's (..., N)")
        np.multiply(psi[..., :, None], psi.conj()[..., None, :], out=term)
        r += term
    if r is None:  # kept: no row leaves m unbound and r None
        raise ValueError("need at least one row")
    r /= m
    return (r + np.swapaxes(r.conj(), -1, -2)) / 2


def apply_offset(psi: CVec, phase_per_sample: float,
                 start_sample: int = 0) -> CVec:
    """psi times the carrier-offset ramp exp(j*phase_per_sample*t) along
    the last axis, with phase_per_sample = 2*pi*delta_f*Ts and t the
    absolute sample time, from start_sample on."""
    m = start_sample + np.arange(psi.shape[-1])
    return psi * np.exp(1j * phase_per_sample * m)


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
    try:
        with open(path, encoding="utf-8-sig") as fh:  # any BOM dropped
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
                    raise ValueError(
                        f"{path}:{lineno}: zero sample has no phase")
                phi.append(vals[0] if len(vals) == 1
                           else float(np.angle(complex(*vals))))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc.reason})") from None
    if len(phi) < n:
        raise ValueError(f"{path}: {len(phi)} samples, need at least {n}")
    return np.reshape(phi[:len(phi) // n * n], (-1, n))
