"""Decision-directed subspace tracking of the phase-noise basis (PAST).

Each OFDM symbol is compensated with the current basis, hard decisions
reconstruct the clean signal, the per-sample phase estimate feeds a PAST
rank-one update of the basis.  The tracked input is the cancellation
vector exp(-j*phi_hat), so the tracked span directly represents the
correction the compensator applies (with a residual carrier offset the
two spans differ by conjugation of the offset ramp).
"""

from __future__ import annotations

import numpy as np

from .basis import dft_basis
from .compensator import Receiver, build_w, compensate, fit_prefixes
from .numerics import CMat, CVec, ifft
from .ofdm import Constellation, hard_decide


def init_tracker(n: int, d: int) -> tuple[CMat, CMat]:
    """The start (V, P): the d low-frequency DFT columns (N, d) and the
    identity (d, d)."""
    return dft_basis(n, d), np.eye(d, dtype=np.complex128)


def dd_phase_estimate(z, s_hat: CVec, lam) -> np.ndarray:
    """Per-sample phase phi (N,) of the received z (n_rx, N) against the
    clean signal reconstructed from the symbol s_hat (N,) through the
    channel lam (n_rx, N); the branch phases are combined coherently.
    Samples where the reconstruction is negligible inherit the nearest
    valid estimate.
    """
    y_hat = ifft(lam * s_hat)
    mag = np.abs(y_hat).max(axis=0)
    peak = mag.max()
    if peak == 0:
        raise ValueError("all-zero signal reconstruction")
    q = np.multiply(z, np.conj(y_hat, out=y_hat), out=y_hat).sum(axis=0)
    phi = np.arctan2(q.imag, q.real)
    if mag.min() < 1e-9 * peak:
        good = np.flatnonzero(mag >= 1e-9 * peak)
        bad = np.flatnonzero(mag < 1e-9 * peak)
        nearest = good[np.argmin(np.abs(bad[:, None] - good[None, :]), axis=1)]
        phi[bad] = phi[nearest]
    return phi


def past_update(v: CMat, p: CMat, x, beta: float) -> tuple[CMat, CMat]:
    """One PAST recursion of the basis v (N, d) and the inverse
    correlation p (d, d) with input vector x (N,) and forgetting factor
    beta in (0, 1]; returns the new (v, p) and writes to neither input.

    y = V* x; h = P y; g = h / (beta + y* h); P <- (P - g h*)/beta;
    e = x - V y; V <- V + e g*.  O(N d) per update.
    """
    y = v.conj().T @ x
    h = p @ y
    g = h / (beta + np.vdot(y, h))
    p = (p - g[:, None] * h.conj()) / beta
    p = (p + p.conj().T) / 2
    e = x - v @ y
    return v + e[:, None] * g.conj(), p


def run_tracked(z, rcv: Receiver, refs: CMat, state: tuple[CMat, CMat],
                const: Constellation, beta: float, training: int = 0,
                freeze: int | None = None,
                start: int = 0) -> tuple[CMat, tuple[CMat, CMat]]:
    """Compensate, decide, re-estimate the phase, update the basis, symbol
    by symbol through the block z (M, n_rx, N) with references refs
    (M, N), starting from state = (v, p) and updating with forgetting
    factor beta.  Returns the estimates (M, N) and the last (v, p).

    The first training symbols use the true transmitted symbols for
    decision direction; afterwards hard decisions in const on data tones
    plus the known pilots are used.  Updates stop at symbol freeze, if
    given.  The block's first symbol has index start, so a stream can be
    run in blocks, each call taking the state the previous one returned.
    """
    v, p = state
    d = v.shape[1]
    s_hats = np.empty(refs.shape, dtype=np.complex128)
    lay, p_idx = rcv.layout, rcv.layout.pilot_arr
    for m, (z_m, ref, s_hat) in enumerate(zip(z, refs, s_hats), start):
        w = build_w(z_m, rcv, v)
        s_hat[:] = compensate(w, rcv, fit_prefixes(w, rcv, ref, (d,))[d])
        if freeze is not None and m >= freeze:
            continue
        if m < training:
            s_dd = ref
        else:
            s_dd = hard_decide(s_hat, lay, const)
            s_dd[p_idx] = ref[p_idx]
        phi = dd_phase_estimate(z_m, s_dd, rcv.lam)
        # track exp(-j*phi_hat), the cancellation vector the basis must span
        v, p = past_update(v, p, np.exp(-1j * phi), beta)
    return s_hats, (v, p)
