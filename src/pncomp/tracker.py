"""Decision-directed subspace tracking of the phase-noise basis (PAST).

Each OFDM symbol is compensated with the current basis, hard decisions
reconstruct the clean signal, the per-sample phase estimate feeds a PAST
rank-one update of the basis.  The tracked input is the cancellation
vector exp(-j*phi_hat), so the tracked span directly represents the
correction the compensator applies (with a residual carrier offset the
two spans differ by conjugation of the offset ramp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CompBasis, dft_basis
from .compensator import (CompResult, Receiver, build_w, compensate,
                          fit_gamma, _as_branches)
from .numerics import CVec, CMat, ifft
from .ofdm import Constellation, FreqSymbol, hard_decide
from .phase_noise import PhaseNoiseRealization


@dataclass(frozen=True)
class TrackerState:
    v: CMat
    p: CMat
    beta: float = 0.9

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")

    @property
    def basis(self) -> CompBasis:
        return CompBasis(self.v, "PAST")


def init_tracker(n: int, d: int, beta: float = 0.9) -> TrackerState:
    """Start from the d low-frequency DFT columns."""
    return TrackerState(v=dft_basis(n, d).v,
                        p=np.eye(d, dtype=np.complex128), beta=beta)


def dd_phase_estimate(z, s_hat: FreqSymbol, lam):
    """Per-sample phase of z against the reconstructed clean signal.

    z and lam may carry several receive branches (shape (n_rx, N)); the
    branch phases are combined coherently.  Samples where the
    reconstruction is negligible inherit the nearest valid estimate.
    """
    z, lam = _as_branches(z), _as_branches(lam)
    y_hat = ifft(lam * s_hat.s)
    mag = np.abs(y_hat).max(axis=0)
    peak = mag.max()
    if peak == 0:
        raise ValueError("all-zero signal reconstruction")
    q = np.multiply(z, np.conj(y_hat, out=y_hat), out=y_hat).sum(axis=0)
    valid = mag >= 1e-9 * peak
    phi = np.arctan2(q.imag, q.real)
    if not valid.all():
        good = np.flatnonzero(valid)
        bad = np.flatnonzero(~valid)
        nearest = good[np.argmin(np.abs(bad[:, None] - good[None, :]), axis=1)]
        phi[bad] = phi[nearest]
    return PhaseNoiseRealization.from_phi(phi)


def past_update(state: TrackerState, psi_hat) -> TrackerState:
    """One PAST recursion with input vector x = psi_hat.

    y = V* x; h = P y; g = h / (beta + y* h); P <- (P - g h*)/beta;
    e = x - V y; V <- V + e g*.  O(N d) per update.
    """
    x = np.asarray(getattr(psi_hat, "psi", psi_hat), dtype=np.complex128)
    y = state.v.conj().T @ x
    h = state.p @ y
    g = h / (state.beta + np.vdot(y, h))
    p = (state.p - g[:, None] * h.conj()) / state.beta
    p = (p + p.conj().T) / 2
    e = x - state.v @ y
    return TrackerState(v=state.v + e[:, None] * g.conj(), p=p,
                        beta=state.beta)


@dataclass(frozen=True)
class TrackedSymbol:
    """One symbol of the input stream: received z, Receiver, reference."""

    z: CMat
    rcv: Receiver
    ref: FreqSymbol


@dataclass(frozen=True)
class TrackingConfig:
    constellation: Constellation
    training_symbols: int = 0
    freeze_after: int | None = None


def run_tracked(stream, state: TrackerState, cfg: TrackingConfig,
                start: int = 0) -> tuple[list[CompResult], TrackerState]:
    """Compensate, decide, re-estimate the phase, update the basis.

    The first cfg.training_symbols symbols use the true transmitted
    symbols for decision direction; afterwards hard decisions on data
    tones plus the known pilots are used.  Updates stop at freeze_after.
    The stream's first symbol has index start, so a stream can be run in
    pieces, each call taking the state the previous one returned.
    """
    results: list[CompResult] = []
    freeze, training = cfg.freeze_after, cfg.training_symbols
    for m, sym in enumerate(stream, start):
        rcv, ref = sym.rcv, sym.ref
        w = build_w(sym.z, rcv, state.basis)
        res = compensate(w, rcv, fit_gamma(w, rcv, ref.s)[0], ref)
        results.append(res)
        if freeze is not None and m >= freeze:
            continue
        if m < training:
            s_dd = ref
        else:
            s_dd = hard_decide(res.s_hat, cfg.constellation)
            p_idx = ref.layout.pilot_arr
            s_dd.s[p_idx] = ref.s[p_idx]
        psi = dd_phase_estimate(sym.z, s_dd, rcv.lam).psi
        # track the cancellation vector, the quantity the basis must span
        state = past_update(state, np.conj(psi, out=psi))
    return results, state
