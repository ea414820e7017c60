"""Decision-directed subspace tracking of the phase-noise basis (PAST).

Each OFDM symbol is compensated with the current basis, hard decisions
reconstruct the clean signal, the per-sample phase estimate feeds a PAST
rank-one update of the basis.  The tracked input is the cancellation
vector exp(-j*phi_hat), so the tracked span directly represents the
correction the compensator applies (with a residual carrier offset the
two spans differ by conjugation of the offset ramp).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .basis import CompBasis, dft_basis
from .compensator import (CompResult, Receiver, build_w, compensate,
                          fit_gamma, _as_branches)
from .numerics import CVec, CMat, ifft
from .ofdm import Constellation, FreqSymbol, hard_decide


@dataclass(frozen=True)
class TrackerState:
    v: CMat
    p: CMat
    beta: float = 0.9
    symbol_counter: int = 0

    def __post_init__(self):
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")

    @property
    def d(self) -> int:
        return self.v.shape[1]

    @property
    def basis(self) -> CompBasis:
        return CompBasis(v=self.v, kind="PAST")


def init_tracker(n: int, d: int, beta: float = 0.9,
                 v0: CMat | None = None) -> TrackerState:
    """Start from the d low-frequency DFT columns unless v0 is given."""
    if v0 is None:
        v0 = dft_basis(n, d).v
    return TrackerState(v=np.array(v0, dtype=np.complex128),
                        p=np.eye(d, dtype=np.complex128), beta=beta)


def dd_phase_estimate(z, s_hat: FreqSymbol, lam):
    """Per-sample phase of z against the reconstructed clean signal.

    z and lam may carry several receive branches (shape (n_rx, N)); the
    branch phases are combined coherently.  Samples where the
    reconstruction is negligible inherit the nearest valid estimate.
    """
    from .phase_noise import PhaseNoiseRealization

    z, lam = _as_branches(z), _as_branches(lam)
    y_hat = ifft(lam * s_hat.s[None, :])
    peak = np.abs(y_hat).max()
    if peak == 0:
        raise ValueError("all-zero signal reconstruction")
    q = np.sum(z * np.conj(y_hat), axis=0)
    valid = np.abs(y_hat).max(axis=0) >= 1e-9 * peak
    phi = np.angle(q)
    if not np.all(valid):
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
    p = (state.p - np.outer(g, h.conj())) / state.beta
    p = (p + p.conj().T) / 2
    e = x - state.v @ y
    v = state.v + np.outer(e, g.conj())
    return replace(state, v=v, p=p, symbol_counter=state.symbol_counter + 1)


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


def run_tracked(stream, state: TrackerState,
                cfg: TrackingConfig) -> tuple[list[CompResult], TrackerState]:
    """Compensate, decide, re-estimate the phase, update the basis.

    The first cfg.training_symbols symbols use the true transmitted
    symbols for decision direction; afterwards hard decisions on data
    tones plus the known pilots are used.  Updates stop at freeze_after.
    """
    results: list[CompResult] = []
    for m, sym in enumerate(stream):
        w = build_w(sym.z, sym.rcv, state.basis)
        res = compensate(w, sym.rcv, fit_gamma(w, sym.rcv, sym.ref.s)[0],
                         sym.ref)
        results.append(res)
        if cfg.freeze_after is not None and m >= cfg.freeze_after:
            continue
        if m < cfg.training_symbols:
            s_dd = sym.ref
        else:
            decided = hard_decide(res.s_hat, cfg.constellation)
            s = decided.s
            p_idx = sym.ref.layout.pilot_arr
            s[p_idx] = sym.ref.s[p_idx]
            s_dd = FreqSymbol(s=s, layout=sym.ref.layout)
        psi_hat = dd_phase_estimate(sym.z, s_dd, sym.rcv.lam)
        # track the cancellation vector, the quantity the basis must span
        state = past_update(state, np.conj(psi_hat.psi))
    return results, state


def save_tracker_state(state: TrackerState, path) -> None:
    """CSV warm-start format: shape line, then V and P entries re/im."""
    n, d = state.v.shape
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "d", "beta", "symbol_counter"])
        writer.writerow([n, d, repr(state.beta), state.symbol_counter])
        for row in state.v:
            writer.writerow([f"{c.real:.18e}" for c in row]
                            + [f"{c.imag:.18e}" for c in row])
        for row in state.p:
            writer.writerow([f"{c.real:.18e}" for c in row]
                            + [f"{c.imag:.18e}" for c in row])


def load_tracker_state(path) -> TrackerState:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n, d = int(rows[1][0]), int(rows[1][1])
    beta, counter = float(rows[1][2]), int(rows[1][3])
    def parse(block, width):
        out = np.empty((len(block), width), dtype=np.complex128)
        for i, row in enumerate(block):
            re = np.array(row[:width], dtype=float)
            im = np.array(row[width:], dtype=float)
            out[i] = re + 1j * im
        return out
    v = parse(rows[2:2 + n], d)
    p = parse(rows[2 + n:2 + n + d], d)
    return TrackerState(v=v, p=p, beta=beta, symbol_counter=counter)
