"""Plain reference implementations the tests check pncomp against.

None of these has a caller in the package: each is the textbook form of
something pncomp computes another way (the dense DFT matrix for the FFT,
the implied TLS perturbation for the fit, one pinv or SVD per symbol for
the stacked fit, one-shot phase noise and modulation for the block
simulation, the axis-by-axis slicer for the label-table slicer, the
whole-stream tracker for the block-by-block one).  The tracker oracle
takes from pncomp only build_w and the Receiver's fit rows; its fit,
combine, decision, phase estimate and PAST step are its own.
"""

from dataclasses import replace

import numpy as np

from pncomp.compensator import CompResult, build_w
from pncomp.numerics import DEFAULT_RCOND, CMat, CVec, fft, ifft
from pncomp.ofdm import Constellation, FreqSymbol, ToneLayout
from pncomp.phase_noise import PhaseNoiseRealization, PnGenerator, PnModel
from pncomp.tracker import TrackerState, TrackingConfig


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


def _slicer_axes(constellation: Constellation):
    """Per axis: the inner PAM levels and the label bits (I: high, Q: low)
    of the levels just below and just above each gap between them."""
    side = int(round(np.sqrt(constellation.order)))
    labels = np.arange(constellation.order)
    axes = []
    for coord, bits in ((constellation.points.real, labels // side * side),
                        (constellation.points.imag, labels % side)):
        levels = np.unique(coord)
        level_bits = np.empty(len(levels), dtype=np.intp)
        level_bits[np.searchsorted(levels, coord)] = bits
        axes.append((levels[1:-1], level_bits[:-1], level_bits[1:]))
    return axes


def _bracket(x: np.ndarray, axis) -> np.ndarray:
    """Label bits of the two adjacent levels around each x, shape (2, n);
    values beyond the outermost levels get the outermost pair."""
    inner, lo_bits, hi_bits = axis
    gap = inner.searchsorted(x)
    return np.array([lo_bits[gap], hi_bits[gap]])


def bracket_decide(est: FreqSymbol, constellation: Constellation) -> FreqSymbol:
    """Per-axis slicer: the 2 x 2 points whose levels bracket the value on
    each axis, searched one axis at a time, ties to the smallest label."""
    i_axis, q_axis = _slicer_axes(constellation)
    active = est.layout.active_arr
    vals = est.s[active]
    labels = (_bracket(vals.real, i_axis)[:, None]
              + _bracket(vals.imag, q_axis)[None, :]).reshape(4, -1)
    d2 = np.abs(vals - constellation.points[labels]) ** 2
    tied = d2 == d2.min(axis=0)
    label = np.where(tied, labels, constellation.order).min(axis=0)
    out = np.zeros_like(est.s)
    out[active] = constellation.points[label]
    return FreqSymbol(s=out, layout=est.layout)


def per_symbol_fit(w, rcv, d, ref):
    """The per-symbol fit and combine that the block fit replaced: one
    pinv, or one SVD of [W, s], per symbol on the leading d columns of its
    W (n_rx, N, >= d).  Returns (gamma, s_hat).  The combine's last bits
    depend on W's memory layout; this one combines a C-contiguous W, the
    layout build_w gives."""
    w = np.ascontiguousarray(w)[:, :, :d]
    w_rows = w[rcv.rows]
    s_rows = np.concatenate((ref.s, [0]))[rcv.tones]
    gamma = None
    if rcv.cfg.method == "TLS" and len(s_rows) >= d + 1:
        _, _, vh = np.linalg.svd(np.column_stack([w_rows, s_rows]))
        q_last = vh.conj().T[:, d]
        if np.abs(q_last[d]) > 1e-12:
            gamma = -q_last[:d] / q_last[d]
    if gamma is None:
        gamma = np.linalg.pinv(w_rows, rcond=DEFAULT_RCOND) @ s_rows
    return gamma, (rcv.mrc_w * (w @ gamma)).sum(axis=0) / rcv.mrc_den


def dd_phase_estimate(z, s_hat: FreqSymbol, lam) -> PhaseNoiseRealization:
    """Per-sample phase of z against the reconstructed clean signal, the
    branches combined coherently; negligible samples take the nearest
    valid estimate."""
    z, lam = np.atleast_2d(z), np.atleast_2d(lam)
    n = lam.shape[-1]
    y_hat = np.fft.ifft(lam * s_hat.s[None, :], axis=-1) * np.sqrt(n)
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
    """One PAST recursion (Yang, IEEE TSP 1995) with input x = psi_hat."""
    x = np.asarray(getattr(psi_hat, "psi", psi_hat), dtype=np.complex128)
    y = state.v.conj().T @ x
    h = state.p @ y
    g = h / (state.beta + np.vdot(y, h))
    p = (state.p - np.outer(g, h.conj())) / state.beta
    p = (p + p.conj().T) / 2
    e = x - state.v @ y
    v = state.v + np.outer(e, g.conj())
    return replace(state, v=v, p=p)


def run_tracked(stream, state: TrackerState, cfg: TrackingConfig):
    """The whole-stream tracker: compensate, decide (bracket_decide),
    re-estimate the phase and update the basis, symbol by symbol."""
    results = []
    for m, sym in enumerate(stream):
        w = build_w(sym.z, sym.rcv, state.basis)
        gamma, s_hat = per_symbol_fit(w, sym.rcv, state.v.shape[1], sym.ref)
        n_eq = len(sym.rcv.tones)
        res = CompResult(gamma, FreqSymbol(s=s_hat, layout=sym.ref.layout),
                         n_eq, n_eq < len(gamma))
        results.append(res)
        if cfg.freeze_after is not None and m >= cfg.freeze_after:
            continue
        if m < cfg.training_symbols:
            s_dd = sym.ref
        else:
            decided = bracket_decide(res.s_hat, cfg.constellation)
            s = decided.s
            p_idx = sym.ref.layout.pilot_arr
            s[p_idx] = sym.ref.s[p_idx]
            s_dd = FreqSymbol(s=s, layout=sym.ref.layout)
        psi_hat = dd_phase_estimate(sym.z, s_dd, sym.rcv.lam)
        state = past_update(state, np.conj(psi_hat.psi))
    return results, state
