"""Plain reference implementations the tests check pncomp against.

None of these has a caller in the package: each is the textbook form of
something pncomp computes another way (the dense DFT matrix for the FFT,
the implied TLS perturbation for the fit, one pinv, SVD, SVD of the
conjugate transpose or width-d QR per symbol for the stacked fit,
modulation for the block simulation, the
axis-by-axis slicer for the label-table slicer, the whole-stream tracker
for the block-by-block one, the phase-noise model's covariance in closed
form for the trained one).  The tracker oracle takes from pncomp only
build_w and the Receiver's fit rows and layout; its fit, combine,
decision, phase estimate and PAST step are its own.
"""

import numpy as np
from scipy import signal

from pncomp.compensator import build_w
from pncomp.numerics import DEFAULT_RCOND, CMat, CVec, fft, ifft
from pncomp.ofdm import Constellation, ToneLayout
from pncomp.phase_noise import design_filter


def dft_matrix(n: int) -> CMat:
    """Dense unitary DFT matrix; F @ x == fft(x)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def tls_implied_perturbation(w_rows: CMat, s_rows: CVec, gamma: CVec) -> CMat:
    """Minimal [dW, ds] with (W+dW)gamma = s+ds; rank one in the residual."""
    r = w_rows @ gamma - s_rows
    g = np.concatenate([gamma, [-1.0 + 0j]])
    return -np.outer(r, g.conj()) / (np.linalg.norm(g) ** 2)


def model_cov(n: int, sigma_deg: float, order: int, cutoff: float,
              ripple_db: float) -> np.ndarray:
    """R[k, l] = E[psi_k psi_l*] = exp(-sigma^2 (1 - rho(k - l))) of n
    consecutive samples of psi = exp(j phi), phi the stationary Gaussian
    process of std sigma_deg shaped by design_filter(order, cutoff,
    ripple_db): rho(tau) = sum h_i h_(i+tau) / sum h_i^2, h the filter's
    impulse response, which settles well within its 2^15 samples.  Real
    symmetric Toeplitz, (n, n)."""
    b, a, _ = design_filter(order, cutoff, ripple_db)
    h = signal.lfilter(b, a, np.r_[1.0, np.zeros((1 << 15) - 1)])
    rho = np.array([h[:len(h) - tau] @ h[tau:] for tau in range(n)]) / (h @ h)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.exp(-np.deg2rad(sigma_deg) ** 2 * (1.0 - rho[lag]))


def modulate(s: CVec) -> CVec:
    """Time-domain symbol x = F* s (unitary inverse DFT)."""
    return ifft(s)


def demodulate(x: CVec) -> CVec:
    return fft(x)


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


def bracket_decide(est: CVec, layout: ToneLayout,
                   constellation: Constellation) -> CVec:
    """Per-axis slicer: the 2 x 2 points whose levels bracket the value on
    each axis, searched one axis at a time, ties to the smallest label."""
    i_axis, q_axis = _slicer_axes(constellation)
    active = layout.active_arr
    vals = est[active]
    labels = (_bracket(vals.real, i_axis)[:, None]
              + _bracket(vals.imag, q_axis)[None, :]).reshape(4, -1)
    d2 = np.abs(vals - constellation.points[labels]) ** 2
    tied = d2 == d2.min(axis=0)
    label = np.where(tied, labels, constellation.order).min(axis=0)
    out = np.zeros_like(est)
    out[active] = constellation.points[label]
    return out


def _rows(w, rcv, d, ref):
    """One symbol's C-contiguous W (n_blocks, N, d), its fit rows and
    their targets: on a pilot row (block, tone), ref[tone] if ref is (N,)
    and ref[block, tone] if it holds one (N,) reference per block; 0 on
    null rows."""
    w = np.ascontiguousarray(w)[:, :, :d]
    block, tone = rcv.rows
    ref = np.broadcast_to(ref, w.shape[:2])
    return w, w[rcv.rows], np.where(np.isin(tone, rcv.layout.null_arr), 0,
                                    ref[block, tone])


def _combine(w, rcv, gamma):
    """The MRC-combined correction of a single-user receiver, (N,); each
    block's own W @ gamma, (n_blocks, N), for one without MRC weights."""
    if rcv.mrc_w is None:
        return w @ gamma
    return (rcv.mrc_w * (w @ gamma)).sum(axis=0) / rcv.mrc_den


def per_symbol_fit(w, rcv, d, ref):
    """The per-symbol fit and combine that the block fit replaced: one
    pinv, or one SVD of [W, s], per symbol on the leading d columns of its
    W (n_rx, N, >= d).  Returns (gamma, s_hat).  The combine's last bits
    depend on W's memory layout; this one combines a C-contiguous W, the
    layout build_w gives."""
    w, w_rows, s_rows = _rows(w, rcv, d, ref)
    gamma = None
    if rcv.method == "TLS" and len(s_rows) >= d + 1:
        _, _, vh = np.linalg.svd(np.column_stack([w_rows, s_rows]))
        q_last = vh.conj().T[:, d]
        if np.abs(q_last[d]) > 1e-12:
            gamma = -q_last[:d] / q_last[d]
    if gamma is None:
        gamma = np.linalg.pinv(w_rows, rcond=DEFAULT_RCOND) @ s_rows
    return gamma, _combine(w, rcv, gamma)


def per_symbol_tls_fit(w, rcv, d, ref):
    """TLS by another route than per_symbol_fit's: gamma = -q12/q22 from
    the last left singular vector of the conjugate transpose [W rows |
    s]^H, the last right singular vector of [W rows | s].  per_symbol_fit
    fits an LS receiver, a symbol with fewer rows than d + 1 and one whose
    q22 vanishes.  Returns (gamma, s_hat)."""
    w, w_rows, s_rows = _rows(w, rcv, d, ref)
    if rcv.method == "LS" or len(s_rows) < d + 1:
        return per_symbol_fit(w, rcv, d, ref)
    u, _, _ = np.linalg.svd(np.column_stack([w_rows, s_rows]).conj().T)
    if np.abs(u[d, d]) <= 1e-12:
        return per_symbol_fit(w, rcv, d, ref)
    gamma = -u[:d, d] / u[d, d]
    return gamma, _combine(w, rcv, gamma)


def per_symbol_qr_fit(w, rcv, d, ref):
    """The fit and combine of one symbol as pncomp's fit does it: by LS,
    the QR of its width-d [W rows | s] alone, gamma solving R[:d, :d] gamma
    = R[:d, d].  per_symbol_fit fits a TLS receiver, a symbol with fewer
    rows than d, and one whose min |r_ii| is at most 1e-12 of its max.
    Returns (gamma, s_hat)."""
    w, w_rows, s_rows = _rows(w, rcv, d, ref)
    if rcv.method == "TLS" or len(s_rows) < d:
        return per_symbol_fit(w, rcv, d, ref)
    r = np.linalg.qr(np.column_stack([w_rows, s_rows]), mode="r")
    diag = np.abs(np.diag(r[:d, :d]))
    if diag.min() <= 1e-12 * diag.max():
        return per_symbol_fit(w, rcv, d, ref)
    gamma = np.linalg.solve(r[:d, :d], r[:d, d])
    return gamma, _combine(w, rcv, gamma)


def dd_phase_estimate(z, s_hat: CVec, lam) -> np.ndarray:
    """Per-sample phase phi (N,) of z against the reconstructed clean
    signal, the branches combined coherently; negligible samples take the
    nearest valid estimate."""
    z, lam = np.atleast_2d(z), np.atleast_2d(lam)
    n = lam.shape[-1]
    y_hat = np.fft.ifft(lam * s_hat[None, :], axis=-1) * np.sqrt(n)
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
    return phi


def past_update(v: CMat, p: CMat, x: CVec, beta: float):
    """One PAST recursion (Yang, IEEE TSP 1995) of (V, P) with input x;
    returns the new (V, P)."""
    y = v.conj().T @ x
    h = p @ y
    g = h / (beta + np.vdot(y, h))
    p_new = (p - np.outer(g, h.conj())) / beta
    p_new = (p_new + p_new.conj().T) / 2
    e = x - v @ y
    return v + np.outer(e, g.conj()), p_new


def run_tracked(z, rcv, refs, state, const: Constellation, beta: float,
                training: int = 0, freeze: int | None = None,
                fit=per_symbol_qr_fit):
    """The whole-stream tracker: compensate (fit, one of the per-symbol
    fits above), decide (bracket_decide in const, after the first training
    symbols), re-estimate the phase and update the basis, symbol by symbol
    through z (M, n_rx, N) against refs (M, N) from state = (V, P) with
    forgetting factor beta, with no update from symbol freeze on, if
    given.  Returns each symbol's estimate, (M, N), and the last (V, P)."""
    v, p = state
    s_hats = []
    p_idx = rcv.layout.pilot_arr
    for m, (z_m, ref) in enumerate(zip(z, refs)):
        w = build_w(z_m, rcv, v)
        _, s_hat = fit(w, rcv, v.shape[1], ref)
        s_hats.append(s_hat)
        if freeze is not None and m >= freeze:
            continue
        if m < training:
            s_dd = ref
        else:
            s_dd = bracket_decide(s_hat, rcv.layout, const)
            s_dd[p_idx] = ref[p_idx]
        phi_hat = dd_phase_estimate(z_m, s_dd, rcv.lam)
        v, p = past_update(v, p, np.conj(np.exp(1j * phi_hat)), beta)
    return np.array(s_hats), (v, p)
