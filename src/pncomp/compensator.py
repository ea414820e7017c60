"""Per-symbol phase-noise compensation: W construction, LS/TLS fit, equalize.

The correction vector V @ gamma approximates exp(-j*phi); gamma is fit on
the pilot rows of W = diag(1/lambda) F diag(z) V (one block per receive
branch), optionally augmented with null-tone rows.  Column j of W depends
only on column j of V, so a W built for a basis serves every leading-column
prefix of that basis: one W per symbol fits every d of a basis family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CompBasis
from .numerics import CVec, CMat, fft, pinv, svd
from .ofdm import FreqSymbol

WEAK_TONE_REL = 1e-6


@dataclass(frozen=True)
class CompConfig:
    method: str = "LS"
    use_null_tones: bool = False

    def __post_init__(self):
        if self.method not in ("LS", "TLS"):
            raise ValueError(f"method must be LS or TLS, got {self.method!r}")


@dataclass(frozen=True)
class CompResult:
    gamma: CVec
    s_hat: FreqSymbol
    correction: CVec
    n_equations: int
    underdetermined: bool = False


def _as_branches(a) -> CMat:
    a = np.asarray(a, dtype=np.complex128)
    return a[None, :] if a.ndim == 1 else a


def strong_tone_mask(lam) -> np.ndarray:
    """Tones within 1e-6 of the peak |lambda|, per branch (last axis)."""
    mag = np.abs(lam)
    peak = mag.max(axis=-1, keepdims=True)
    if (peak == 0).any():
        raise ValueError("all-zero channel response")
    return mag >= WEAK_TONE_REL * peak


def build_w(z, lam, basis: CompBasis) -> np.ndarray:
    """W = diag(1/lambda) F diag(z) V per receive branch, via the FFT.

    z and lam are (n_rx, N) arrays, giving W of shape (n_rx, N, d), or
    length-N vectors, giving (N, d).  Rows for tones with |lambda| below
    1e-6 of the branch peak are zeroed; fits exclude them.
    """
    z = np.asarray(z, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.complex128)
    mask = strong_tone_mask(lam)
    # one unitary FFT per (branch, column); each W[b] is an (N, d) view
    fzv = np.swapaxes(fft(z[..., None, :] * basis.v.T), -1, -2)
    w = np.zeros_like(fzv)
    w[mask] = fzv[mask] / lam[mask][:, None]
    return w


def solve_ls(w_rows: CMat, s_rows: CVec) -> CVec:
    """Minimum-norm least squares via the pseudoinverse."""
    if w_rows.shape[0] < 1:
        raise ValueError("no equation rows")
    return pinv(w_rows) @ s_rows


def solve_tls(w_rows: CMat, s_rows: CVec) -> CVec:
    """Total least squares from the SVD of [W, s].

    gamma = -q12/q22 from the last right singular vector; falls back to
    LS when q22 vanishes or when there are fewer rows than d + 1.
    """
    m, d = w_rows.shape
    if m < d + 1:
        return solve_ls(w_rows, s_rows)
    res = svd(np.column_stack([w_rows, s_rows]))
    q_last = res.q[:, d]
    q22 = q_last[d]
    if np.abs(q22) <= 1e-12:
        return solve_ls(w_rows, s_rows)
    return -q_last[:d] / q22


def tls_implied_perturbation(w_rows: CMat, s_rows: CVec, gamma: CVec) -> CMat:
    """Minimal [dW, ds] with (W+dW)gamma = s+ds; rank one in the residual."""
    r = w_rows @ gamma - s_rows
    g = np.concatenate([gamma, [-1.0 + 0j]])
    return -np.outer(r, g.conj()) / (np.linalg.norm(g) ** 2)


def equalize_only(z, lam) -> CVec:
    """MRC-combined per-tone equalization with no phase-noise correction."""
    z, lam = _as_branches(z), _as_branches(lam)
    fz = fft(z)
    num = np.sum(np.conj(lam) * fz, axis=0)
    den = np.sum(np.abs(lam) ** 2, axis=0)
    den = np.where(den == 0, 1.0, den)
    return num / den


def _mrc_combine(s_branches: CMat, lam: CMat) -> CVec:
    w = np.abs(lam) ** 2
    den = w.sum(axis=0)
    den = np.where(den == 0, 1.0, den)
    return (w * s_branches).sum(axis=0) / den


def fit_gamma(blocks, cfg: CompConfig) -> tuple[CVec, int]:
    """Fit gamma on the stacked equations of all blocks; (gamma, rows).

    A block is (W, usable-tone mask, ref): one per receive branch or user.
    Each contributes its usable pilot rows (target: the pilots), then, with
    cfg.use_null_tones, its usable null rows (target: zero).
    """
    rows, targets = [], []
    for w, usable, ref in blocks:
        layout = ref.layout
        p_idx = layout.pilot_arr[usable[layout.pilot_arr]]
        rows.append(w[p_idx])
        targets.append(ref.s[p_idx])
        if cfg.use_null_tones and layout.null_idx:
            n_idx = layout.null_arr[usable[layout.null_arr]]
            rows.append(w[n_idx])
            targets.append(np.zeros(len(n_idx), dtype=np.complex128))
    w_rows = np.vstack(rows)
    s_rows = np.concatenate(targets)
    solve = solve_tls if cfg.method == "TLS" else solve_ls
    return solve(w_rows, s_rows), w_rows.shape[0]


def compensate(w, lam, basis: CompBasis, ref: FreqSymbol,
               cfg: CompConfig = CompConfig()) -> CompResult:
    """Estimate gamma on pilot rows of all branches, correct and equalize.

    w is build_w(z, lam, B) for a basis B whose leading basis.d columns are
    basis.v; the fit uses those columns of w.  lam is (n_rx, N) (or a
    length-N vector for one branch), w correspondingly (n_rx, N, >= d).
    """
    lam = _as_branches(lam)
    w = np.asarray(w)
    w = w[None] if w.ndim == 2 else w
    if w.shape[:2] != lam.shape or w.shape[2] < basis.d:
        raise ValueError(f"W of shape {w.shape} does not fit {lam.shape[0]} "
                         f"branches of {lam.shape[1]} tones and d={basis.d}")
    w = w[:, :, :basis.d]
    gamma, n_eq = fit_gamma(
        [(w_b, mask_b, ref) for w_b, mask_b in zip(w, strong_tone_mask(lam))],
        cfg)
    s_branches = np.array([w_b @ gamma for w_b in w])
    s_hat = FreqSymbol(s=_mrc_combine(s_branches, lam), layout=ref.layout)
    return CompResult(
        gamma=gamma,
        s_hat=s_hat,
        correction=basis.v @ gamma,
        n_equations=n_eq,
        underdetermined=n_eq < basis.d,
    )
