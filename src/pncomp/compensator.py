"""Per-symbol phase-noise compensation: W construction, LS/TLS fit, equalize.

The correction vector V @ gamma approximates exp(-j*phi); gamma is fit on
the pilot rows of W = diag(1/lambda) F diag(z) V (one block per receive
branch), optionally augmented with null-tone rows; what depends only on
the channel is built once per channel in a Receiver.  Column j of W depends
only on column j of V, so a W built for a basis serves every leading-column
prefix of that basis: one W per symbol fits every d of a basis family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CompBasis
from .numerics import CVec, CMat, fft, pinv, svd
from .ofdm import FreqSymbol, ToneLayout

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
    n_equations: int
    underdetermined: bool = False


def _as_branches(a) -> CMat:
    a = np.asarray(a, dtype=np.complex128)
    return a[None, :] if a.ndim == 1 else a


@dataclass(frozen=True, eq=False)
class Receiver:
    """A channel's fit constants.  usable (n_blocks, N): the tones each
    block of W (receive branch or user) may fit on.  rows: (block, tone) of
    each block's usable pilot rows, then null rows if cfg.use_null_tones.
    tones: each row's target in the reference tones (one shared reference,
    or one per block if per_block_refs) plus a trailing zero for null rows.
    lam, mrc_w = |lam|^2 and guarded mrc_den = sum mrc_w: MRC, single-user."""

    cfg: CompConfig
    layout: ToneLayout
    usable: np.ndarray
    per_block_refs: bool = False
    lam: CMat | None = None
    mrc_w: np.ndarray | None = None
    mrc_den: np.ndarray | None = None

    def __post_init__(self):
        lay, n_blocks = self.layout, self.usable.shape[0]
        cand = lay.pilot_arr
        if self.cfg.use_null_tones:
            cand = np.concatenate((cand, lay.null_arr))
        block, j = np.nonzero(self.usable[:, cand])  # block-major order
        tone = cand[j]
        target = tone + block * lay.n if self.per_block_refs else tone
        zero = lay.n * (n_blocks if self.per_block_refs else 1)
        object.__setattr__(self, "rows", (block, tone))
        object.__setattr__(self, "tones", np.where(
            j < len(lay.pilot_arr), target, zero))


def receiver(lam, layout: ToneLayout,
             cfg: CompConfig = CompConfig()) -> Receiver:
    """The Receiver of a channel with per-tone response lam, (n_rx, N);
    tones within 1e-6 of their branch's peak |lambda| are usable."""
    lam = _as_branches(lam)
    mag = np.abs(lam)
    peak = mag.max(axis=-1, keepdims=True)
    if (peak == 0).any():
        raise ValueError("all-zero channel response")
    mrc_w = mag ** 2
    den = mrc_w.sum(axis=0)
    return Receiver(cfg=cfg, layout=layout, usable=mag >= WEAK_TONE_REL * peak,
                    lam=lam, mrc_w=mrc_w, mrc_den=np.where(den == 0, 1.0, den))


def build_w(z, rcv: Receiver, basis: CompBasis) -> np.ndarray:
    """W = diag(1/lambda) F diag(z) V per receive branch, via the FFT.

    z is (..., n_rx, N): one symbol, or a block of symbols along leading
    axes, giving W of shape (..., n_rx, N, d).  Rows of tones the receiver
    cannot use (|lambda| below 1e-6 of the branch peak) are zero.
    """
    z = np.asarray(z, dtype=np.complex128)
    # one unitary FFT per (symbol, branch, column); each W[b] is an (N, d) view
    fzv = np.swapaxes(fft(z[..., None, :] * basis.v.T), -1, -2)
    return np.divide(fzv, rcv.lam[..., None], out=np.zeros_like(fzv),
                     where=rcv.usable[..., None])


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


def equalize_only(z, rcv: Receiver) -> CVec:
    """MRC-combined per-tone equalization with no phase-noise correction."""
    fz = fft(_as_branches(z))
    return np.sum(np.conj(rcv.lam) * fz, axis=0) / rcv.mrc_den


def fit_gamma(w, rcv: Receiver, refs_s: CVec) -> tuple[CVec, int]:
    """Fit gamma on rcv's pilot (and null) rows of w (n_blocks, N, d);
    refs_s: the reference tones (per block concatenated if per_block_refs).
    Returns (gamma, number of rows)."""
    w_rows = w[rcv.rows]
    s_rows = np.concatenate((refs_s, [0]))[rcv.tones]
    solve = solve_tls if rcv.cfg.method == "TLS" else solve_ls
    return solve(w_rows, s_rows), w_rows.shape[0]


def compensate(w, rcv: Receiver, basis: CompBasis,
               ref: FreqSymbol) -> CompResult:
    """Estimate gamma on pilot rows of all branches, correct and equalize.

    w is build_w(z, rcv, B) for one symbol and a basis B whose leading
    basis.d columns are basis.v, shape (n_rx, N, >= d); the fit uses those
    columns of w.
    """
    w = np.asarray(w)
    if w.ndim != 3 or w.shape[:2] != rcv.usable.shape or w.shape[2] < basis.d:
        raise ValueError(f"W of shape {w.shape} does not fit (n_rx, N) = "
                         f"{rcv.usable.shape} and d={basis.d}")
    if ref.layout != rcv.layout:
        raise ValueError("reference layout differs from the receiver's")
    w = w[:, :, :basis.d]
    gamma, n_eq = fit_gamma(w, rcv, ref.s)
    s_mrc = (rcv.mrc_w * (w @ gamma)).sum(axis=0) / rcv.mrc_den
    return CompResult(
        gamma=gamma,
        s_hat=FreqSymbol(s=s_mrc, layout=ref.layout),
        n_equations=n_eq,
        underdetermined=n_eq < basis.d,
    )
