"""Phase-noise compensation: W construction, LS/TLS fit, equalize.

The correction vector V @ gamma approximates exp(-j*phi); gamma is fit on
the pilot rows of W = diag(1/lambda) F diag(z) V (one block per receive
branch), optionally augmented with null-tone rows; what depends only on
the channel is built once per channel in a Receiver.  Column j of W depends
only on column j of V, so a W built for a basis serves every leading-column
prefix of that basis: one W per symbol fits every d of a basis family.
fit_prefixes, the one fit, fits a block of symbols, or one, at every d of
a family at once: by LS from one QR of the fit rows, with solve_ls's pinv
only as its fallback, by TLS from solve_tls per d.  compensate then
applies one symbol's gamma.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache

import numpy as np

from .numerics import DEFAULT_RCOND, CVec, CMat, fft, pinv, svd
from .ofdm import ToneLayout

WEAK_TONE_REL = 1e-6
# fit_prefixes's mask, cached: building it per call costs what raw mode saves
_strict_lower = lru_cache(lambda m, n: np.tri(m, n, -1, dtype=bool))


@dataclass(frozen=True, eq=False)
class Receiver:
    """A channel's fit constants.  usable (n_blocks, N): the tones each
    block of W (receive branch or user) may fit on.  method: "LS" or
    "TLS".  rows: (block, tone) of each block's usable pilot rows, then
    null rows if use_null_tones.  tones: each row's index block*N + tone
    into the reference, read modulo its length; a null row's target is
    the reference's null tone, 0 in every drawn symbol.  lam_div: lam
    with inf on the unusable tones, the divisor of build_w.  lam, mrc_w =
    |lam|^2 and guarded mrc_den = sum mrc_w: MRC, single-user."""

    layout: ToneLayout
    usable: np.ndarray
    method: str
    use_null_tones: InitVar[bool]
    lam: CMat | None = None
    lam_div: CMat | None = None
    mrc_w: np.ndarray | None = None
    mrc_den: np.ndarray | None = None

    def __post_init__(self, use_null_tones):
        # kept: fit_prefixes would end in an UnboundLocalError
        if self.method not in ("LS", "TLS"):
            raise ValueError(f"method must be LS or TLS, got {self.method!r}")
        lay = self.layout
        cand = lay.pilot_arr
        if use_null_tones:
            cand = np.concatenate((cand, lay.null_arr))
        block, j = np.nonzero(self.usable[:, cand])  # block-major order
        tone = cand[j]
        object.__setattr__(self, "rows", (block, tone))
        object.__setattr__(self, "tones", tone + block * lay.n)


def receiver(lam, layout: ToneLayout, method: str = "LS",
             use_null_tones: bool = False) -> Receiver:
    """The Receiver of a channel with per-tone response lam, (n_rx, N);
    tones within 1e-6 of their branch's peak |lambda| are usable."""
    mag = np.abs(lam)
    peak = mag.max(axis=-1, keepdims=True)
    if (peak == 0).any():
        raise ValueError("all-zero channel response")
    mrc_w = mag ** 2
    den = mrc_w.sum(axis=0)
    usable = mag >= WEAK_TONE_REL * peak
    return Receiver(layout=layout, usable=usable, method=method,
                    use_null_tones=use_null_tones, lam=lam,
                    lam_div=np.where(usable, lam, np.inf), mrc_w=mrc_w,
                    mrc_den=np.where(den == 0, 1.0, den))


def build_w(z, rcv: Receiver, v: CMat) -> np.ndarray:
    """W = diag(1/lambda) F diag(z) V per receive branch, via the FFT.

    z is (..., n_rx, N): one symbol, or a block of symbols along leading
    axes; with the (N, d) basis v, W has shape (..., n_rx, N, d).  Rows
    of tones the receiver cannot use (|lambda| below 1e-6 of the branch
    peak) are divided by inf, so they are zero (+0.0 or -0.0).
    """
    z = np.asarray(z, dtype=np.complex128)
    # one unitary FFT per (symbol, branch, column), in place in the product,
    # so W comes out C-contiguous: the combine's bits rely on that
    w = z[..., None, :] * v.T
    fft(w, out=w)
    w /= rcv.lam_div[..., None, :]
    return w.swapaxes(-1, -2)


def solve_ls(w_rows: CMat, s_rows: CVec) -> CVec:
    """Minimum-norm least squares via the pseudoinverse; w_rows (..., m, d)
    and s_rows (..., m) may stack one system per leading index."""
    if w_rows.shape[-2] < 1:
        raise ValueError("no equation rows")
    return (pinv(w_rows) @ s_rows[..., None])[..., 0]


def solve_tls(w_rows: CMat, s_rows: CVec) -> CVec:
    """Total least squares from the SVD of [W, s], per stacked system.

    gamma = -q12/q22 from the last right singular vector; the systems whose
    q22 vanishes are refit by LS, and all of them are when there are fewer
    rows than d + 1.
    """
    m, d = w_rows.shape[-2:]
    if m < d + 1:
        return solve_ls(w_rows, s_rows)
    ws = np.concatenate((w_rows, s_rows[..., None]), axis=-1)
    _, _, q = svd(ws)
    q_last = q[..., d]
    q22 = q_last[..., d]
    weak = np.abs(q22) <= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):  # weak: refit
        gamma = -q_last[..., :d] / q22[..., None]
    if weak.any():
        gamma[weak] = solve_ls(w_rows[weak], s_rows[weak])
    return gamma


def equalize_only(z, rcv: Receiver) -> CVec:
    """MRC-combined per-tone equalization of one symbol z (n_rx, N) with
    no phase-noise correction."""
    fz = fft(z)
    return np.sum(np.conj(rcv.lam) * fz, axis=0) / rcv.mrc_den


def fit_prefixes(w, rcv: Receiver, refs_s: CVec, ds) -> dict:
    """{d: gamma (..., d)} for each d >= 1 of ds, fit on rcv's pilot (and
    null) rows of the leading d columns of w (..., n_blocks, N, >= d), one
    fit per leading index (symbol).  refs_s (..., N) serves every block, or
    (..., n_blocks*N) holds one per block: row (block, tone) reads index
    block*N + tone modulo its length.  By TLS, solve_tls fits each d; by
    LS, gamma solves R[:d, :d] gamma = R[:d, -1] from one QR of the rows
    [W[..., :max(ds)] | s], and solve_ls's pinv fits a d with fewer rows
    than d and each symbol whose min |r_ii| <= DEFAULT_RCOND * max."""
    d_max, (block, tone) = max(ds), rcv.rows
    # contiguous rows: a strided right-hand side changes the matmul's bits
    if rcv.method == "TLS":
        w_rows = np.ascontiguousarray(w[..., block, tone, :d_max])
        s_rows = np.take(refs_s, rcv.tones, axis=-1, mode="wrap")
        return {d: solve_tls(w_rows[..., :d], s_rows) for d in ds}
    a = np.empty(w.shape[:-3] + (len(tone), d_max + 1), dtype=np.complex128)
    a[..., :-1] = w[..., block, tone, :d_max]
    s_rows = np.take(refs_s, rcv.tones, axis=-1, mode="wrap", out=a[..., -1])
    r = np.linalg.qr(a, mode="raw")[0].swapaxes(-1, -2)
    np.copyto(r, 0, where=_strict_lower(*r.shape[-2:]))  # R: the upper part
    r_ii = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    gammas = {}
    for d in ds:
        if len(tone) < d:
            gammas[d] = solve_ls(a[..., :d], np.ascontiguousarray(s_rows))
            continue
        tri = r[..., :d, :d]  # solve copies it: a view gives its bits
        diag = r_ii[..., :d]
        weak = diag.min(axis=-1) <= DEFAULT_RCOND * diag.max(axis=-1)
        if any_weak := weak.any():  # weak ones -> I, so solve won't raise
            tri = np.where(weak[..., None, None], np.eye(d), tri)
        gammas[d] = np.linalg.solve(tri, r[..., :d, -1:])[..., 0]
        if any_weak:  # boolean indexing copies: contiguous rows
            gammas[d][weak] = solve_ls(a[..., :d][weak], s_rows[weak])
    return gammas


def compensate(w, rcv: Receiver, gamma: CVec) -> CVec:
    """Correct and MRC-equalize one symbol with its gamma from
    fit_prefixes; returns the estimate (N,).

    w is build_w(z, rcv, v) for the symbol and a basis v whose leading d =
    len(gamma) columns gamma was fit on, shape (n_rx, N, >= d).
    """
    s_mrc = w[:, :, :len(gamma)] @ gamma
    s_mrc = np.multiply(rcv.mrc_w, s_mrc, out=s_mrc).sum(axis=0)
    s_mrc /= rcv.mrc_den
    return s_mrc
