"""Multiuser uplink compensation: per-tone ZF beamforming and joint LS.

All receive chains share one LO, so a single correction vector V @ gamma
is estimated from the pilot tones of every user at once.  The stacked
time-domain operator is realized per tone (circulant blocks diagonalize
under the DFT), never as a materialized Kronecker product.
"""

from __future__ import annotations

import numpy as np

from .channel import add_awgn
from .compensator import Receiver, fit_gamma
from .numerics import CVec, CMat, fft, ifft
from .ofdm import ToneLayout

RANK_TOL = 1e-9


def zf_beamformer(lam) -> tuple[np.ndarray, np.ndarray]:
    """Per-tone ZF matrices of the users' channels lam (n_users, n_rx, N),
    n_users <= n_rx: b (N, n_users, n_rx) with b[k] @ lam[..., k].T = I,
    the pseudoinverse of every tone's (n_rx, n_users) channel from one
    stacked SVD, and the full-rank tones ok (N,); rank-deficient tones get
    b[k] = 0.  Returns (b, ok)."""
    if lam.shape[0] > lam.shape[1]:  # kept: b would not invert lam
        raise ValueError(f"need n_rx >= n_users, got lam {lam.shape}")
    u, s, vh = np.linalg.svd(np.ascontiguousarray(lam.transpose(2, 1, 0)),
                             full_matrices=False)
    ok = (s[:, -1] > RANK_TOL * s[:, 0]) & (s[:, 0] > 0)
    if not ok.any():
        raise ValueError("all tones are rank-deficient")
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=ok[:, None])
    b = ((np.swapaxes(vh.conj(), -1, -2) * inv_s[:, None, :])
         @ np.swapaxes(u.conj(), -1, -2))
    b[~ok] = 0
    return b, ok


def mu_apply_channel(lam, x: np.ndarray) -> np.ndarray:
    """Noise-free received signal (..., n_rx, N) of the users' time-domain
    signals x (..., n_users, N) through their channels lam
    (n_users, n_rx, N): the users' branch signals H_u x_u, summed from
    zero in user order."""
    per_user = ifft(lam * fft(x)[..., None, :])
    y = np.zeros_like(per_user[..., 0, :, :])
    for u in range(lam.shape[0]):
        y += per_user[..., u, :, :]
    return y


def mu_received(lam, syms: CMat, psi_rx: CVec, tx_psi: list[CVec] | None,
                snr_db: float, rng: np.random.Generator) -> CMat:
    """One symbol's received time-domain signal per rx branch, (n_rx, N),
    for the users' symbols syms (n_users, N) through their channels lam
    (n_users, n_rx, N)."""
    x = ifft(syms)
    if tx_psi is not None:
        x = np.array(tx_psi) * x
    return psi_rx[None, :] * add_awgn(mu_apply_channel(lam, x), snr_db, rng)


def mu_build_w(z, b, v: CMat) -> np.ndarray:
    """Per-user W tensor (..., n_users, N, d) of the (N, d) basis v and
    the ZF matrices b of zf_beamformer, without Kronecker
    materialization; z is (..., n_rx, N): one symbol, or a block of
    symbols along leading axes."""
    # (..., n_rx, N, d): F diag(z_r) V, one FFT per (symbol, branch, column)
    g = np.swapaxes(fft(z[..., None, :] * v.T), -1, -2)
    # einsum, not a broadcast product summed over r: that sums in another
    # order and changes the last bits
    return np.einsum("kur,...rkd->...ukd", b, g)


def mu_receiver(ok, n_users: int, layout: ToneLayout, method: str = "LS",
                use_null_tones: bool = False) -> Receiver:
    """The fit constants of a ZF-beamformed channel whose full-rank tones
    are ok (N,): every user's W block uses those tones, each against its
    own reference."""
    usable = np.broadcast_to(ok, (n_users, len(ok)))
    return Receiver(layout=layout, usable=usable, method=method,
                    use_null_tones=use_null_tones, per_block_refs=True)


def mu_compensate(w, refs: CMat, rcv: Receiver) -> CMat:
    """Joint gamma from all users' pilot rows against their references
    refs (n_users, N); returns the per-user equalized symbols (n_users, N).
    w = mu_build_w(z, b, v) is one symbol's (n_users, N, d) and
    rcv = mu_receiver(ok, ...) is built once per channel."""
    return w @ fit_gamma(w, rcv, np.ravel(refs))
