"""Multiuser uplink compensation: per-tone ZF beamforming and joint LS.

All receive chains share one LO, so a single correction vector V @ gamma
is estimated from the pilot tones of every user at once.  The stacked
time-domain operator is realized per tone (circulant blocks diagonalize
under the DFT), never as a materialized Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, NoiseSpec, add_awgn
from .compensator import CompConfig, Receiver, fit_gamma
from .numerics import CVec, CMat, fft, ifft
from .ofdm import ToneLayout

RANK_TOL = 1e-9


@dataclass(frozen=True)
class MuSystem:
    """n_users single-antenna transmitters into an n_rx-antenna receiver.

    channels[u] holds user u's ChannelState with n_rx branches; lam is the
    per-tone channel tensor of shape (N, n_rx, n_users).
    """

    channels: tuple[ChannelState, ...]

    def __post_init__(self):
        n_rx = self.channels[0].n_rx
        if len(self.channels) > n_rx:
            raise ValueError("need n_rx >= n_users")
        if any(ch.n_rx != n_rx for ch in self.channels):
            raise ValueError("all users must see the same receive branches")

    @property
    def n_users(self) -> int:
        return len(self.channels)

    @property
    def n_rx(self) -> int:
        return self.channels[0].n_rx

    @property
    def n(self) -> int:
        return self.channels[0].n

    @property
    def lam(self) -> np.ndarray:
        return np.stack([ch.lam.T for ch in self.channels], axis=2)


@dataclass(frozen=True)
class ZfBeamformer:
    """Per-tone ZF matrices b[k]: n_users x n_rx with b[k] @ lam[k] = I."""

    b: np.ndarray
    ok_tones: np.ndarray

    def __post_init__(self):
        if not np.any(self.ok_tones):
            raise ValueError("all tones are rank-deficient")


def zf_beamformer(sys: MuSystem) -> ZfBeamformer:
    """Pseudoinverse of every tone's (n_rx, n_users) channel from one
    stacked SVD; rank-deficient tones get b[k] = 0."""
    u, s, vh = np.linalg.svd(sys.lam, full_matrices=False)
    ok = (s[:, -1] > RANK_TOL * s[:, 0]) & (s[:, 0] > 0)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=ok[:, None])
    b = ((np.swapaxes(vh.conj(), -1, -2) * inv_s[:, None, :])
         @ np.swapaxes(u.conj(), -1, -2))
    b[~ok] = 0
    return ZfBeamformer(b=b, ok_tones=ok)


def mu_apply_channel(sys: MuSystem, x: np.ndarray) -> np.ndarray:
    """Noise-free received signal (..., n_rx, N) of the users' time-domain
    signals x (..., n_users, N): the users' branch signals H_u x_u, summed
    from zero in user order."""
    lam = np.stack([ch.lam for ch in sys.channels])  # (n_users, n_rx, N)
    per_user = ifft(lam * fft(x)[..., None, :])
    y = np.zeros(per_user.shape[:-3] + per_user.shape[-2:],
                 dtype=np.complex128)
    for u in range(sys.n_users):
        y += per_user[..., u, :, :]
    return y


def mu_received(sys: MuSystem, syms: CMat, psi_rx: CVec,
                tx_psi: list[CVec] | None, noise: NoiseSpec,
                rng: np.random.Generator) -> CMat:
    """One symbol's received time-domain signal per rx branch, (n_rx, N),
    for the users' symbols syms (n_users, N)."""
    x = ifft(syms)
    if tx_psi is not None:
        x = np.array(tx_psi) * x
    return psi_rx[None, :] * add_awgn(mu_apply_channel(sys, x), noise, rng)


def mu_build_w(z, bf: ZfBeamformer, v: CMat) -> np.ndarray:
    """Per-user W tensor (..., n_users, N, d) of the (N, d) basis v without
    Kronecker materialization; z is (..., n_rx, N): one symbol, or a block
    of symbols along leading axes."""
    # (..., n_rx, N, d): F diag(z_r) V, one FFT per (symbol, branch, column)
    g = np.swapaxes(fft(z[..., None, :] * v.T), -1, -2)
    # einsum, not a broadcast product summed over r: that sums in another
    # order and changes the last bits
    return np.einsum("kur,...rkd->...ukd", bf.b, g)


def mu_receiver(bf: ZfBeamformer, layout: ToneLayout,
                cfg: CompConfig = CompConfig()) -> Receiver:
    """The fit constants of a ZF-beamformed channel: every user's W block
    uses the full-rank tones, each against its own reference."""
    n_users = bf.b.shape[1]
    usable = np.broadcast_to(bf.ok_tones, (n_users, len(bf.ok_tones)))
    return Receiver(cfg=cfg, layout=layout, usable=usable,
                    per_block_refs=True)


def mu_compensate(w, refs: CMat, rcv: Receiver) -> CMat:
    """Joint gamma from all users' pilot rows against their references
    refs (n_users, N); returns the per-user equalized symbols (n_users, N).
    w = mu_build_w(z, bf, v) is one symbol's (n_users, N, d) and
    rcv = mu_receiver(bf, ...) is built once per channel."""
    return w @ fit_gamma(w, rcv, np.ravel(refs))
