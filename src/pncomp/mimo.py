"""Multiuser uplink compensation: per-tone ZF beamforming and joint LS.

All receive chains share one LO, so a single correction vector V @ gamma
is estimated from the pilot tones of every user at once.  The stacked
time-domain operator is realized per tone (circulant blocks diagonalize
under the DFT), never as a materialized Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CompBasis
from .channel import ChannelState, NoiseSpec, add_awgn
from .compensator import CompConfig, CompResult, Receiver, fit_gamma
from .numerics import CVec, CMat, fft, ifft
from .ofdm import FreqSymbol, ToneLayout

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


def mu_received(sys: MuSystem, syms: list[FreqSymbol], psi_rx: CVec,
                tx_psi: list[CVec] | None, noise: NoiseSpec,
                rng: np.random.Generator | None = None) -> CMat:
    """One symbol's received time-domain signal per rx branch, (n_rx, N)."""
    x = ifft(np.array([sym.s for sym in syms]))
    if tx_psi is not None:
        x = np.array(tx_psi) * x
    return psi_rx[None, :] * add_awgn(mu_apply_channel(sys, x), noise, rng)


def mu_build_w(z: CMat, bf: ZfBeamformer, basis: CompBasis) -> np.ndarray:
    """Per-user W tensor (n_users, N, d) without Kronecker materialization."""
    g = fft((z[:, :, None] * basis.v[None, :, :]).transpose(0, 2, 1))
    g = g.transpose(0, 2, 1)  # (n_rx, N, d): F diag(z_r) V
    return np.einsum("kur,rkd->ukd", bf.b, g)


def mu_receiver(bf: ZfBeamformer, layout: ToneLayout,
                cfg: CompConfig = CompConfig()) -> Receiver:
    """The fit constants of a ZF-beamformed channel: every user's W block
    uses the full-rank tones, each against its own reference."""
    n_users = bf.b.shape[1]
    usable = np.broadcast_to(bf.ok_tones, (n_users, len(bf.ok_tones)))
    return Receiver(cfg=cfg, layout=layout, usable=usable,
                    per_block_refs=True)


def mu_compensate(z: CMat, basis: CompBasis, refs: list[FreqSymbol],
                  bf: ZfBeamformer, rcv: Receiver) -> list[CompResult]:
    """Joint gamma from all users' pilot rows; per-user equalized symbols.
    bf and rcv = mu_receiver(bf, ...) are built once per channel."""
    w = mu_build_w(z, bf, basis)
    gamma, n_eq = fit_gamma(w, rcv, np.concatenate([r.s for r in refs]))
    return [CompResult(gamma=gamma,
                       s_hat=FreqSymbol(s=w[u] @ gamma, layout=ref.layout),
                       n_equations=n_eq, underdetermined=n_eq < basis.d)
            for u, ref in enumerate(refs)]
