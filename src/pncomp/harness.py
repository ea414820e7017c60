"""CLI experiment harness: configuration, sweeps and CSV output.

Scenarios mirror the standard evaluation shapes: EVM vs basis size,
EVM vs phase-noise level, multiuser sweep and tracking runs.  Everything
is deterministic given the master seed; per-task child seeds are derived
as the first 8 bytes of blake2b("{master}:{label}").
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import itertools
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import basis as basis_mod
from . import channel as channel_mod
from . import phase_noise as pn_mod
from .compensator import (CompConfig, build_w, compensate, equalize_only,
                          fit_gamma, receiver)
from .mimo import (MuSystem, mu_apply_channel, mu_build_w, mu_compensate,
                   mu_receiver, zf_beamformer)
from .numerics import ifft
from .ofdm import (Constellation, FreqSymbol, default_layout, ToneLayout,
                   evm_linear, make_symbol, ratio_to_db, symbol_error_rate)
from .tracker import (TrackedSymbol, TrackingConfig, init_tracker, run_tracked)

CSV_COLUMNS = ["scenario", "channel_seed", "symbol_index", "aggregate",
               "basis_kind", "d", "sigma_deg", "method", "evm_db", "ser",
               "n_equations", "wall_clock_s"]

SCENARIO_NAMES = ("evm_vs_d", "evm_vs_sigma", "mimo_sweep", "tracking",
                  "custom")
BASIS_KINDS = ("KL", "DFT", "DCT")
# basis kind of each fixed-basis track mode; "cpe" uses its first column
_FIXED_TRACK_MODES = {"dft": "DFT", "cpe": "DFT", "kl": "KL"}
TRACK_MODES = ("tracked", "frozen", *_FIXED_TRACK_MODES)
# symbols simulated, transformed and turned into W per step; bounds the
# memory of the block arrays (a W block is SYMBOL_BLOCK * n_rx * N * d)
SYMBOL_BLOCK = 32


class ConfigError(Exception):
    pass


def child_seed(master: int, *labels) -> int:
    tag = ":".join([str(master)] + [str(x) for x in labels])
    return int.from_bytes(
        hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class Scenario:
    """Fully-resolved experiment configuration with the standard defaults:
    N=64, 256-QAM, 16 pilots, 2 rx branches, sigma=3 deg, 100 symbols,
    300 channels scaled down by `scale` for desk runs."""

    name: str = "evm_vs_d"
    n: int = 64
    qam_order: int = 256
    n_rx: int = 2
    n_channels: int = 300
    n_symbols: int = 100
    scale: float = 0.1
    snr_db: float = 45.0
    sigma_deg: float = 3.0
    sigma_list: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    d: int = 8
    d_list: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16)
    basis_kinds: tuple = ("KL", "DFT")
    method: str = "LS"
    use_null_tones: bool = False
    null_tones: tuple = ()
    n_taps: int = 8
    channel_profile: str = "exp_decay(3)"
    pn_file: str = ""
    pn_order: int = 2
    pn_cutoff: float = 0.005
    pn_ripple_db: float = 1.0
    kl_cov_symbols: int = 500
    master_seed: int = 12345
    # multiuser sweep
    n_users: int = 2
    tx_sigma_list: tuple = (0.0, 1.0)
    # tracking
    beta: float = 0.9
    ppm: float = 0.0
    carrier_hz: float = 5e9
    sample_rate_hz: float = 20e6
    training_symbols: int = 300
    freeze_after: int = -1
    track_modes: tuple = ("tracked", "dft", "cpe")
    per_symbol_rows: bool = True

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.name!r}")
        # NaN and inf are stopped here, where they enter: no FFT or solver
        # scans its input (snr_db = inf, no noise, is NoiseSpec's to judge)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if (isinstance(v, float) and not np.isfinite(v)
                        and f.name != "snr_db"):
                    raise ConfigError(f"{f.name} must be finite, got {v}")
        for key, lo in (("n_rx", 1), ("n_channels", 1), ("n_symbols", 1),
                        ("kl_cov_symbols", 1), ("training_symbols", 0),
                        ("freeze_after", -1)):
            if getattr(self, key) < lo:
                raise ConfigError(f"{key} must be >= {lo}, "
                                  f"got {getattr(self, key)}")
        for key in ("sigma_list", "d_list", "basis_kinds", "track_modes",
                    "tx_sigma_list"):
            if not getattr(self, key):
                raise ConfigError(f"sweep ranges must be non-empty: {key}")
        if self.scale <= 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        # d = 0 means equalization only, which the sweeps score but the
        # tracker and the multiuser fit cannot run
        d_min = 1 if self.name in ("tracking", "mimo_sweep") else 0
        for key, values, lo in (("d", (self.d,), d_min),
                                ("d_list", self.d_list, 0)):
            bad = [d for d in values if not lo <= d <= self.n]
            if bad:
                raise ConfigError(f"{key}: {bad[0]} is outside "
                                  f"[{lo}, {self.n}] for {self.name}")
        for key, allowed in (("basis_kinds", BASIS_KINDS),
                             ("track_modes", TRACK_MODES)):
            bad = [v for v in getattr(self, key) if v not in allowed]
            if bad:
                raise ConfigError(f"{key}: unknown {bad[0]!r}, "
                                  f"expected one of {', '.join(allowed)}")
        if self.name == "mimo_sweep" and not 1 <= self.n_users <= self.n_rx:
            raise ConfigError(f"n_users must be in [1, n_rx = {self.n_rx}], "
                              f"got {self.n_users}")
        try:  # what a run resolves from the config, before any simulation
            self.layout, self.constellation, CompConfig(method=self.method)
            channel_mod.NoiseSpec(snr_db=self.snr_db)
            channel_mod.tap_weights(self.n_taps, self.channel_profile, self.n)
            for sigma in (self.sigma_deg, *self.sigma_list,
                          *self.tx_sigma_list):
                self.pn_model(0, sigma)
            if self.name == "tracking":
                ramp = self.offset.phase_per_sample * self.n_symbols * self.n
                if not np.isfinite(ramp):
                    raise ValueError(
                        f"carrier offset ppm = {self.ppm}, carrier_hz = "
                        f"{self.carrier_hz}, sample_rate_hz = "
                        f"{self.sample_rate_hz} overflows the phase ramp")
                init_tracker(self.n, self.d, beta=self.beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def n_channels_eff(self) -> int:
        return max(1, round(self.n_channels * self.scale))

    @property
    def layout(self) -> ToneLayout:
        lay = default_layout(self.n)
        if self.null_tones:
            return ToneLayout(n=self.n, pilot_idx=lay.pilot_idx,
                              null_idx=tuple(int(t) for t in self.null_tones))
        return lay

    @property
    def constellation(self) -> Constellation:
        return Constellation.qam(self.qam_order)

    @property
    def offset(self) -> pn_mod.CarrierOffset:
        return pn_mod.CarrierOffset(ppm=self.ppm, carrier_hz=self.carrier_hz,
                                    sample_rate_hz=self.sample_rate_hz)

    def pn_model(self, seed: int, sigma_deg: float) -> pn_mod.PnModel:
        return pn_mod.PnModel(
            sigma_deg=sigma_deg, seed=seed, order=self.pn_order,
            cutoff=self.pn_cutoff, ripple_db=self.pn_ripple_db)


def _coerce(key: str, raw: str, ref):
    raw = raw.strip()
    try:
        if isinstance(ref, bool):
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError
        if isinstance(ref, int):
            return int(raw)
        if isinstance(ref, float):
            return float(raw)
        if isinstance(ref, tuple):
            if not raw:
                return ()
            elem = ref[0] if ref else 0.0
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if isinstance(elem, str):
                return tuple(parts)
            if isinstance(elem, int):
                return tuple(int(p) for p in parts)
            return tuple(float(p) for p in parts)
        return raw
    except ValueError:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from None


def parse_config(path: str | None, overrides: dict | None = None) -> Scenario:
    """`key = value` file; unknown keys rejected; overrides win."""
    defaults = Scenario()
    values: dict = {}
    fields = {f.name: getattr(defaults, f.name)
              for f in dataclasses.fields(Scenario)}
    if path:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in fields:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, raw, fields[key])
    for key, val in (overrides or {}).items():
        if key not in fields:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = val
    try:
        return Scenario(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class ResultRow:
    scenario: str
    channel_seed: int | str
    symbol_index: int | str
    aggregate: int
    basis_kind: str
    d: int
    sigma_deg: float
    method: str
    evm_db: float
    ser: float
    n_equations: int | str
    wall_clock_s: str = ""

    def as_list(self) -> list:
        return [self.scenario, self.channel_seed, self.symbol_index,
                self.aggregate, self.basis_kind, self.d,
                f"{self.sigma_deg:.4f}", self.method,
                f"{self.evm_db:.6f}", f"{self.ser:.8f}",
                self.n_equations, self.wall_clock_s]


@dataclass
class _Acc:
    """Linear-domain EVM accumulator: dB of the mean error ratio."""

    err: float = 0.0
    ref: float = 0.0
    ser_sum: float = 0.0
    count: int = 0
    n_eq: int = 0

    def add(self, err: float, ref: float, ser: float, n_eq: int) -> None:
        self.err += err
        self.ref += ref
        self.ser_sum += ser
        self.count += 1
        self.n_eq = n_eq

    @property
    def evm_db(self) -> float:
        return ratio_to_db(self.err, self.ref)

    @property
    def ser(self) -> float:
        return self.ser_sum / max(self.count, 1)


def _pn_source(sc: Scenario, seed: int, sigmas, pn: list | None):
    """take(k): the next k symbols, k * N samples, of one seed's
    phase-noise stream at every level of sigmas, as one realization with
    a row per level.  The seed's white noise is filtered once for all
    levels.  The pn_file windows pn, if not None, replace the stream,
    cycled from the first, and ignore the levels."""
    if pn is not None:
        windows = itertools.cycle(pn)
        return lambda k: pn_mod.PhaseNoiseRealization.from_phi(np.tile(
            np.concatenate([next(windows).phi for _ in range(k)]),
            (len(sigmas), 1)))
    gen = pn_mod.PnGenerator(sc.pn_model(seed, sigmas[0]), sigmas)
    return lambda k: gen.next(k * sc.n)


def _kl_covs(sc: Scenario, ci: int, sigmas, pn) -> list[pn_mod.PnCovariance]:
    """Sample covariances that channel ci's KL bases are built from, one
    per level of sigmas."""
    take = _pn_source(sc, child_seed(sc.master_seed, "cov", ci), sigmas, pn)
    psi = take(sc.kl_cov_symbols).psi.reshape(len(sigmas), -1, sc.n)
    # one (levels, N) row per training symbol: every level in one pass
    r = pn_mod.estimate_cov(np.swapaxes(psi, 0, 1)).r
    return [pn_mod.PnCovariance(r=r_i) for r_i in r]


def _families(sc: Scenario, family_d: dict):
    """families(cov): each kind's basis at family_d[kind] columns; the DFT
    and DCT bases, the same for every channel and sigma, are built once."""
    fixed = {kind: (basis_mod.dft_basis if kind == "DFT"
                    else basis_mod.dct_basis)(sc.n, d)
             for kind, d in family_d.items() if kind != "KL"}
    return lambda cov: {kind: fixed[kind] if kind in fixed
                        else basis_mod.kl_basis(cov, d)
                        for kind, d in family_d.items()}


def _channel_symbols(sc: Scenario, ci: int, pn, sigmas, tx_sigmas=(0.0,),
                     users=((),), offset: pn_mod.CarrierOffset | None = None):
    """Channel ci's symbols at every (sigma, tx sigma) point, simulated
    SYMBOL_BLOCK at a time and each block only when it is asked for: per
    block, make_symbol, the IFFT and the noise draw run once, the channel
    once per distinct tx sigma, and the rx and each transmitter's tx phase
    noise once for all their levels, equal to simulating each point symbol
    by symbol.  users holds each transmitter's seed labels; ((),) is the
    single-user link.  Returns (MuSystem, generator of (refs, (i, j), z)):
    refs[m][u] is user u's symbol m and z (b, n_rx, N) the block received
    at sigmas[i] and tx_sigmas[j], with the carrier offset, if given."""
    seed, n = sc.master_seed, sc.n
    layout, const = sc.layout, sc.constellation
    sys_ = MuSystem(channels=tuple(
        channel_mod.gen_channel(sc.n_taps, sc.channel_profile,
                                child_seed(seed, "chan", ci, *user),
                                n_rx=sc.n_rx, n=n)
        for user in users))
    take_rx = _pn_source(sc, child_seed(seed, "pn", ci), sigmas, pn)
    # tx sigma 0 leaves the users' signals as they are; the others are
    # rows of one stream per user, always generated (pn_file is the rx's)
    tx_levels = [tx for tx in dict.fromkeys(tx_sigmas) if tx > 0]
    take_tx = [_pn_source(sc, child_seed(seed, "txpn", ci, *user), tx_levels,
                          None)
               for user in users] if tx_levels else []
    noise = channel_mod.NoiseSpec(snr_db=sc.snr_db)
    noise_rng = np.random.default_rng(child_seed(seed, "noise", ci))

    def blocks():
        for m0 in range(0, sc.n_symbols, SYMBOL_BLOCK):
            refs = [[make_symbol(layout, const,
                                 child_seed(seed, "sym", ci, m, *user))
                     for user in users]
                    for m in range(m0, min(m0 + SYMBOL_BLOCK, sc.n_symbols))]
            b = len(refs)
            x = ifft(np.array([[ref.s for ref in syms] for syms in refs]))
            # the noise is added before the rx phase noise, as at the receiver
            awgn = channel_mod.awgn((b, sc.n_rx, n), noise, noise_rng)
            # (levels, b, n_users, N)
            psi_tx = np.stack([take(b).psi.reshape(-1, b, n)
                               for take in take_tx], axis=2) if take_tx else None
            y = {}
            for tx in dict.fromkeys(tx_sigmas):
                x_tx = psi_tx[tx_levels.index(tx)] * x if tx > 0 else x
                y[tx] = mu_apply_channel(sys_, x_tx)
                if awgn is not None:
                    y[tx] = y[tx] + awgn
            psi_rx = take_rx(b)
            if offset is not None and offset.ppm != 0:
                psi_rx = pn_mod.apply_offset(psi_rx, offset,
                                             start_sample=m0 * n)
            for i, psi in enumerate(psi_rx.psi.reshape(-1, b, 1, n)):
                for j, tx in enumerate(tx_sigmas):
                    yield refs, (i, j), psi * y[tx]
    return sys_, blocks()


def _score(s_hats: list[FreqSymbol], refs: list[FreqSymbol], n_eqs,
           const: Constellation, accs) -> None:
    """Score the estimates s_hats against refs: one stacked EVM, then each
    estimate's SER.  Estimate i, fit with n_eqs[i] equations, is added to
    every accumulator of accs[i], in order."""
    if not refs:
        return
    err, refp = evm_linear(np.array([s.s for s in s_hats]),
                           np.array([r.s for r in refs]), refs[0].layout)
    for s, ref, e, p, n_eq, feeds in zip(s_hats, refs, err.tolist(),
                                         refp.tolist(), n_eqs, accs):
        ser = symbol_error_rate(s, ref, const)
        for acc in feeds:
            acc.add(e, p, ser, n_eq)


def _run_sweep(sc: Scenario, pn, sigmas, ds) -> list[ResultRow]:
    """Fixed-basis sweep over sigma x basis kind x d; d = 0 scores
    per-tone equalization without phase-noise correction.

    Each channel is simulated once for every sigma.  The KL basis is built
    once per channel and sigma at the largest d, the DFT and DCT bases once
    per run, and W once per symbol block and sigma; every d fits the whole
    block at once on their leading d columns, and each symbol is scored at
    every point in one stacked EVM.  Every (sigma, kind, d) accumulator
    sees its symbols in channel, then symbol order, so repeated sigmas give
    repeated rows."""
    const = sc.constellation
    cfg = CompConfig(method=sc.method, use_null_tones=sc.use_null_tones)
    points = [(kind, d) for kind in sc.basis_kinds for d in ds]
    d_max = max(ds)
    accs = [[_Acc() for _ in points] for _ in sigmas]
    feeds = [[(acc,) for acc in row] for row in accs]
    make_families = _families(
        sc, {kind: d_max for kind in sc.basis_kinds} if d_max else {})
    for ci in range(sc.n_channels_eff):
        sys_, blocks = _channel_symbols(sc, ci, pn, sigmas)
        rcv = receiver(sys_.channels[0].lam, sc.layout, cfg)
        covs = (_kl_covs(sc, ci, sigmas, pn)
                if d_max and "KL" in sc.basis_kinds else [None] * len(sigmas))
        families = [make_families(cov) for cov in covs]
        n_eqs = [len(rcv.tones) if d else 0 for _, d in points]
        for refs, (i, _), z in blocks:
            refs = [ref for ref, in refs]
            ws = {kind: build_w(z, rcv, fam)
                  for kind, fam in families[i].items()}
            refs_s = np.array([ref.s for ref in refs])
            gammas = {(kind, d): fit_gamma(ws[kind][..., :d], rcv, refs_s)[0]
                      for kind, d in points if d}
            # symbol by symbol, every point at once: each point combines
            # the symbol's W while it is in cache
            for m, ref in enumerate(refs):
                s_hats = [
                    compensate(ws[kind][m], rcv, gammas[(kind, d)][m],
                               ref).s_hat if d
                    else FreqSymbol(equalize_only(z[m], rcv), ref.layout)
                    for kind, d in points]
                _score(s_hats, [ref] * len(points), n_eqs, const, feeds[i])
    return [ResultRow(sc.name, "all", "", 1, kind, d, sigma, sc.method,
                      acc.evm_db, acc.ser, acc.n_eq)
            for sigma, row in zip(sigmas, accs)
            for (kind, d), acc in zip(points, row)]


def _run_mimo_sweep(sc: Scenario, pn) -> list[ResultRow]:
    """Multiuser sweep over the (sigma, tx sigma) points.  Each channel is
    simulated once for every point, and W built once per symbol block and
    point; each point keeps its own accumulator, so repeated values give
    repeated rows, and sees its symbols in channel, then symbol order."""
    const = sc.constellation
    cfg = CompConfig(method=sc.method, use_null_tones=sc.use_null_tones)
    accs = {pt: _Acc() for pt in itertools.product(
        range(len(sc.sigma_list)), range(len(sc.tx_sigma_list)))}
    users = tuple((u,) for u in range(sc.n_users))
    for ci in range(sc.n_channels_eff):
        sys_, blocks = _channel_symbols(sc, ci, pn, sc.sigma_list,
                                        sc.tx_sigma_list, users)
        bf = zf_beamformer(sys_)
        rcv = mu_receiver(bf, sc.layout, cfg)
        bases = [basis_mod.kl_basis(cov, sc.d)
                 for cov in _kl_covs(sc, ci, sc.sigma_list, pn)]
        for refs, pt, z in blocks:
            w = mu_build_w(z, bf, bases[pt[0]])
            results = [res for w_m, syms in zip(w, refs)
                       for res in mu_compensate(w_m, syms, rcv)]
            _score([res.s_hat for res in results],
                   [ref for syms in refs for ref in syms],
                   [len(rcv.tones)] * len(results), const,
                   [(accs[pt],)] * len(results))
    return [ResultRow(sc.name, "all", "", 1,
                      f"KL_tx{sc.tx_sigma_list[j]:g}", sc.d,
                      sc.sigma_list[i], sc.method, acc.evm_db, acc.ser,
                      acc.n_eq)
            for (i, j), acc in accs.items()]


def _run_tracking(sc: Scenario, pn) -> list[ResultRow]:
    """Each symbol block is finished before the next is simulated: the
    fixed-basis modes fit it at once on one W per block and basis family
    ("cpe": the DFT family's column 0), then the tracked modes run PAST
    through it symbol by symbol, each carrying its state from block to
    block.  One stacked EVM scores each mode's symbol block."""
    const = sc.constellation
    per_symbol = {mode: [_Acc() for _ in range(sc.n_symbols)]
                  for mode in sc.track_modes}
    totals = {mode: _Acc() for mode in sc.track_modes}
    cfg = CompConfig(method=sc.method, use_null_tones=sc.use_null_tones)
    mode_d = {mode: 1 if mode == "cpe" else sc.d for mode in sc.track_modes}
    fixed = [(m, _FIXED_TRACK_MODES[m]) for m in sc.track_modes
             if m in _FIXED_TRACK_MODES]
    family_d = {}  # each basis family at the largest d of its modes
    for mode, kind in fixed:
        family_d[kind] = max(family_d.get(kind, 0), mode_d[mode])
    tracked = {mode: TrackingConfig(
        constellation=const, training_symbols=sc.training_symbols,
        freeze_after=sc.freeze_after if (mode == "frozen"
                                         and sc.freeze_after >= 0) else None)
        for mode in sc.track_modes if mode not in _FIXED_TRACK_MODES}
    make_families = _families(sc, family_d)
    # every PAST step makes a new state, so all channels start from one
    init = init_tracker(sc.n, sc.d, beta=sc.beta)
    for ci in range(sc.n_channels_eff):
        sys_, blocks = _channel_symbols(sc, ci, pn, (sc.sigma_deg,),
                                        offset=sc.offset)
        rcv = receiver(sys_.channels[0].lam, sc.layout, cfg)
        families = make_families(_kl_covs(sc, ci, (sc.sigma_deg,), pn)[0]
                                 if "KL" in family_d else None)
        states = dict.fromkeys(tracked, init)

        def score(mode, m0, refs, s_hats):
            _score(s_hats, refs, [len(rcv.tones)] * len(refs), const,
                   [(acc, totals[mode])
                    for acc in per_symbol[mode][m0:m0 + len(refs)]])

        for b, (refs, _, z) in enumerate(blocks):
            m0 = b * SYMBOL_BLOCK
            refs = [ref for ref, in refs]
            ws = {kind: build_w(z, rcv, fam) for kind, fam in families.items()}
            refs_s = np.array([ref.s for ref in refs])
            gammas = {mode: fit_gamma(ws[kind][..., :mode_d[mode]], rcv,
                                      refs_s)[0] for mode, kind in fixed}
            # symbol by symbol, as the sweep; few modes, so each mode's
            # block is scored in one stack
            s_hats = [[compensate(ws[kind][i], rcv, gammas[mode][i], ref).s_hat
                       for mode, kind in fixed] for i, ref in enumerate(refs)]
            for (mode, _), block in zip(fixed, zip(*s_hats)):
                score(mode, m0, refs, block)
            for mode, tcfg in tracked.items():
                results, states[mode] = run_tracked(
                    (TrackedSymbol(z_i, rcv, ref)
                     for ref, z_i in zip(refs, z)), states[mode], tcfg,
                    start=m0)
                score(mode, m0, refs, [res.s_hat for res in results])
    rows = []
    for mode in sc.track_modes:
        if sc.per_symbol_rows:
            for m, acc in enumerate(per_symbol[mode]):
                rows.append(ResultRow(sc.name, "all", m, 0, mode, mode_d[mode],
                                      sc.sigma_deg, sc.method, acc.evm_db,
                                      acc.ser, acc.n_eq))
        acc = totals[mode]
        rows.append(ResultRow(sc.name, "all", "", 1, mode, mode_d[mode],
                              sc.sigma_deg, sc.method, acc.evm_db, acc.ser,
                              acc.n_eq))
    return rows


_RUNNERS = {  # (scenario, pn_file windows or None) -> rows
    "evm_vs_d": lambda sc, pn: _run_sweep(sc, pn, (sc.sigma_deg,), sc.d_list),
    "evm_vs_sigma": lambda sc, pn: _run_sweep(sc, pn, sc.sigma_list, (sc.d,)),
    "mimo_sweep": _run_mimo_sweep,
    "tracking": _run_tracking,
    "custom": lambda sc, pn: _run_sweep(sc, pn, (sc.sigma_deg,), (sc.d,)),
}


def run_scenario(sc: Scenario, out_path: str, timing: bool = False) -> list[ResultRow]:
    start = time.perf_counter()
    # the pn_file is parsed once per run; each stream cycles its windows
    pn = (list(pn_mod.load_pn_samples(sc.pn_file, sc.n)) if sc.pn_file
          else None)
    rows = _RUNNERS[sc.name](sc, pn)
    elapsed = time.perf_counter() - start
    if timing:
        # wall clock varies run to run; only emitted on request so the
        # default CSV stays byte-identical for a given seed
        for row in rows:
            row.wall_clock_s = f"{elapsed:.3f}"
    write_csv(rows, out_path)
    return rows


def write_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_list())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pncomp", description="OFDM phase-noise compensation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write a CSV")
    run_p.add_argument("--config", default=None, help="key = value file")
    run_p.add_argument("--scenario", default=None, choices=SCENARIO_NAMES)
    run_p.add_argument("--seed", type=int, default=None, help="master seed")
    run_p.add_argument("--out", default=None, help="output CSV path")
    run_p.add_argument("--scale", type=float, default=None,
                       help="fraction of the full channel count")
    run_p.add_argument("--full", action="store_true",
                       help="run at full scale (scale = 1)")
    run_p.add_argument("--timing", action="store_true",
                       help="emit wall-clock column (breaks byte determinism)")
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.scenario is not None:
        overrides["name"] = args.scenario
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.full:
        overrides["scale"] = 1.0
    try:
        sc = parse_config(args.config, overrides)
        if sc.pn_file:  # a missing or unreadable file, not its contents
            open(sc.pn_file).close()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out
    if out is None:
        out_dir = os.environ.get("PNCOMP_OUT_DIR", ".")
        out = os.path.join(out_dir, f"{sc.name}.csv")
    target = out if os.path.exists(out) else os.path.dirname(
        os.path.abspath(out))
    if os.path.isdir(out) or not os.access(target, os.W_OK):
        print(f"config error: cannot write {out!r}", file=sys.stderr)
        return 2
    try:
        run_scenario(sc, out, timing=args.timing)
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
