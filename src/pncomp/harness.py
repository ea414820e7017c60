"""CLI experiment harness: configuration, sweeps and CSV output.

Scenarios mirror the standard evaluation shapes: EVM vs basis size,
EVM vs phase-noise level, multiuser sweep and tracking runs.  Everything
is deterministic given the master seed; per-task child seeds are derived
as the first 8 bytes of blake2b("{master}:{label}").
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import os
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import basis as basis_mod
from . import channel as channel_mod
from . import phase_noise as pn_mod
from .compensator import (Receiver, build_w, compensate, equalize_only,
                          fit_prefixes, receiver)
from .mimo import mu_apply_channel, mu_build_w, mu_compensate, zf_beamformer
from .numerics import ifft
from .ofdm import (DEFAULT_N, Constellation, default_layout, ToneLayout,
                   evm_linear, make_symbol, ratio_to_db, symbol_error_rate)
from .tracker import init_tracker, run_tracked

SCENARIO_NAMES = ("evm_vs_d", "evm_vs_sigma", "mimo_sweep", "tracking",
                  "custom")
BASIS_KINDS = ("KL", "DFT", "DCT")
# basis kind of each fixed-basis track mode; "cpe" uses its first column
_FIXED_TRACK_MODES = {"dft": "DFT", "cpe": "DFT", "kl": "KL"}
TRACK_MODES = ("tracked", "frozen", *_FIXED_TRACK_MODES)
# symbols simulated, transformed and turned into W per step; bounds the
# memory of the block arrays (a W block is SYMBOL_BLOCK * n_rx * N * d)
SYMBOL_BLOCK = 32

_AT_LEAST_0 = (">= 0", lambda v: v >= 0)
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
# key: (rule, test[, the only scenario it holds in]).  Each value or list
# entry of the key must pass test, and a list key here must not be empty;
# the rules that relate keys are code in Scenario.__post_init__
_RULES = {
    "name": ("one of " + ", ".join(SCENARIO_NAMES),
             SCENARIO_NAMES.__contains__),
    "method": ("LS or TLS", ("LS", "TLS").__contains__),
    "basis_kinds": ("one of " + ", ".join(BASIS_KINDS),
                    BASIS_KINDS.__contains__),
    "track_modes": ("one of " + ", ".join(TRACK_MODES),
                    TRACK_MODES.__contains__),
    "scale": ("> 0", lambda v: v > 0),
    "n_rx": _AT_LEAST_1, "n_channels": _AT_LEAST_1,
    "n_symbols": _AT_LEAST_1, "kl_cov_symbols": _AT_LEAST_1,
    "training_symbols": _AT_LEAST_0,
    "freeze_after": (">= -1", lambda v: v >= -1),
    "sigma_deg": _AT_LEAST_0, "sigma_list": _AT_LEAST_0,
    "tx_sigma_list": _AT_LEAST_0, "d_list": _AT_LEAST_0,
    "pn_order": _AT_LEAST_0,
    "pn_cutoff": ("in (0, 0.5)", lambda v: 0 < v < 0.5),
    "pn_ripple_db": ("> 0", lambda v: v > 0),
    "beta": ("in (0, 1]", lambda v: 0 < v <= 1, "tracking"),
    "sample_rate_hz": ("> 0", lambda v: v > 0, "tracking"),
}


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
    n = DEFAULT_N  # not a field: the default pilot placement fixes N
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
        # one pass over the fields: NaN and inf are stopped here, where
        # they enter, as no FFT or solver scans its input (snr_db = inf
        # means no noise), and each value or list entry passes its _RULES
        for f in dataclasses.fields(self):
            key, value = f.name, getattr(self, f.name)
            rule, test, *only = _RULES.get(key, (None, None))
            if only and self.name not in only:
                test = None
            values = value if isinstance(value, tuple) else (value,)
            if test and not values:
                raise ConfigError(f"{key} must not be empty")
            for v in values:
                if (isinstance(v, float) and not np.isfinite(v)
                        and (key, v) != ("snr_db", np.inf)):
                    raise ConfigError(f"{key} must be finite, got {v}")
                if test and not test(v):
                    raise ConfigError(f"{key} must be {rule}, got {v!r}")
        try:  # the noise power channel.awgn draws at
            10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            raise ConfigError(f"snr_db = {self.snr_db} gives a noise power "
                              f"beyond the float range") from None
        bad = [t for t in self.null_tones if t != int(t)]
        if bad:
            raise ConfigError(f"null_tones: {bad[0]} is not a tone index")
        # d = 0 means equalization only, which the sweeps score but the
        # tracker and the multiuser fit cannot run
        d_min = 1 if self.name in ("tracking", "mimo_sweep") else 0
        for key, values, lo in (("d", (self.d,), d_min),
                                ("d_list", self.d_list, 0)):
            bad = [d for d in values if not lo <= d <= self.n]
            if bad:
                raise ConfigError(f"{key}: {bad[0]} is outside "
                                  f"[{lo}, {self.n}] for {self.name}")
        if self.name == "mimo_sweep" and not 1 <= self.n_users <= self.n_rx:
            raise ConfigError(f"n_users must be in [1, n_rx = {self.n_rx}], "
                              f"got {self.n_users}")
        key = "null_tones"  # the key that ofdm's messages below are about
        try:  # what a run resolves from the config, before any simulation
            if not self.layout.data_arr.size:
                raise ValueError("no data tones are left to score")
            key = "qam_order"
            self.constellation
            key = None  # the messages below name their keys
            channel_mod.tap_weights(self.n_taps, self.channel_profile, self.n)
            pn_mod.design_filter(self.pn_order, self.pn_cutoff,
                                 self.pn_ripple_db)
            if self.name == "tracking":
                ramp = self.phase_per_sample * self.n_symbols * self.n
                if not np.isfinite(ramp):
                    raise ValueError(
                        f"carrier offset ppm = {self.ppm}, carrier_hz = "
                        f"{self.carrier_hz}, sample_rate_hz = "
                        f"{self.sample_rate_hz} overflows the phase ramp")
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}" if key else str(exc)) from None

    @property
    def n_channels_eff(self) -> int:
        return max(1, round(self.n_channels * self.scale))

    @property
    def layout(self) -> ToneLayout:
        return default_layout(tuple(int(t) for t in self.null_tones))

    @property
    def constellation(self) -> Constellation:
        return Constellation.qam(self.qam_order)

    @property
    def phase_per_sample(self) -> float:
        """2*pi*delta_f*Ts of the offset ramp, delta_f = ppm*1e-6*carrier_hz."""
        return (2.0 * np.pi * (self.ppm * 1e-6 * self.carrier_hz)
                / self.sample_rate_hz)


def _coerce(key: str, raw: str, ref):
    """raw parsed as the type of key's default ref: a bool, a comma list of
    the type of ref's first entry (float if ref is empty), or type(ref)."""
    raw = raw.strip()
    try:
        if isinstance(ref, bool):
            return {"1": True, "true": True, "yes": True, "0": False,
                    "false": False, "no": False}[raw.lower()]
        if isinstance(ref, tuple):
            elem = type(ref[0]) if ref else float
            return tuple(elem(p.strip()) for p in raw.split(",") if p.strip())
        return type(ref)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from None


def parse_config(path: str | None, overrides: dict | None = None) -> Scenario:
    """`key = value` file; unknown and repeated keys rejected; overrides
    win."""
    values: dict = {}
    lines: dict = {}  # key: the file line that set it
    fields = {f.name: f.default for f in dataclasses.fields(Scenario)}
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:  # any BOM dropped
                text = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from None
        for lineno, line in enumerate(text, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(f"{key} is set twice in {path}, on "
                                  f"lines {lines[key]} and {lineno}")
            lines[key] = lineno
            values[key] = _coerce(key, raw, fields[key])
    for key, val in (overrides or {}).items():
        if key not in fields:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = val
    try:
        return Scenario(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


class ResultRow(NamedTuple):
    """One CSV row; the field order is the CSV header.  wall_clock_s is
    always empty, so a seed's CSV is the same bytes on every run."""
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


CSV_COLUMNS = list(ResultRow._fields)


def _pn_source(sc: Scenario, seed: int, sigmas, pn: np.ndarray | None):
    """take(k): psi = exp(j*phi) of the next k symbols, k * N samples, of
    one seed's phase-noise stream at every level of sigmas, (levels, k * N).
    The seed's white noise is filtered once for all levels.  The pn_file
    angle windows pn (windows, N), if not None, replace the stream, cycled
    from the first, and ignore the levels: each level's row is the same."""
    if pn is not None:
        windows = itertools.cycle(pn)
        return lambda k: np.exp(1j * np.tile(np.concatenate(
            [next(windows) for _ in range(k)]), (len(sigmas), 1)))
    gen = pn_mod.PnGenerator(seed, sigmas, sc.pn_order, sc.pn_cutoff,
                             sc.pn_ripple_db)
    return lambda k: gen.next(k * sc.n)


def _kl_covs(sc: Scenario, ci: int, sigmas, pn) -> np.ndarray:
    """Sample covariances (levels, N, N) that channel ci's KL bases are
    built from, one per level of sigmas.  The training symbols are drawn
    SYMBOL_BLOCK at a time, so memory does not grow with kl_cov_symbols."""
    take = _pn_source(sc, child_seed(sc.master_seed, "cov", ci), sigmas, pn)
    blocks = (take(min(SYMBOL_BLOCK, sc.kl_cov_symbols - m0))
              .reshape(len(sigmas), -1, sc.n)
              for m0 in range(0, sc.kl_cov_symbols, SYMBOL_BLOCK))
    # one (levels, N) row per training symbol: every level in one pass
    return pn_mod.estimate_cov(row for psi in blocks
                               for row in np.swapaxes(psi, 0, 1))


def _bases(sc: Scenario, points, sigmas, pn):
    """bases(ci): channel ci's {kind: basis} at each level of sigmas, for
    the (kind, d) points, each kind at the largest d it is fit at (d = 0
    fits none).  The DFT and DCT bases, the same for every channel and
    sigma, are built once; the KL bases once per channel and sigma, from
    _kl_covs, and only if some point needs them."""
    d_max = {}
    for kind, d in points:
        if d:
            d_max[kind] = max(d_max.get(kind, 0), d)
    fixed = {kind: (basis_mod.dft_basis if kind == "DFT"
                    else basis_mod.dct_basis)(sc.n, d)
             for kind, d in d_max.items() if kind != "KL"}
    if "KL" not in d_max:
        return lambda ci: [fixed] * len(sigmas)
    return lambda ci: [{**fixed, "KL": basis_mod.kl_basis(r, d_max["KL"])}
                       for r in _kl_covs(sc, ci, sigmas, pn)]


def _channel_symbols(sc: Scenario, ci: int, pn, sigmas, tx_sigmas=(0.0,),
                     users=((),), offset: bool = False):
    """Channel ci's symbols at every (sigma, tx sigma) point, simulated
    SYMBOL_BLOCK at a time and each block only when it is asked for: per
    block, make_symbol, the IFFT and the noise draw run once, the channel
    once per distinct tx sigma, and the rx and each transmitter's tx phase
    noise once for all their levels, equal to simulating each point symbol
    by symbol.  users holds each transmitter's seed labels; ((),) is the
    single-user link.  Returns (lam, generator of (refs, (i, j), z)): lam
    (n_users, n_rx, N) holds the users' channels, refs[m, u] is user u's
    symbol m, refs (b, n_users, N), and z (b, n_rx, N) the block received
    at sigmas[i] and tx_sigmas[j], with sc's carrier offset if offset and
    sc.ppm != 0."""
    seed, n = sc.master_seed, sc.n
    layout, const = sc.layout, sc.constellation
    lam = np.stack([channel_mod.gen_channel(
        sc.n_taps, sc.channel_profile, child_seed(seed, "chan", ci, *user),
        n_rx=sc.n_rx, n=n) for user in users])
    take_rx = _pn_source(sc, child_seed(seed, "pn", ci), sigmas, pn)
    # tx sigma 0 leaves the users' signals as they are; the others are
    # rows of one stream per user, always generated (pn_file is the rx's)
    tx_levels = [tx for tx in dict.fromkeys(tx_sigmas) if tx > 0]
    take_tx = [_pn_source(sc, child_seed(seed, "txpn", ci, *user), tx_levels,
                          None)
               for user in users] if tx_levels else []
    ramp = sc.phase_per_sample if offset and sc.ppm != 0 else None
    noise_rng = np.random.default_rng(child_seed(seed, "noise", ci))

    def blocks():
        for m0 in range(0, sc.n_symbols, SYMBOL_BLOCK):
            b = min(SYMBOL_BLOCK, sc.n_symbols - m0)
            refs = np.array([[make_symbol(layout, const,
                                          child_seed(seed, "sym", ci, m, *u))
                              for u in users] for m in range(m0, m0 + b)])
            x = ifft(refs)
            # the noise is added before the rx phase noise, as at the receiver
            awgn = channel_mod.awgn((b, sc.n_rx, n), sc.snr_db, noise_rng)
            # (levels, b, n_users, N)
            psi_tx = np.stack([take(b).reshape(-1, b, n)
                               for take in take_tx], axis=2) if take_tx else None
            y = {}
            for tx in dict.fromkeys(tx_sigmas):
                x_tx = psi_tx[tx_levels.index(tx)] * x if tx > 0 else x
                y[tx] = mu_apply_channel(lam, x_tx)
                if awgn is not None:
                    y[tx] = y[tx] + awgn
            psi_rx = take_rx(b)
            if ramp is not None:
                psi_rx = pn_mod.apply_offset(psi_rx, ramp, start_sample=m0 * n)
            for i, psi in enumerate(psi_rx.reshape(-1, b, 1, n)):
                for j, tx in enumerate(tx_sigmas):
                    yield refs, (i, j), psi * y[tx]
    return lam, blocks()


def _fixed_block(z, rcv, bases, points, refs) -> np.ndarray:
    """est[p, m]: the estimate of symbol m of block z, with references refs
    (M, N), at the fixed-basis point points[p] = (kind, d).  W is built
    once per kind of bases (see _bases), and fit_prefixes fits the whole
    block at every distinct d of the kind, on W's leading d columns; d = 0
    equalizes without correction.  Symbol by symbol, every point combines
    the symbol's W while it is in cache."""
    ws = {kind: build_w(z, rcv, v) for kind, v in bases.items()}
    gammas = {(kind, d): g for kind, w in ws.items() for d, g in fit_prefixes(
        w, rcv, refs, {d for k, d in points if k == kind and d}).items()}
    fits = [(ws[kind], gammas[kind, d]) if d else None for kind, d in points]
    est = np.empty((len(points),) + refs.shape, dtype=np.complex128)
    for m in range(len(refs)):
        for p, fit in enumerate(fits):
            est[p, m] = (compensate(fit[0][m], rcv, fit[1][m]) if fit
                         else equalize_only(z[m], rcv))
    return est


def _score(total, est, refs, layout: ToneLayout,
           const: Constellation) -> np.ndarray:
    """Scores (groups, M, 3) of est[g, m], group g's estimate of refs[m]:
    its error power and reference power, from one stacked EVM of est
    (groups, M, N) against refs (M, N), and its SER.  They are added into
    the running total (groups, 3) one symbol at a time, in order: the
    sequential sum, which np.sum, summing pairwise, is not in the last
    bits."""
    err, refp = evm_linear(est, refs, layout)
    ser = [[symbol_error_rate(s, ref, layout, const)
            for s, ref in zip(row, refs)] for row in est]
    scores = np.stack(np.broadcast_arrays(err, refp, ser), axis=-1)
    for m in range(len(refs)):
        total += scores[:, m]
    return scores


def _row(sc: Scenario, total, count: int, n_eq: int, kind: str, d: int,
         sigma: float, symbol: int | str = "") -> ResultRow:
    """The row of total, the (error power, reference power, SER) sums of
    count symbols: EVM as dB of the linear-domain mean error ratio, and
    the mean SER.  symbol is a per-symbol row's index; "" aggregates."""
    err, ref, ser = total.tolist()
    return ResultRow(sc.name, "all", symbol, int(symbol == ""), kind, d,
                     sigma, sc.method, ratio_to_db(err, ref), ser / count,
                     n_eq)


def _run_sweep(sc: Scenario, pn, sigmas, ds) -> list[ResultRow]:
    """Fixed-basis sweep over sigma x basis kind x d; d = 0 scores
    per-tone equalization without phase-noise correction.

    Each channel is simulated once for every sigma, and each symbol block
    estimated at every (kind, d) point by _fixed_block and scored in one
    stacked EVM.  Every (sigma, kind, d) total adds its symbols in
    channel, then symbol order, so repeated sigmas give repeated rows."""
    const = sc.constellation
    points = [(kind, d) for kind in sc.basis_kinds for d in ds]
    totals = np.zeros((len(sigmas), len(points), 3))
    bases = _bases(sc, points, sigmas, pn)
    for ci in range(sc.n_channels_eff):
        lam, blocks = _channel_symbols(sc, ci, pn, sigmas)
        rcv = receiver(lam[0], sc.layout, sc.method, sc.use_null_tones)
        families = bases(ci)
        for refs, (i, _), z in blocks:
            refs = refs[:, 0]
            est = _fixed_block(z, rcv, families[i], points, refs)
            _score(totals[i], est, refs, rcv.layout, const)
    count = sc.n_channels_eff * sc.n_symbols
    # n_equations: the last channel's fit rows
    return [_row(sc, total, count, len(rcv.tones) if d else 0, kind, d,
                 sigma)
            for sigma, row in zip(sigmas, totals)
            for (kind, d), total in zip(points, row)]


def _run_mimo_sweep(sc: Scenario, pn) -> list[ResultRow]:
    """Multiuser sweep over the (sigma, tx sigma) points.  Each channel is
    simulated once for every point, and W built once per symbol block and
    point; each point keeps its own total, so repeated values give
    repeated rows, and adds its symbols in channel, then symbol order."""
    const = sc.constellation
    totals = np.zeros((len(sc.sigma_list), len(sc.tx_sigma_list), 3))
    users = tuple((u,) for u in range(sc.n_users))
    bases = _bases(sc, [("KL", sc.d)], sc.sigma_list, pn)
    for ci in range(sc.n_channels_eff):
        lam, blocks = _channel_symbols(sc, ci, pn, sc.sigma_list,
                                       sc.tx_sigma_list, users)
        b, ok = zf_beamformer(lam)
        rcv = Receiver(sc.layout, np.broadcast_to(ok, (sc.n_users, sc.n)),
                       sc.method, sc.use_null_tones)
        families = bases(ci)
        for refs, (i, j), z in blocks:
            w = mu_build_w(z, b, families[i]["KL"])
            s_hats = np.array([mu_compensate(w_m, syms, rcv)
                               for w_m, syms in zip(w, refs)])
            refs = refs.reshape(-1, sc.n)
            _score(totals[i, j, None], s_hats.reshape(1, -1, sc.n), refs,
                   rcv.layout, const)
    count = sc.n_channels_eff * sc.n_symbols * sc.n_users
    return [_row(sc, totals[i, j], count, len(rcv.tones), f"KL_tx{tx:g}",
                 sc.d, sigma)
            for i, sigma in enumerate(sc.sigma_list)
            for j, tx in enumerate(sc.tx_sigma_list)]


def _run_tracking(sc: Scenario, pn) -> list[ResultRow]:
    """Each symbol block is finished before the next is simulated: the
    fixed-basis modes are _fixed_block's points ("cpe": the DFT basis's
    column 0), then the tracked modes run PAST through it symbol by
    symbol, each carrying its state from block to block.  One stacked EVM
    scores the block at every mode; the per-symbol totals exist only if
    their rows are written."""
    const = sc.constellation
    mode_d = {mode: 1 if mode == "cpe" else sc.d for mode in sc.track_modes}
    fixed = [mode for mode in sc.track_modes if mode in _FIXED_TRACK_MODES]
    points = [(_FIXED_TRACK_MODES[mode], mode_d[mode]) for mode in fixed]
    tracked = {mode: sc.freeze_after if (mode == "frozen"
                                         and sc.freeze_after >= 0) else None
               for mode in sc.track_modes if mode not in _FIXED_TRACK_MODES}
    modes = fixed + list(tracked)
    totals = np.zeros((len(modes), 3))
    per_symbol = (np.zeros((len(modes), sc.n_symbols, 3))
                  if sc.per_symbol_rows else None)
    bases = _bases(sc, points, (sc.sigma_deg,), pn)
    # every PAST step makes a new state, so all channels start from one
    init = init_tracker(sc.n, sc.d)
    for ci in range(sc.n_channels_eff):
        lam, blocks = _channel_symbols(sc, ci, pn, (sc.sigma_deg,),
                                       offset=True)
        rcv = receiver(lam[0], sc.layout, sc.method, sc.use_null_tones)
        families, = bases(ci)
        states = dict.fromkeys(tracked, init)
        for b, (refs, _, z) in enumerate(blocks):
            m0 = b * SYMBOL_BLOCK
            refs = refs[:, 0]
            est = [_fixed_block(z, rcv, families, points, refs)]
            for mode, freeze in tracked.items():
                s_hats, states[mode] = run_tracked(
                    z, rcv, refs, states[mode], const, sc.beta,
                    sc.training_symbols, freeze, start=m0)
                est.append(s_hats[None])
            scores = _score(totals, np.concatenate(est), refs, rcv.layout,
                            const)
            if per_symbol is not None:
                per_symbol[:, m0:m0 + len(refs)] += scores
    rows = []
    for mode in sc.track_modes:
        k, d = modes.index(mode), mode_d[mode]
        if per_symbol is not None:
            rows += [_row(sc, total, sc.n_channels_eff, len(rcv.tones), mode,
                          d, sc.sigma_deg, m)
                     for m, total in enumerate(per_symbol[k])]
        rows.append(_row(sc, totals[k], sc.n_channels_eff * sc.n_symbols,
                         len(rcv.tones), mode, d, sc.sigma_deg))
    return rows


_RUNNERS = {  # (scenario, pn_file windows or None) -> rows
    "evm_vs_d": lambda sc, pn: _run_sweep(sc, pn, (sc.sigma_deg,), sc.d_list),
    "evm_vs_sigma": lambda sc, pn: _run_sweep(sc, pn, sc.sigma_list, (sc.d,)),
    "mimo_sweep": _run_mimo_sweep,
    "tracking": _run_tracking,
    "custom": lambda sc, pn: _run_sweep(sc, pn, (sc.sigma_deg,), (sc.d,)),
}


def run_scenario(sc: Scenario, out_path: str) -> list[ResultRow]:
    # the pn_file is parsed once per run; each stream cycles its windows
    pn = pn_mod.load_pn_samples(sc.pn_file, sc.n) if sc.pn_file else None
    rows = _RUNNERS[sc.name](sc, pn)
    write_csv(rows, out_path)
    return rows


def write_csv(rows: list[ResultRow], path: str) -> None:
    # csv.writer's bytes: no ResultRow field holds a comma, quote or newline
    line = ",".join({"sigma_deg": "%.4f", "evm_db": "%.6f", "ser": "%.8f"}
                    .get(c, "%s") for c in CSV_COLUMNS) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(line % row for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pncomp", description="OFDM phase-noise compensation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write a CSV")
    run_p.add_argument("--config", default=None, help="key = value file")
    run_p.add_argument("--scenario", dest="name", choices=SCENARIO_NAMES)
    run_p.add_argument("--seed", dest="master_seed", type=int,
                       help="master seed")
    run_p.add_argument("--out", default=None, help="output CSV path")
    run_p.add_argument("--scale", type=float,
                       help="fraction of the full channel count")
    run_p.add_argument("--full", action="store_true",
                       help="run at full scale (scale = 1)")
    args = parser.parse_args(argv)
    if args.full:
        args.scale = 1.0
    keys = {f.name for f in dataclasses.fields(Scenario)}
    try:
        sc = parse_config(args.config, {k: v for k, v in vars(args).items()
                                        if k in keys and v is not None})
        if sc.pn_file:  # a missing or unreadable file, not its contents
            open(sc.pn_file).close()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out
    if out is None:
        out_dir = os.environ.get("PNCOMP_OUT_DIR", ".")
        out = os.path.join(out_dir, f"{sc.name}.csv")
    parent = os.path.dirname(os.path.abspath(out))
    # a parent that is a file passes os.access, but open() would fail
    if (os.path.isdir(out) or not os.path.isdir(parent) or not os.access(
            out if os.path.exists(out) else parent, os.W_OK)):
        print(f"config error: cannot write {out!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        run_scenario(sc, out)
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # raised mid-run, like the failures above
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    # on stderr, not in the CSV, whose bytes a seed fixes
    print(f"wall time: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
