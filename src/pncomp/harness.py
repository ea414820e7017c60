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
from .mimo import (MuSystem, mu_apply_channel, mu_compensate, mu_receiver,
                   zf_beamformer)
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
        if self.sigma_deg < 0:
            raise ConfigError("sigma_deg must be >= 0")
        if self.n_channels < 1 or self.n_symbols < 1:
            raise ConfigError("n_channels and n_symbols must be >= 1")
        if not self.sigma_list or not self.d_list:
            raise ConfigError("sweep ranges must be non-empty")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError(f"scale must be finite and > 0, got {self.scale}")
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
        if self.name == "mimo_sweep" and self.n_users > self.n_rx:
            raise ConfigError(f"n_users {self.n_users} > n_rx {self.n_rx}")
        try:  # what a run resolves from the config, before any simulation
            self.layout, self.constellation, CompConfig(method=self.method)
            channel_mod.NoiseSpec(snr_db=self.snr_db)
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


def _pn_source(sc: Scenario, seed: int, sigma: float):
    """take(k): the next k symbols of one phase-noise stream, k * N samples."""
    if sc.pn_file:
        windows = itertools.cycle(list(pn_mod.load_pn_samples(sc.pn_file,
                                                              sc.n)))
        return lambda k: pn_mod.PhaseNoiseRealization.from_phi(
            np.concatenate([next(windows).phi for _ in range(k)]))
    gen = pn_mod.PnGenerator(sc.pn_model(seed, sigma))
    return lambda k: gen.next(k * sc.n)


def _kl_cov(sc: Scenario, ci: int, sigma: float) -> pn_mod.PnCovariance:
    """Sample covariance that channel ci's KL bases are built from."""
    take = _pn_source(sc, child_seed(sc.master_seed, "cov", ci), sigma)
    return pn_mod.estimate_cov(take(sc.kl_cov_symbols).psi.reshape(-1, sc.n))


def _make_basis(sc: Scenario, kind: str, d: int, cov) -> basis_mod.CompBasis:
    if kind == "KL":
        return basis_mod.kl_basis(cov, d)
    if kind == "DFT":
        return basis_mod.dft_basis(sc.n, d)
    return basis_mod.dct_basis(sc.n, d)


def _channel_symbols(sc: Scenario, ci: int, sigma: float,
                     offset: pn_mod.CarrierOffset | None = None):
    """One channel's symbols, simulated SYMBOL_BLOCK at a time (one PN draw,
    FFT pair and noise draw per block, equal to symbol by symbol); returns
    (channel, list of (refs, z (b, n_rx, N)))."""
    ch = channel_mod.gen_channel(sc.n_taps, sc.channel_profile,
                                 child_seed(sc.master_seed, "chan", ci),
                                 n_rx=sc.n_rx, n=sc.n)
    take_pn = _pn_source(sc, child_seed(sc.master_seed, "pn", ci), sigma)
    noise = channel_mod.NoiseSpec(snr_db=sc.snr_db)
    noise_rng = np.random.default_rng(child_seed(sc.master_seed, "noise", ci))
    layout, const = sc.layout, sc.constellation
    blocks = []
    for m0 in range(0, sc.n_symbols, SYMBOL_BLOCK):
        refs = [make_symbol(layout, const,
                            child_seed(sc.master_seed, "sym", ci, m))
                for m in range(m0, min(m0 + SYMBOL_BLOCK, sc.n_symbols))]
        psi = take_pn(len(refs))
        if offset is not None and offset.ppm != 0:
            psi = pn_mod.apply_offset(psi, offset, start_sample=m0 * sc.n)
        x = ifft(np.array([ref.s for ref in refs]))
        y = channel_mod.apply_channel(ch, x, noise, rng=noise_rng)
        blocks.append((refs, psi.psi.reshape(len(refs), 1, sc.n) * y))
    return ch, blocks


def _score(s_hat: FreqSymbol, ref: FreqSymbol, const: Constellation,
           n_eq: int, *accs: _Acc) -> None:
    """Score one symbol once and add it to every accumulator it feeds."""
    err, refp = evm_linear(s_hat, ref)
    ser = symbol_error_rate(s_hat, ref, const)
    for acc in accs:
        acc.add(err, refp, ser, n_eq)


def _run_sweep(sc: Scenario, sigmas, ds) -> list[ResultRow]:
    """Fixed-basis sweep over sigma x basis kind x d; d = 0 scores
    per-tone equalization without phase-noise correction.

    Each kind's basis is built once per channel at the largest d and W
    once per symbol block; every d fits the whole block at once on their
    leading d columns.  Every accumulator still sees its symbols in
    channel, then symbol order."""
    const = sc.constellation
    cfg = CompConfig(method=sc.method, use_null_tones=sc.use_null_tones)
    points = [(kind, d) for kind in sc.basis_kinds for d in ds]
    d_max = max(ds)
    rows = []
    for sigma in sigmas:
        accs = {pt: _Acc() for pt in points}
        for ci in range(sc.n_channels_eff):
            ch, blocks = _channel_symbols(sc, ci, sigma)
            rcv = receiver(ch.lam, sc.layout, cfg)
            cov = (_kl_cov(sc, ci, sigma)
                   if d_max and "KL" in sc.basis_kinds else None)
            families = {kind: _make_basis(sc, kind, d_max, cov)
                        for kind in sc.basis_kinds} if d_max else {}
            for refs, z in blocks:
                ws = {kind: build_w(z, rcv, fam)
                      for kind, fam in families.items()}
                refs_s = np.array([ref.s for ref in refs])
                gammas = {(kind, d): fit_gamma(ws[kind][..., :d], rcv,
                                               refs_s)[0]
                          for kind, d in points if d}
                for i, ref in enumerate(refs):
                    for kind, d in points:
                        if d:
                            res = compensate(ws[kind][i], rcv,
                                             gammas[(kind, d)][i], ref)
                            s_hat, n_eq = res.s_hat, res.n_equations
                        else:
                            s_hat = FreqSymbol(s=equalize_only(z[i], rcv),
                                               layout=ref.layout)
                            n_eq = 0
                        _score(s_hat, ref, const, n_eq, accs[(kind, d)])
        for kind, d in points:
            acc = accs[(kind, d)]
            rows.append(ResultRow(sc.name, "all", "", 1, kind, d, sigma,
                                  sc.method, acc.evm_db, acc.ser, acc.n_eq))
    return rows


def _mu_channel_symbols(sc: Scenario, ci: int, sys_: MuSystem):
    """Channel ci's multiuser symbols at every (sigma, tx sigma) point,
    simulated SYMBOL_BLOCK at a time: per block, make_symbol, the users'
    IFFT and the noise draw run once, the channel once per distinct tx
    sigma and the rx phase noise once per sigma, equal to simulating each
    point symbol by symbol.  Yields (refs, (i, j), z) per block and point:
    refs[m][u] is user u's symbol m and z (b, n_rx, N) the block received
    at sigma_list[i] and tx_sigma_list[j]."""
    seed, n = sc.master_seed, sc.n
    layout, const = sc.layout, sc.constellation
    take_rx = [_pn_source(sc, child_seed(seed, "pn", ci), sigma)
               for sigma in sc.sigma_list]
    tx_gens = {tx: [pn_mod.PnGenerator(
                        sc.pn_model(child_seed(seed, "txpn", ci, u), tx))
                    for u in range(sc.n_users)] if tx > 0 else []
               for tx in dict.fromkeys(sc.tx_sigma_list)}
    noise = channel_mod.NoiseSpec(snr_db=sc.snr_db)
    noise_rng = np.random.default_rng(child_seed(seed, "noise", ci))
    for m0 in range(0, sc.n_symbols, SYMBOL_BLOCK):
        refs = [[make_symbol(layout, const, child_seed(seed, "sym", ci, m, u))
                 for u in range(sc.n_users)]
                for m in range(m0, min(m0 + SYMBOL_BLOCK, sc.n_symbols))]
        b = len(refs)
        x = ifft(np.array([[ref.s for ref in syms] for syms in refs]))
        # the noise is added before the rx phase noise, as at the receiver
        awgn = channel_mod.awgn((b, sc.n_rx, n), noise, noise_rng)
        y = {}
        for tx, gens in tx_gens.items():
            x_tx = x
            if gens:
                x_tx = np.stack([g.next(b * n).psi.reshape(b, n)
                                 for g in gens], axis=1) * x
            y[tx] = mu_apply_channel(sys_, x_tx)
            if awgn is not None:
                y[tx] = y[tx] + awgn
        for i, take in enumerate(take_rx):
            psi = take(b).psi.reshape(b, 1, n)
            for j, tx in enumerate(sc.tx_sigma_list):
                yield refs, (i, j), psi * y[tx]


def _run_mimo_sweep(sc: Scenario) -> list[ResultRow]:
    """Multiuser sweep over the (sigma, tx sigma) points.  Each channel is
    simulated once for every point; each point keeps its own accumulator,
    so repeated values give repeated rows, and sees its symbols in
    channel, then symbol order."""
    const = sc.constellation
    cfg = CompConfig(method=sc.method, use_null_tones=sc.use_null_tones)
    accs = {pt: _Acc() for pt in itertools.product(
        range(len(sc.sigma_list)), range(len(sc.tx_sigma_list)))}
    for ci in range(sc.n_channels_eff):
        sys_ = MuSystem(channels=tuple(
            channel_mod.gen_channel(
                sc.n_taps, sc.channel_profile,
                child_seed(sc.master_seed, "chan", ci, u),
                n_rx=sc.n_rx, n=sc.n)
            for u in range(sc.n_users)))
        bf = zf_beamformer(sys_)
        rcv = mu_receiver(bf, sc.layout, cfg)
        bases = [basis_mod.kl_basis(_kl_cov(sc, ci, sigma), sc.d)
                 for sigma in sc.sigma_list]
        for refs, pt, z in _mu_channel_symbols(sc, ci, sys_):
            for syms, z_m in zip(refs, z):
                results = mu_compensate(z_m, bases[pt[0]], syms, bf, rcv)
                for ref, res in zip(syms, results):
                    _score(res.s_hat, ref, const, res.n_equations, accs[pt])
    return [ResultRow(sc.name, "all", "", 1,
                      f"KL_tx{sc.tx_sigma_list[j]:g}", sc.d,
                      sc.sigma_list[i], sc.method, acc.evm_db, acc.ser,
                      acc.n_eq)
            for (i, j), acc in accs.items()]


def _run_tracking(sc: Scenario) -> list[ResultRow]:
    """Tracked modes run PAST symbol by symbol; fixed-basis modes fit each
    symbol block at once on one W per block and basis family ("cpe": the
    DFT family's column 0)."""
    offset = pn_mod.CarrierOffset(ppm=sc.ppm, carrier_hz=sc.carrier_hz,
                                  sample_rate_hz=sc.sample_rate_hz)
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
    for ci in range(sc.n_channels_eff):
        ch, blocks = _channel_symbols(sc, ci, sc.sigma_deg, offset=offset)
        rcv = receiver(ch.lam, sc.layout, cfg)
        cov = _kl_cov(sc, ci, sc.sigma_deg) if "KL" in family_d else None
        families = {kind: _make_basis(sc, kind, d, cov)
                    for kind, d in family_d.items()}
        for b, (refs, z) in enumerate(blocks):
            ws = {kind: build_w(z, rcv, fam) for kind, fam in families.items()}
            refs_s = np.array([ref.s for ref in refs])
            gammas = {mode: fit_gamma(ws[kind][..., :mode_d[mode]], rcv,
                                      refs_s)[0] for mode, kind in fixed}
            for i, ref in enumerate(refs):
                for mode, kind in fixed:
                    res = compensate(ws[kind][i], rcv, gammas[mode][i], ref)
                    _score(res.s_hat, ref, const, res.n_equations,
                           per_symbol[mode][b * SYMBOL_BLOCK + i], totals[mode])
        symbols = [(r, z_i) for refs, z in blocks for r, z_i in zip(refs, z)]
        for mode in [m for m in sc.track_modes
                     if m not in _FIXED_TRACK_MODES]:
            freeze = sc.freeze_after if (mode == "frozen"
                                         and sc.freeze_after >= 0) else None
            tcfg = TrackingConfig(constellation=const, freeze_after=freeze,
                                  training_symbols=sc.training_symbols)
            results, _ = run_tracked(
                (TrackedSymbol(z=z, rcv=rcv, ref=ref) for ref, z in symbols),
                init_tracker(sc.n, sc.d, beta=sc.beta), tcfg)
            for (ref, _z), res, acc in zip(symbols, results, per_symbol[mode]):
                _score(res.s_hat, ref, const, res.n_equations, acc,
                       totals[mode])
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


_RUNNERS = {
    "evm_vs_d": lambda sc: _run_sweep(sc, (sc.sigma_deg,), sc.d_list),
    "evm_vs_sigma": lambda sc: _run_sweep(sc, sc.sigma_list, (sc.d,)),
    "mimo_sweep": _run_mimo_sweep,
    "tracking": _run_tracking,
    "custom": lambda sc: _run_sweep(sc, (sc.sigma_deg,), (sc.d,)),
}


def run_scenario(sc: Scenario, out_path: str, timing: bool = False) -> list[ResultRow]:
    start = time.perf_counter()
    rows = _RUNNERS[sc.name](sc)
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
