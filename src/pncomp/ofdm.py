"""QAM constellations, tone layout, OFDM modulation and EVM/SER metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import CVec, fft, ifft

EVM_FLOOR_DB = -300.0

# Default 64-tone layout: 16 pilot tones at the band edges plus two comb
# positions.  Tone indices are 0-based; index 0 counts as a pilot.
DEFAULT_N = 64
DEFAULT_PILOTS = tuple(range(0, 7)) + (20, 42) + tuple(range(57, 64))


@dataclass(frozen=True)
class ToneLayout:
    """Partition of the N tones into pilot, null and data sets."""

    n: int
    pilot_idx: tuple[int, ...]
    null_idx: tuple[int, ...] = ()

    def __post_init__(self):
        pilots = set(self.pilot_idx)
        nulls = set(self.null_idx)
        if pilots & nulls:
            raise ValueError("pilot and null tone sets overlap")
        all_idx = pilots | nulls
        if all_idx and (min(all_idx) < 0 or max(all_idx) >= self.n):
            raise ValueError("tone index out of range")
        object.__setattr__(self, "pilot_idx", tuple(sorted(pilots)))
        object.__setattr__(self, "null_idx", tuple(sorted(nulls)))

    @property
    def n_pilot(self) -> int:
        return len(self.pilot_idx)

    @property
    def data_idx(self) -> tuple[int, ...]:
        used = set(self.pilot_idx) | set(self.null_idx)
        return tuple(k for k in range(self.n) if k not in used)


def default_layout(n: int = DEFAULT_N) -> ToneLayout:
    if n != DEFAULT_N:
        raise ValueError("default pilot placement is defined for N=64")
    return ToneLayout(n=n, pilot_idx=DEFAULT_PILOTS)


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped square QAM with unit average energy.

    points[i] is the symbol whose bit label is i; hard decisions break
    distance ties toward the smaller label.
    """

    order: int
    points: CVec = field(repr=False)

    @staticmethod
    def qam(order: int) -> "Constellation":
        return _qam_cached(order)


@lru_cache(maxsize=None)
def _qam_cached(order: int) -> Constellation:
    if order not in (4, 16, 64, 256):
        raise ValueError(f"unsupported QAM order {order}")
    side = int(round(np.sqrt(order)))
    bits_per_axis = side.bit_length() - 1
    # gray(pos) gives the bit pattern of PAM position pos; invert it so a
    # label's bits select the amplitude level.
    gray = np.arange(side) ^ (np.arange(side) >> 1)
    pos_of_bits = np.empty(side, dtype=int)
    pos_of_bits[gray] = np.arange(side)
    amps = 2 * pos_of_bits - (side - 1)
    labels = np.arange(order)
    i_bits = labels >> bits_per_axis
    q_bits = labels & (side - 1)
    scale = 1.0 / np.sqrt(2.0 * (order - 1) / 3.0)
    points = scale * (amps[i_bits] + 1j * amps[q_bits])
    return Constellation(order=order, points=points.astype(np.complex128))


@dataclass(frozen=True)
class FreqSymbol:
    """Frequency-domain OFDM symbol with its tone layout."""

    s: CVec
    layout: ToneLayout

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.complex128)
        if s.shape != (self.layout.n,):
            raise ValueError(f"symbol length {s.shape} != layout {self.layout.n}")
        object.__setattr__(self, "s", s)

    @property
    def pilots(self) -> CVec:
        return self.s[list(self.layout.pilot_idx)]


def make_symbol(layout: ToneLayout, constellation: Constellation,
                rng_seed: int) -> FreqSymbol:
    """Random payload: i.i.d. constellation points on pilot and data tones."""
    rng = np.random.default_rng(rng_seed)
    s = np.zeros(layout.n, dtype=np.complex128)
    active = list(layout.pilot_idx) + list(layout.data_idx)
    s[active] = rng.choice(constellation.points, size=len(active))
    return FreqSymbol(s=s, layout=layout)


def modulate(sym: FreqSymbol) -> CVec:
    """Time-domain symbol x = F* s (unitary inverse DFT)."""
    return ifft(sym.s)


def demodulate(x: CVec, layout: ToneLayout) -> FreqSymbol:
    return FreqSymbol(s=fft(x), layout=layout)


def _scope_idx(layout: ToneLayout, scope: str) -> list[int]:
    if scope == "data_only":
        return list(layout.data_idx)
    if scope == "all_active":
        return list(layout.data_idx) + list(layout.pilot_idx)
    raise ValueError(f"unknown EVM scope {scope!r}")


def evm_db(est: FreqSymbol, ref: FreqSymbol, scope: str = "data_only") -> float:
    """Error vector magnitude in dB over the chosen tone scope."""
    if est.layout != ref.layout:
        raise ValueError("EVM requires matching tone layouts")
    num, den = evm_linear(est, ref, scope)
    if den == 0.0:
        raise ValueError("reference has zero power on the EVM scope")
    return ratio_to_db(num, den)


def evm_linear(est: FreqSymbol, ref: FreqSymbol, scope: str = "data_only") -> tuple[float, float]:
    """(error power, reference power) for linear-domain aggregation."""
    idx = _scope_idx(ref.layout, scope)
    return (float(np.sum(np.abs(est.s[idx] - ref.s[idx]) ** 2)),
            float(np.sum(np.abs(ref.s[idx]) ** 2)))


def ratio_to_db(num: float, den: float) -> float:
    if num == 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * np.log10(num / den), EVM_FLOOR_DB)


def hard_decide(est: FreqSymbol, constellation: Constellation) -> FreqSymbol:
    """Nearest-point decision on pilot and data tones; null tones stay 0."""
    out = np.zeros_like(est.s)
    active = list(est.layout.pilot_idx) + list(est.layout.data_idx)
    vals = est.s[active]
    # argmin returns the first minimum, i.e. the smallest bit label on ties
    d2 = np.abs(vals[:, None] - constellation.points[None, :]) ** 2
    out[active] = constellation.points[np.argmin(d2, axis=1)]
    return FreqSymbol(s=out, layout=est.layout)


def symbol_error_rate(est: FreqSymbol, ref: FreqSymbol,
                      constellation: Constellation) -> float:
    """Uncoded SER over data tones after hard decisions on est."""
    decided = hard_decide(est, constellation)
    idx = list(ref.layout.data_idx)
    errors = np.abs(decided.s[idx] - ref.s[idx]) > 1e-9
    return float(np.mean(errors)) if idx else 0.0
