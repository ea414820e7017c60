"""QAM constellations, tone layout and EVM/SER metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import CVec

EVM_FLOOR_DB = -300.0

# Default 64-tone layout: 16 pilot tones at the band edges plus two comb
# positions.  Tone indices are 0-based; index 0 counts as a pilot.
DEFAULT_N = 64
DEFAULT_PILOTS = tuple(range(0, 7)) + (20, 42) + tuple(range(57, 64))


@dataclass(frozen=True)
class ToneLayout:
    """Partition of the N tones into pilot, null and data sets.

    The index arrays pilot_arr, null_arr, data_arr and active_arr (pilots,
    then data) are built once here for the per-symbol hot paths.
    """

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
        data = tuple(k for k in range(self.n) if k not in all_idx)
        object.__setattr__(self, "pilot_idx", tuple(sorted(pilots)))
        object.__setattr__(self, "null_idx", tuple(sorted(nulls)))
        for name, idx in (("pilot_arr", self.pilot_idx),
                          ("null_arr", self.null_idx), ("data_arr", data),
                          ("active_arr", self.pilot_idx + data)):
            arr = np.array(idx, dtype=np.intp)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_pilot(self) -> int:
        return len(self.pilot_idx)

    @property
    def data_idx(self) -> tuple[int, ...]:
        return tuple(self.data_arr.tolist())


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

    def __post_init__(self):
        # Slicer tables per axis: the inner PAM levels (all but the two
        # outermost, ascending) and the label bits (I: high, Q: low) of the
        # levels just below and just above each gap between them.
        side = int(round(np.sqrt(self.order)))
        labels = np.arange(self.order)
        axes = []
        for coord, bits in ((self.points.real, labels // side * side),
                            (self.points.imag, labels % side)):
            levels = np.unique(coord)
            level_bits = np.empty(len(levels), dtype=np.intp)
            level_bits[np.searchsorted(levels, coord)] = bits
            axes.append((levels[1:-1], level_bits[:-1], level_bits[1:]))
        object.__setattr__(self, "_axes", tuple(axes))

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


def make_symbol(layout: ToneLayout, constellation: Constellation,
                rng_seed: int) -> FreqSymbol:
    """Random payload: i.i.d. constellation points on pilot and data tones."""
    rng = np.random.default_rng(rng_seed)
    s = np.zeros(layout.n, dtype=np.complex128)
    active = layout.active_arr
    s[active] = rng.choice(constellation.points, size=len(active))
    return FreqSymbol(s=s, layout=layout)


def _scope_idx(layout: ToneLayout, scope: str) -> np.ndarray:
    if scope == "data_only":
        return layout.data_arr
    if scope == "all_active":
        return np.concatenate([layout.data_arr, layout.pilot_arr])
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
    ref_s = ref.s[idx]
    return (float((np.abs(est.s[idx] - ref_s) ** 2).sum()),
            float((np.abs(ref_s) ** 2).sum()))


def ratio_to_db(num: float, den: float) -> float:
    if num == 0.0:
        return EVM_FLOOR_DB
    return max(10.0 * np.log10(num / den), EVM_FLOOR_DB)


def _bracket(x: np.ndarray, axis) -> np.ndarray:
    """Label bits of the two adjacent levels around each x, shape (2, n);
    values beyond the outermost levels get the outermost pair."""
    inner, lo_bits, hi_bits = axis
    gap = inner.searchsorted(x)
    return np.array([lo_bits[gap], hi_bits[gap]])


def hard_decide(est: FreqSymbol, constellation: Constellation) -> FreqSymbol:
    """Nearest-point decision on pilot and data tones; null tones stay 0.

    A square QAM grid is the product of two PAM axes, so the nearest point
    is one of the 2 x 2 points whose levels bracket the value on each axis:
    O(N) work instead of O(N * order).  Their distances are computed as a
    full distance matrix would, and ties go to the smallest bit label.
    """
    i_axis, q_axis = constellation._axes
    active = est.layout.active_arr
    vals = est.s[active]
    labels = (_bracket(vals.real, i_axis)[:, None]
              + _bracket(vals.imag, q_axis)[None, :]).reshape(4, -1)
    d2 = np.abs(vals - constellation.points[labels]) ** 2
    tied = d2 == d2.min(axis=0)
    label = np.where(tied, labels, constellation.order).min(axis=0)
    out = np.zeros_like(est.s)
    out[active] = constellation.points[label]
    return FreqSymbol(s=out, layout=est.layout)


def symbol_error_rate(est: FreqSymbol, ref: FreqSymbol,
                      constellation: Constellation) -> float:
    """Uncoded SER over data tones after hard decisions on est."""
    decided = hard_decide(est, constellation)
    idx = ref.layout.data_arr
    errors = np.abs(decided.s[idx] - ref.s[idx]) > 1e-9
    return np.count_nonzero(errors) / idx.size if idx.size else 0.0
