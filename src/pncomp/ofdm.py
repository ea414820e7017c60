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
    then data) are built once here for the per-symbol hot paths, as is
    quad_arr, where each active tone's 4 slicer candidates start.
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
        active = self.pilot_idx + data
        for name, idx in (("pilot_arr", self.pilot_idx),
                          ("null_arr", self.null_idx), ("data_arr", data),
                          ("active_arr", active),
                          ("quad_arr", range(0, 4 * len(active), 4))):
            arr = np.array(idx, dtype=np.intp)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def data_idx(self) -> tuple[int, ...]:
        return tuple(self.data_arr.tolist())


def default_layout(null_idx=()) -> ToneLayout:
    return ToneLayout(n=DEFAULT_N, pilot_idx=DEFAULT_PILOTS,
                      null_idx=null_idx)


@dataclass(frozen=True)
class Constellation:
    """Gray-mapped square QAM with unit average energy.

    points[i] is the symbol whose bit label is i; hard decisions break
    distance ties toward the smaller label.
    """

    order: int
    points: CVec = field(repr=False)

    def __post_init__(self):
        # Slicer tables: the inner PAM levels (all but the two outermost,
        # ascending; the same on both axes) and, per (I gap, Q gap) between
        # them, the 2 x 2 points around it in ascending label order.
        levels = np.unique(self.points.real)
        grid = np.empty((len(levels),) * 2, dtype=np.intp)
        grid[levels.searchsorted(self.points.real),
             levels.searchsorted(self.points.imag)] = np.arange(self.order)
        quads = np.lib.stride_tricks.sliding_window_view(grid, (2, 2))
        object.__setattr__(self, "_inner", levels[1:-1])
        object.__setattr__(self, "_quads", self.points[np.sort(
            quads.reshape(quads.shape[:2] + (4,)), axis=-1)])

    @staticmethod
    @lru_cache(maxsize=None)
    def qam(order: int) -> "Constellation":
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


def make_symbol(layout: ToneLayout, constellation: Constellation,
                rng_seed: int) -> CVec:
    """Random payload (N,): i.i.d. constellation points on pilot and data
    tones."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))  # = default_rng
    s = np.zeros(layout.n, dtype=np.complex128)
    active = layout.active_arr
    # the labels rng.choice(points, size) would draw, without its overhead
    s[active] = constellation.points[
        rng.integers(0, constellation.order, size=len(active))]
    return s


def evm_db(est: CVec, ref: CVec, layout: ToneLayout) -> float:
    """Error vector magnitude in dB over the data tones."""
    num, den = evm_linear(est, ref, layout)
    if den == 0.0:
        raise ValueError("reference has zero power on the data tones")
    return ratio_to_db(num, den)


def evm_linear(est, ref, layout: ToneLayout) -> tuple:
    """(error power, reference power) over the data tones, for
    linear-domain aggregation: each symbol's sums of est (..., N) and of
    ref (..., N), which broadcast against each other.

    np.take keeps the rows C-contiguous: summed along a strided last axis,
    rows of a block can differ in the last bits from one symbol's sum."""
    idx = layout.data_arr
    ref_s = np.take(ref, idx, axis=-1)
    return ((np.abs(np.take(est, idx, axis=-1) - ref_s) ** 2).sum(axis=-1),
            (np.abs(ref_s) ** 2).sum(axis=-1))


def ratio_to_db(num, den):
    """10 log10(num / den), elementwise, floored at EVM_FLOOR_DB."""
    with np.errstate(divide="ignore"):  # log10(0) = -inf: the floor
        return np.maximum(10.0 * np.log10(np.divide(num, den)), EVM_FLOOR_DB)


def hard_decide(est: CVec, layout: ToneLayout,
                constellation: Constellation) -> CVec:
    """Nearest-point decision on est's pilot and data tones; nulls stay 0.

    A square QAM grid is the product of two PAM axes, so the nearest point
    is one of the 2 x 2 points whose levels bracket the value on each axis:
    O(N) work instead of O(N * order).  One search over the interleaved
    real and imaginary parts finds both gaps; the four points' distances
    are computed as a full distance matrix would, and ties go to the
    smallest bit label, the first of the four.
    """
    active = layout.active_arr
    vals = est[active]
    gap = constellation._inner.searchsorted(vals.view(np.float64))
    cand = constellation._quads[gap[0::2], gap[1::2]]
    d2 = np.abs(vals[:, None] - cand)
    pick = np.square(d2, out=d2).argmin(axis=1)
    out = np.zeros(layout.n, dtype=np.complex128)
    out[active] = cand.ravel()[pick + layout.quad_arr]
    return out


def symbol_error_rate(est: CVec, ref: CVec, layout: ToneLayout,
                      constellation: Constellation) -> float:
    """Uncoded SER over data tones after hard decisions on est."""
    err = hard_decide(est, layout, constellation)
    idx = layout.data_arr
    err = np.abs(np.subtract(err, ref, out=err)[idx])
    return np.count_nonzero(err > 1e-9) / idx.size if idx.size else 0.0
