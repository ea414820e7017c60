"""Span tracing of pncomp's public functions, installed from outside.

Each traced function is replaced by a wrapper in every pncomp module that
binds it, under any alias, because a module that did `from .x import f`
would otherwise call the original and bypass the wrapper.  Methods are
wrapped on their class.  Spans (name, start, end, parent span, task id and
the time covered by direct children) are kept in memory in flat arrays and
summarised, or saved, when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = {
    "numerics": ("fft", "ifft", "pinv", "svd", "herm_eig"),
    "ofdm": ("make_symbol", "hard_decide", "symbol_error_rate", "evm_db"),
    "channel": ("gen_channel", "apply_channel"),
    "phase_noise": ("PnGenerator.__init__", "PnGenerator.next",
                    "estimate_cov", "apply_offset"),
    "basis": ("kl_basis", "dft_basis"),
    "compensator": ("compensate", "build_w", "solve_ls", "solve_tls",
                    "equalize_only"),
    "mimo": ("zf_beamformer", "mu_received", "mu_build_w", "mu_compensate"),
    "tracker": ("run_tracked", "dd_phase_estimate", "past_update"),
    "harness": ("run_scenario", "write_csv"),
}

# per-symbol hot calls that get latency percentiles
HOT = ("compensator.compensate", "compensator.build_w", "compensator.solve_ls",
       "compensator.solve_tls", "ofdm.hard_decide", "ofdm.symbol_error_rate",
       "tracker.past_update", "mimo.mu_compensate", "channel.apply_channel",
       "phase_noise.PnGenerator.next")


def span_names() -> list[str]:
    return [f"{mod}.{attr.replace('__init__', 'init')}"
            for mod, attrs in LAYERS.items() for attr in attrs]


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.task = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.data_idx_builds = 0
        self.task_id = -1  # the caller advances it before each traced task
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        stack = self._stack
        name_c, task_c, parent_c = self.name, self.task, self.parent
        start_c, end_c, child_c = self.start, self.end, self.child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start_c)
            parent = stack[-1] if stack else -1
            name_c.append(nid)
            task_c.append(self.task_id)
            parent_c.append(parent)
            start_c.append(0.0)
            end_c.append(0.0)
            child_c.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start_c[idx] = t0
                end_c[idx] = t1
                if parent >= 0:
                    child_c[parent] += t1 - t0
        return wrapper

    def _rebind(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def install(self) -> None:
        pkg = [m for n, m in list(sys.modules.items())
               if n == "pncomp" or n.startswith("pncomp.")]
        for mod_name, attrs in LAYERS.items():
            mod = sys.modules[f"pncomp.{mod_name}"]
            for attr in attrs:
                name = f"{mod_name}.{attr.replace('__init__', 'init')}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._rebind(cls, meth, self._wrap(name, vars(cls)[meth]))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrap(name, orig)
                for m in pkg:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._rebind(m, key, wrapper)
        layout_cls = sys.modules["pncomp.ofdm"].ToneLayout
        build = vars(layout_cls)["data_idx"].fget

        def data_idx(layout):
            self.data_idx_builds += 1
            return build(layout)
        self._rebind(layout_cls, "data_idx", property(data_idx))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live buffer view would stop the arrays from growing
        name = np.array(self.name, dtype=np.int32)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        dur = end - start
        return {"name": name,
                "task": np.array(self.task, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int64),
                "start": start, "end": end, "dur": dur,
                "self": dur - np.array(self.child, dtype=np.float64)}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), **{
            k: a[k] for k in ("name", "task", "parent", "start", "end", "self")})

    def task_counts(self, task_id: int) -> dict[str, int]:
        a = self.arrays()
        counts = np.bincount(a["name"][a["task"] == task_id],
                             minlength=len(self.names))
        return dict(zip(self.names, counts.tolist()))

    def layer_metrics(self, n_tasks: int, n_eval: int) -> dict[str, dict]:
        """Per-layer metrics per traced task; n_eval is scored symbol
        evaluations over all n_tasks traced tasks."""
        a = self.arrays()
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=a["self"], minlength=n_names)
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = _m(calls[i] / n_tasks, "calls/task")
            out[f"{name}.self_s"] = _m(self_s[i] / n_tasks, "s/task")
        for name in HOT:
            dur_us = a["dur"][a["name"] == self._ids[name]] * 1e6
            p50, p99 = (np.percentile(dur_us, [50, 99]) if dur_us.size
                        else (0.0, 0.0))
            out[f"{name}.us_p50"] = _m(p50, "us")
            out[f"{name}.us_p99"] = _m(p99, "us")

        def count(name):
            return int(calls[self._ids[name]])

        def nested(child, parent):
            sel = a["name"] == self._ids[child]
            par = a["parent"][sel]
            par = par[par >= 0]
            return int(np.sum(a["name"][par] == self._ids[parent]))

        out["basis.eig_per_cov"] = _m(
            _ratio(count("numerics.herm_eig"), count("phase_noise.estimate_cov")),
            "ratio")
        out["ofdm.data_idx_per_symbol"] = _m(
            _ratio(self.data_idx_builds, n_eval), "ratio")
        out["numerics.fft_per_symbol"] = _m(
            _ratio(count("numerics.fft") + count("numerics.ifft"), n_eval),
            "ratio")
        out["compensator.tls_fallback_frac"] = _m(
            _ratio(nested("compensator.solve_ls", "compensator.solve_tls"),
                   count("compensator.solve_tls")), "frac")
        out["tracker.dd_symbols"] = _m(
            nested("ofdm.hard_decide", "tracker.run_tracked") / n_tasks,
            "symbols/task")
        return out


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the denominator layer never ran."""
    return num / den if den else 0.0


def _m(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
