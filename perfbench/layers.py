"""Outside-in layer trace for the traced benchmark run.

The wrappers replace public specmat functions on their modules (and
``scipy.linalg.eigvals``, which the oracle calls) for the life of one
process.  They are installed only in the traced worker or a traced CLI
child, never in a process whose timings feed the end-to-end metrics.

Each wrapped name accumulates calls, wall seconds of its outermost calls
(a call nested in another call of the same name is counted but not timed
twice) and units of work: sample points for ``logderiv``, zeros found
for ``isolate_zeros``.  Time spent in ``logderiv`` and ``build`` while
``spectrum`` is running is kept apart, so that the root finder's self
time can be derived.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

from specmat import canonical, chebpath, oracle, rootfind, secular, sweep

# marks the line on which a traced CLI child reports its counters (stderr)
TRACE_MARK = "PERFBENCH_TRACE "


def _n_of_matrix(args, kw):
    """Grid size n of a (2n+2)-square discretization matrix."""
    return (np.shape(args[0])[0] - 2) // 2


class Tracer:
    """Per-name counters for one process; ``snapshot`` returns plain data
    that can be merged across processes with :meth:`merge`."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.units = defaultdict(int)
        self.in_spectrum = defaultdict(float)
        self.isolate_zeros_per_op = []   # zeros found by each isolate call of an op
        self.useful_ratios = []
        self._depth = defaultdict(int)
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, units=None, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            label = name if key is None else f"{name}.n{key(args, kw)}"
            self.calls[label] += 1
            if units is not None:
                self.units[label] += int(np.size(units(args, kw)))
            self._depth[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                self._depth[name] -= 1
            if self._depth[name] == 0:
                self.seconds[label] += dt
                if self._depth["spectrum"] and name in ("logderiv", "build"):
                    self.in_spectrum[name] += dt
            if name == "isolate_zeros":
                self.units[label] += len(result)
                self.isolate_zeros_per_op.append(len(result))
            return result
        return wrapper

    def _patch(self, owners, attr, name, **kw):
        wrapper = self._wrap(getattr(owners[0], attr), name, **kw)
        for owner in owners:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced entry point; undone by :meth:`uninstall`."""
        self._patch([secular.SecularFn], "logderiv", "logderiv",
                    units=lambda a, k: a[1])
        self._patch([secular.SecularFn], "polish_multiple", "polish_multiple")
        # a name imported with ``from ... import`` is patched where it is used
        self._patch([secular, rootfind], "build", "build")
        self._patch([rootfind, sweep], "spectrum", "spectrum")
        self._patch([rootfind], "isolate_zeros", "isolate_zeros")
        self._patch([rootfind], "winding_count", "winding_count")
        self._patch([chebpath], "polyroots", "polyroots")
        self._patch([chebpath], "build_g", "build_g")
        self._patch([chebpath, sweep], "cheb_spectrum", "cheb_spectrum")
        self._patch([oracle, sweep], "discretize", "discretize",
                    key=lambda a, k: a[1] if len(a) > 1 else k["n"])
        self._patch([scipy.linalg], "eigvals", "eigvals", key=_n_of_matrix)
        self._patch([canonical], "predict", "predict")
        self._patch([canonical], "similarity_certificates", "certificates")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- per operation --------------------------------------------------------

    def start_op(self):
        self.isolate_zeros_per_op = []

    def end_op(self):
        """Share of an op's isolated zeros that came from its last isolation:
        earlier rounds of box growth are work thrown away."""
        found = self.isolate_zeros_per_op
        if found and sum(found):
            self.useful_ratios.append(found[-1] / sum(found))

    # -- data -----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "units": dict(self.units), "in_spectrum": dict(self.in_spectrum),
                "useful_ratios": list(self.useful_ratios)}

    def merge(self, snap: dict):
        for field in ("calls", "seconds", "units", "in_spectrum"):
            mine = getattr(self, field)
            for k, v in snap[field].items():
                mine[k] += v
        self.useful_ratios.extend(snap["useful_ratios"])


def _per_call(t: Tracer, label: str, scale: float) -> float:
    calls = t.calls.get(label, 0)
    return scale * t.seconds.get(label, 0.0) / calls if calls else 0.0


def layer_metrics(t: Tracer, ops: int, op_seconds: float) -> dict:
    """Per-layer metrics from the traced run's counters.  Layers a workload
    does not reach read 0 (the predicted no-change rows)."""
    ops = max(ops, 1)
    pts = t.units.get("logderiv", 0)
    ld_s = t.seconds.get("logderiv", 0.0)
    zeros_total = t.units.get("isolate_zeros", 0)
    eig_s = sum(v for k, v in t.seconds.items() if k.startswith("eigvals"))
    sp_s = t.seconds.get("spectrum", 0.0)
    return {
        "secular.logderiv_points_per_op": pts / ops,
        "secular.logderiv_ns_per_point": 1e9 * ld_s / pts if pts else 0.0,
        "secular.logderiv_calls_per_op": t.calls.get("logderiv", 0) / ops,
        "secular.logderiv_share": ld_s / op_seconds if op_seconds else 0.0,
        "secular.build_ms": _per_call(t, "build", 1e3),
        "secular.polish_multiple_calls_per_op": t.calls.get("polish_multiple", 0) / ops,
        "rootfind.isolate_calls_per_op": t.calls.get("isolate_zeros", 0) / ops,
        "rootfind.winding_count_calls_per_op": t.calls.get("winding_count", 0) / ops,
        "rootfind.useful_zero_ratio": (float(np.mean(t.useful_ratios))
                                       if t.useful_ratios else 0.0),
        "rootfind.zeros_isolated_per_op": zeros_total / ops,
        "rootfind.points_per_zero": pts / zeros_total if zeros_total else 0.0,
        "rootfind.self_s_per_op": (sp_s - t.in_spectrum.get("logderiv", 0.0)
                                   - t.in_spectrum.get("build", 0.0)) / ops,
        "rootfind.polyroots_us": _per_call(t, "polyroots", 1e6),
        "chebpath.cheb_spectrum_ms": _per_call(t, "cheb_spectrum", 1e3),
        "chebpath.build_g_ms": _per_call(t, "build_g", 1e3),
        "oracle.eigvals_s_n200": _per_call(t, "eigvals.n200", 1.0),
        "oracle.eigvals_s_n100": _per_call(t, "eigvals.n100", 1.0),
        "oracle.eigvals_share": eig_s / op_seconds if op_seconds else 0.0,
        "oracle.discretize_ms_n200": _per_call(t, "discretize.n200", 1e3),
        "canonical.predict_ms": _per_call(t, "predict", 1e3),
        "canonical.certificates_ms": _per_call(t, "certificates", 1e3),
    }
