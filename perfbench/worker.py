"""One benchmark process: set up a workload, then run it closed-loop.

    python3 perfbench/worker.py WORKLOAD SEED LAUNCHED MODE SECONDS TRACED

LAUNCHED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start, imports, input
generation and one untimed warm-up operation.  MODE ``setup`` stops there;
MODE ``timed`` then runs one operation at a time, replaying the seeded
round of inputs, until SECONDS have passed.  TRACED=1 installs the layer
trace after set-up.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from layers import TRACE_MARK, Tracer, layer_metrics
from workloads import WORKLOADS, Check


def _attempt(wl, item):
    """Run one operation and check it; returns (seconds, result, Check).
    An exception from the program or from checking its result is a failure."""
    t0 = time.perf_counter()
    try:
        result = wl.run(item)
    except Exception as exc:  # the program failed this operation
        return time.perf_counter() - t0, None, Check(False, math.inf, repr(exc)[:300])
    dt = time.perf_counter() - t0
    try:
        return dt, result, wl.check(item, result)
    except Exception as exc:  # a malformed result is a failed operation
        return dt, result, Check(False, math.inf, f"check raised {exc!r}"[:300])


def run(name: str, seed: int, launched: float, mode: str, seconds: float,
        traced: bool) -> dict:
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed)
    # in-process workloads are traced here; cli_cold children trace
    # themselves and report on stderr
    tracer = child_trace = None
    if traced and name == "cli_cold":
        wl.launcher = (str(Path(__file__).with_name("tracecli.py")),)
        child_trace = Tracer()
    elif traced:
        tracer = Tracer()
    _, _, warm = _attempt(wl, wl.warmup_input())
    setup_s = time.monotonic() - launched
    # cli_cold's workload processes are its CLI children
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    out = {"setup_s": setup_s, "warmup_ok": warm.ok,
           "setup_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if not warm.ok:
        out["failures"] = [f"warm-up: {warm.detail}"]
    if mode == "setup":
        return out

    inprocess = defaultdict(list)
    if tracer is not None:
        tracer.install()
    latencies, oks, failures = [], [], []
    max_err = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        item = inputs[i % len(inputs)]
        i += 1
        if tracer is not None:
            tracer.start_op()
        dt, result, chk = _attempt(wl, item)
        if tracer is not None:
            tracer.end_op()
        if child_trace is not None and result is not None:
            mark = result.stderr.rfind(TRACE_MARK)
            if mark >= 0:
                snap = json.loads(result.stderr[mark + len(TRACE_MARK):])
                child_trace.merge(snap["trace"])
                inprocess[item.kind].append(snap["inprocess_s"])
        latencies.append(dt)
        oks.append(chk.ok)
        if math.isfinite(chk.err):
            max_err = max(max_err, chk.err)
        if not chk.ok and len(failures) < 5:
            failures.append(f"input {(i - 1) % len(inputs)}: {chk.detail or 'reference mismatch'}"
                            f" (err {chk.err:.3g})")
        if time.perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.uninstall()

    out.update(latencies=latencies, ok=oks, failures=out.get("failures", []) + failures,
               max_rel_err=max_err, inputs=len(inputs), tail_pct=wl.tail_pct,
               run_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    if traced:
        out["layers"] = layer_metrics(tracer or child_trace, len(latencies), sum(latencies))
        out["inprocess_ms"] = {k: 1e3 * sum(v) / len(v) for k, v in inprocess.items()}
    return out


if __name__ == "__main__":
    name, seed, launched, mode, seconds, traced = sys.argv[1:7]
    print(json.dumps(run(name, int(seed), float(launched), mode, float(seconds),
                         traced == "1")))
