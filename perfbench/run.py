"""specmat benchmark: one command, four seeded workloads, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  ``--trace 0`` prints the
end-to-end metrics of one workload; ``--trace 1`` prints its per-layer
metrics from a separate traced process.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the full report with provenance.
The exit code is 0 only when every operation passed its reference check.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_LAUNCHES = 3          # set-up samples per run: the timed process plus two more
BLAS_THREADS = "1"          # one operation in flight, one BLAS thread
IMPORT_PROBES = 3
# every child is stopped by then, so a run ends well within 180 s
DEADLINE = time.monotonic() + 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(argv, what: str) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout the whole group
    (a cli_cold worker and its CLI child) is killed and reaped."""
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(DEADLINE - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{what} did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}: {err.strip()[-600:]}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def launch_worker(workload: str, seed: int, mode: str, seconds: float,
                  traced: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            repr(time.monotonic()), mode, repr(seconds), "1" if traced else "0"]
    proc = _run(argv, f"{workload} worker")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"{workload} worker printed no result: {exc}") from exc


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)]


def import_probes() -> dict:
    """Fresh-process import cost: ``import specmat`` wall time (median of
    IMPORT_PROBES) and scipy's cumulative share from ``-X importtime``."""
    code = ("import time; t = time.perf_counter(); import specmat; "
            "print(time.perf_counter() - t)")
    times = [float(_run([sys.executable, "-c", code], "import probe").stdout)
             for _ in range(IMPORT_PROBES)]
    proc = _run([sys.executable, "-X", "importtime", "-c", "import specmat"],
                "importtime probe")
    return {"cli.import_s": statistics.median(times),
            "cli.import_scipy_s": scipy_import_s(proc.stderr)}


def scipy_import_s(importtime_log: str) -> float:
    """Seconds of scipy imports that are not nested in another scipy import.

    ``-X importtime`` prints each module after its children, indented by
    nesting depth, with its cumulative microseconds.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = 0
    for i, (depth, cumulative, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            total += cumulative
    return total / 1e6


def provenance() -> dict:
    """Where and on what the numbers were taken."""
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = child_env()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads_env": {v: env[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        **git_state(),
    }


def git_state() -> dict:
    """Commit and dirtiness of the checkout; null outside a git work tree.
    The search for a repository stops at the checkout root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return {"git_commit": None, "git_dirty": None}
        status = subprocess.run(["git", "--no-optional-locks", "status", "--porcelain"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def end_to_end(workload: str, seed: int, seconds: float):
    timed = launch_worker(workload, seed, "timed", seconds, traced=False)
    extra = [launch_worker(workload, seed, "setup", 0.0, traced=False)
             for _ in range(SETUP_LAUNCHES - 1)]
    setups = [r["setup_s"] for r in [timed] + extra]
    lat, oks = timed["latencies"], timed["ok"]
    verified = sum(oks)
    pct = timed["tail_pct"]
    metrics = {
        "ops_per_s": verified / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": nearest_rank(lat, pct),
        "setup_s": statistics.median(setups),
        # the peak through set-up: the peak over the whole run is the
        # largest single operation of the round, which varies with the seed
        "peak_rss_mb": statistics.median(r["setup_rss_mb"] for r in [timed] + extra),
    }
    failures = timed["failures"] + [f for r in extra for f in r.get("failures", [])]
    attempted = len(oks) + len(extra) + 1          # timed ops plus each warm-up
    failed = len(oks) - verified + sum(not r["warmup_ok"] for r in extra + [timed])
    detail = {"samples": len(lat), "tail_percentile": pct,
              "samples_beyond_tail": sum(x > metrics["op_tail_s"] for x in lat),
              "inputs_per_round": timed["inputs"], "setup_samples_s": setups,
              "run_peak_rss_mb": timed["run_rss_mb"],
              "fail_frac": failed / attempted, "verify.max_rel_err": timed["max_rel_err"]}
    return metrics, attempted, failed, failures, detail


def per_layer(workload: str, seed: int, seconds: float):
    # the untraced and traced halves run in separate processes, so the
    # wrappers never touch a timed run; their gap is the trace overhead
    plain = launch_worker(workload, seed, "timed", seconds / 2, traced=False)
    traced = launch_worker(workload, seed, "timed", seconds / 2, traced=True)
    rate = {name: sum(r["ok"]) / sum(r["latencies"])
            for name, r in (("plain", plain), ("traced", traced))}
    layers = dict(traced["layers"])
    layers.update(import_probes())
    for cmd in ("classify", "spectrum", "cheb", "ev", "sweep"):
        layers[f"cli.inprocess_ms.{cmd}"] = traced["inprocess_ms"].get(cmd, 0.0)
    layers["verify.max_rel_err"] = max(plain["max_rel_err"], traced["max_rel_err"])
    layers["trace.overhead_frac"] = 1.0 - rate["traced"] / rate["plain"]
    runs = (plain, traced)
    attempted = sum(len(r["ok"]) + 1 for r in runs)
    failed = sum(len(r["ok"]) - sum(r["ok"]) + (not r["warmup_ok"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    detail = {"samples": {"plain": len(plain["ok"]), "traced": len(traced["ok"])},
              "ops_per_s": rate}
    return layers, attempted, failed, failures, detail


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "specmat" / "__init__.py").is_file():
        print(f"perfbench: no specmat sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        # byte-compile first so that no run pays for it inside set-up time
        _run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
             "compileall")
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, failures, detail = measure(
            args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "closed_loop": "1 process, 1 operation in flight",
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
              "detail": detail, "failures": failures, "provenance": provenance()}
    for k, u in units.items():
        print(f"{args.workload:>12}  {k:<36} {metrics[k]:.6g} {u}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
