"""Self-tests of the benchmark harness (not of specmat).

    PYTHONPATH=src python3 perfbench/selftest.py

They show that a wrong result or a failed CLI process is counted as a
failed operation, that inputs are a pure function of the seed, and that
the layer trace leaves no wrapper behind.
"""

import dataclasses
import pickle
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench            # noqa: E402
import worker                  # noqa: E402
from layers import Tracer      # noqa: E402
from workloads import WORKLOADS, CliCall  # noqa: E402

from specmat import chebpath, rootfind, secular  # noqa: E402


def _corrupt(sp):
    """The same spectrum with its last eigenvalue moved by 1%."""
    eigs = list(sp.eigenvalues)
    v, m = eigs[-1]
    eigs[-1] = (v * 1.01 + 0.01, m)
    return dataclasses.replace(sp, eigenvalues=tuple(eigs))


class _Corrupting:
    """A workload that hands its check a corrupted result."""

    def __init__(self, base):
        self.base = base
        self.tail_pct = base.tail_pct

    def make_inputs(self, seed):
        return [self.base.warmup_input()]

    def warmup_input(self):
        return self.base.warmup_input()

    def run(self, item):
        result = self.base.run(item)
        if isinstance(result, tuple):         # curve_rect: (chebyshev, contour)
            return result[0], _corrupt(result[1])
        return _corrupt(result)

    def check(self, item, result):
        return self.base.check(item, result)


class _FailingCli:
    """cli_cold whose only operation exits non-zero (singular matrix: 4)."""

    def __init__(self, base):
        self.base = base
        self.tail_pct = base.tail_pct
        self.call = CliCall(("spectrum", "--real", "1", "1", "1", "1"), "spectrum",
                            base.warmup_input().reference)

    def make_inputs(self, seed):
        return [self.call]

    def warmup_input(self):
        return self.base.warmup_input()

    def run(self, item):
        return self.base.run(item)

    def check(self, item, result):
        return self.base.check(item, result)


def _one_op(name, workload):
    """worker.run for a single timed operation with ``workload`` in place."""
    saved = WORKLOADS[name]
    WORKLOADS[name] = workload
    try:
        return worker.run(name, 0, time.monotonic(), "timed", 0.0, traced=False)
    finally:
        WORKLOADS[name] = saved


class FailuresAreCounted(unittest.TestCase):
    def test_correct_results_pass(self):
        for name in ("lattice_grow", "curve_rect", "oracle_fd", "cli_cold"):
            wl = WORKLOADS[name]
            item = wl.warmup_input()
            self.assertTrue(wl.check(item, wl.run(item)).ok, name)

    def test_corrupted_eigenvalue_is_a_failure(self):
        # the warm-up operation is corrupted too, and also counted
        for name in ("lattice_grow", "curve_rect", "oracle_fd"):
            out = _one_op(name, _Corrupting(WORKLOADS[name]))
            self.assertFalse(out["warmup_ok"], name)
            self.assertEqual(out["ok"], [False], name)
            self.assertTrue(out["failures"], name)

    def test_nonzero_cli_exit_is_a_failure(self):
        out = _one_op("cli_cold", _FailingCli(WORKLOADS["cli_cold"]))
        self.assertEqual(out["ok"], [False])
        self.assertIn("exit 4", out["failures"][0])

    def test_exception_is_a_failure(self):
        class Raising(_Corrupting):
            def run(self, item):
                raise RuntimeError("boom")
        out = _one_op("lattice_grow", Raising(WORKLOADS["lattice_grow"]))
        self.assertEqual(out["ok"], [False])


class InputsFollowTheSeed(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, wl in WORKLOADS.items():
            a = pickle.dumps(wl.make_inputs(11))
            self.assertEqual(a, pickle.dumps(wl.make_inputs(11)), name)
            self.assertNotEqual(a, pickle.dumps(wl.make_inputs(12)), name)


class TraceLeavesNothingBehind(unittest.TestCase):
    def test_uninstall_restores_every_entry_point(self):
        originals = (secular.SecularFn.logderiv, rootfind.spectrum,
                     chebpath.polyroots, secular.build)
        tracer = Tracer().install()
        self.assertIsNot(rootfind.spectrum, originals[1])
        rootfind.spectrum(WORKLOADS["lattice_grow"].warmup_input(), count=3)
        tracer.uninstall()
        self.assertEqual((secular.SecularFn.logderiv, rootfind.spectrum,
                          chebpath.polyroots, secular.build), originals)
        self.assertGreater(tracer.units["logderiv"], 0)
        self.assertEqual(tracer.calls["spectrum"], 1)


class ImportTimeParsing(unittest.TestCase):
    def test_only_outermost_scipy_imports_count(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     scipy._lib",
            "import time:       200 |        300 |   scipy",
            "import time:        50 |         50 |     scipy.sparse._base",
            "import time:        10 |         60 |   scipy.sparse",
            "import time:        40 |        400 | specmat",
        ])
        self.assertAlmostEqual(bench.scipy_import_s(log), 360e-6)


if __name__ == "__main__":
    unittest.main()
