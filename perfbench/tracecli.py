"""Run one specmat CLI command with the layer trace installed.

    python3 perfbench/tracecli.py <specmat arguments>

Used by the traced cli_cold run in place of ``python -m specmat.cli``.
The command's own output and exit code are unchanged; the trace counters
and the in-process time of ``specmat.cli.main`` follow as the last line of
stderr, after the marker ``PERFBENCH_TRACE``.
"""

import json
import sys
import time

from layers import TRACE_MARK, Tracer
from specmat import cli


def main(argv) -> int:
    tracer = Tracer().install()
    tracer.start_op()
    t0 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        elapsed = time.perf_counter() - t0
        tracer.end_op()
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps({"inprocess_s": elapsed,
                                       "trace": tracer.snapshot()}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
