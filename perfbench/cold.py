"""One kernel started cold, in this fresh interpreter.

    python3 perfbench/cold.py <kernel> --trace <0|1>

The ``cold-modulo`` workload runs this once per kernel (see
:func:`perfbench.workloads.cold_modulo`).  It runs
:func:`perfbench.workloads.cold_start` with the host's speed sampled and
prints one JSON line: the nominal and host seconds, the checks made, the
result's reference key and digest (the parent checks it), and with
``--trace 1`` the tracer's state for the parent to absorb.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernel")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.hostspeed import HostSpeed
    from perfbench.reference import digest, entry_key
    from perfbench.spans import Tracer
    from perfbench.workloads import Run, cold_start

    tracer = Tracer() if args.trace else None
    with HostSpeed() as speed:
        run = Run("cold-modulo", tracer, speed=speed)
        result = cold_start(run, args.kernel)
        if tracer is not None:
            tracer.time_untraced(-1)
    print(json.dumps({
        "request_s": run.requests[0],
        "host_s": run.host_phase_s,
        "nodes": run.layers["trace.nodes"],
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "entry": [entry_key(result), digest(result)],
        "trace": None if tracer is None else tracer.state(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
