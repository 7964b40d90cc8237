"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload {embed,serve,forge,replay} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same timed region untraced and then traced, and
prints the per-layer metrics, the stage table (self time per layer plus
an ``unaccounted`` row) and the tracing overhead.  Every run checks its
outputs; a failed check is a failed operation and makes ``correct``
false.  The last line of standard output is the JSON result.

Inputs derive from ``--seed`` and fixed fixtures (the training data and
models named in ``perfbench/README.md``).  Scratch files go to a private
directory under ``.perfbench_work/`` in the checkout and are removed on
exit; no tracked file is ever written.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys

import common

WORKLOADS = ("embed", "serve", "forge", "replay")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.require_source()
    module = importlib.import_module(args.workload)
    # Turn SIGTERM into an exception so that every ``finally`` runs: the
    # serve workload's daemon and load generator are stopped, not orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = common.work_dir()
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        common.remove_work_dir(workdir)
    common.emit(
        result,
        common.fingerprint(args.workload, args.seed, args.seconds, bool(args.trace)),
        bool(args.trace),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
