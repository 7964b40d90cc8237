"""Start the serving daemon through ``repro.cli.main(["serve", ...])``.

    python3 perfbench/daemon.py [--spans OUT.json] serve --model NAME=PATH ...

Without ``--spans`` this is exactly ``repro serve``.  With it, the
benchmark's span wrappers are installed around the serving layers first,
and the recorded spans are written to ``OUT.json`` after the daemon has
drained (SIGTERM), so spans stay in memory while it serves.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import common
import tracing


def install(tracer: tracing.Tracer) -> None:
    import repro.persistence as persistence
    import repro.serve.http as http
    from repro.ensemble.compiled import CompiledEnsemble
    from repro.serve.batching import MicroBatcher
    from repro.serve.registry import ServedModel
    from repro.traffic.defenders import StreamDefender

    tracer.wrap(MicroBatcher, "submit", "serve.batching.submit")
    tracer.wrap(ServedModel, "serve_batch", "serve.registry.serve_batch")
    tracer.wrap(CompiledEnsemble, "predict_all", "ensemble.compiled.predict_all",
                extra=lambda args, kwargs, result: int(result.shape[1]))
    tracer.wrap(StreamDefender, "observe", "traffic.defenders.observe")
    tracer.wrap(http, "dumps", "jsonsafe.dumps")
    tracer.wrap(persistence, "load", "persistence.load")


def main(argv) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    common.require_source()
    from repro._jsonsafe import dumps
    from repro.cli import main as cli_main

    tracer = tracing.Tracer()
    if spans_path is not None:
        install(tracer)
    code = cli_main(argv)
    if spans_path is not None:
        partial = spans_path.with_suffix(".partial")
        partial.write_text(dumps(tracer.spans), encoding="utf-8")
        os.replace(partial, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
