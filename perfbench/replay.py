"""``replay``: the served model under streamed traffic, 1024 rows per call.

Set-up builds the ``serve`` workload's 64-tree watermarked ijcnn1 model.
The timed region alternates :func:`repro.traffic.replay_scenario` over
the ``mixed`` and ``legit`` scenarios at batch 1024: generators, the
compiled engine and both online defenders on every batch.

Why: the same ``ensemble.compiled`` engine and ``traffic.defenders`` fold
that ``serve`` uses, but at 1024 rows per call, so an engine change that
trades overhead per call against throughput per row shows on one of the
two; and the only workload where ``traffic.generators`` runs.
"""

from __future__ import annotations

from time import perf_counter

from common import Paced, Reference, Result, median, self_peak_rss_mb, sub_seed
import serve
import tracing

SCENARIOS = ("mixed", "legit")
QUERIES_PER_REPLAY = 50_000
BATCH = 1024
MIN_CYCLES = 3
#: The defenders' false-alarm budget per replay.  The default (0.05)
#: allows a false alarm in one legit replay in twenty, which a gate that
#: ``legit`` stays silent cannot tolerate; ``mixed`` still fires at this
#: level.
ALPHA = 1e-6
SETUP_REPEATS = 3

SPAN_LAYERS = {
    "traffic.generators.take": "traffic.generators",
    "ensemble.compiled.predict_all": "ensemble.compiled",
    "traffic.defenders.observe": "traffic.defenders",
    "traffic.replay": "traffic.replay",
}


def _measure(model, X_pool, seed, seconds, result, kernel):
    """Alternate the scenarios until ``seconds`` pass; returns the timed
    cycles and the batches in all of them.

    Every cycle replays the same streams, so its verdicts must repeat.
    """
    from repro import traffic

    def cycle():
        return [
            traffic.replay_scenario(
                name, model, X_pool, n_queries=QUERIES_PER_REPLAY, batch_size=BATCH,
                random_state=sub_seed(seed, 30, i), alpha=ALPHA,
            )
            for i, name in enumerate(SCENARIOS)
        ]

    cycles, batches = Paced(kernel), 0
    started = perf_counter()
    while len(cycles.raw) < MIN_CYCLES or perf_counter() - started < seconds:
        reports = cycles(cycle)
        for name, report in zip(SCENARIOS, reports):
            batches += report.n_batches
            fired = [verdict.fired for verdict in report.verdicts]
            result.check(sum(report.source_counts.values()) == QUERIES_PER_REPLAY,
                         f"{name}: served {report.source_counts} != {QUERIES_PER_REPLAY}")
            if name == "legit":
                result.check(not any(fired), f"legit: a defender raised a false alarm {fired}")
            else:
                result.check(all(fired), f"{name}: a defender stayed silent {fired}")
    return cycles, batches


def _install(tracer):
    import repro.traffic.scenarios as scenarios
    from repro.ensemble.compiled import CompiledEnsemble
    from repro.traffic import BaseGenerator, StreamDefender

    tracer.wrap(BaseGenerator, "take", "traffic.generators.take")
    tracer.wrap(CompiledEnsemble, "predict_all", "ensemble.compiled.predict_all",
                extra=lambda args, kwargs, result: int(result.shape[1]))
    tracer.wrap(StreamDefender, "observe", "traffic.defenders.observe")
    tracer.wrap(scenarios, "replay", "traffic.replay")


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    result = Result()
    kernel = Reference()
    setup = Paced(kernel)

    def build():
        model, X_train, _ = serve.build_model()
        model.ensemble.compile()
        return model, X_train

    for _ in range(1 if trace else SETUP_REPEATS):
        model, X_train = setup(build)
    result.lines.append(
        f"replay: {serve.N_TREES}-tree ijcnn1 model; scenarios {', '.join(SCENARIOS)} x "
        f"{QUERIES_PER_REPLAY} queries at batch {BATCH} per cycle"
    )
    cycles, batches = _measure(model, X_train, seed, seconds, result, kernel)
    times = cycles.raw
    queries = QUERIES_PER_REPLAY * len(SCENARIOS)
    result.lines.append(
        f"cycles: {len(times)}; queries/s per cycle "
        + ", ".join(f"{queries / t:.0f}" for t in times)
    )
    result.lines.append(
        f"queries_per_s  {queries / median(times):.6g} 1/s (median over cycles)")
    result.lines.append(setup.describe("set-ups"))
    result.lines.append(cycles.describe("cycles"))
    if not trace:
        # One operation is one batch of BATCH rows through generator,
        # engine and defenders, timed at the reference host speed (see
        # common.REFERENCE_S).
        per_cycle = batches / len(times)
        result.end_to_end(median(setup.scaled), self_peak_rss_mb(),
                          median(cycles.scaled) / per_cycle * 1e3)
        return result

    tracer = tracing.Tracer()
    _install(tracer)
    try:
        traced, batches = _measure(model, X_train, seed, seconds, result, kernel)
    finally:
        tracer.restore()
    spans = tracer.spans
    takes = tracing.named(spans, "traffic.generators.take")
    take_ids = {span[tracing.ID] for span in takes}
    outer_takes = [span for span in takes if span[tracing.PARENT] not in take_ids]
    calls = tracing.named(spans, "ensemble.compiled.predict_all")
    observes = tracing.named(spans, "traffic.defenders.observe")
    rows = sum(span[tracing.EXTRA] for span in calls)
    engine_s = tracing.total_s(spans, "ensemble.compiled.predict_all")
    m = result.metric
    m("traffic.generators.batch_s",
      sum(span[tracing.END] - span[tracing.START] for span in outer_takes), "s")
    m("traffic.replay.batches", batches, "count")
    m("ensemble.compiled.predict_all_us", engine_s / len(calls) * 1e6, "us")
    m("ensemble.compiled.predict_all_ns_per_row", engine_s / rows * 1e9, "ns")
    m("traffic.defenders.observe_us",
      tracing.total_s(spans, "traffic.defenders.observe") / len(observes) * 1e6, "us")
    total = sum(traced.raw)
    table, share = tracing.stage_table(spans, SPAN_LAYERS, total)
    m("unaccounted_frac", share, "ratio")
    result.lines += tracing.format_stage_table(
        "stage table (self time over all traced cycles; traffic.replay includes "
        "scenario building and defender calibration)", table, total)
    untraced_rate, traced_rate = queries / median(times), queries / median(traced.raw)
    overhead = traced_rate - untraced_rate
    result.lines.append(
        f"tracing overhead: queries_per_s {overhead:+.0f} 1/s "
        f"({overhead / untraced_rate:+.1%}; traced {traced_rate:.0f}, "
        f"untraced {untraced_rate:.0f})"
    )
    return result
