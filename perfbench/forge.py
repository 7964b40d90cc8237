"""``forge``: the attacker's cost — SAT-backed forgery of a trigger set.

Set-up builds a 32-tree watermarked mnist26 model (784 features).  The
timed region repeats one fixed sweep: ``forge_trigger_set`` run serially
with the default encoding reuse and a fixed solver budget, for several
fake signatures across an epsilon grid.  Every sweep does identical work,
so its sat/unsat/unknown counts must repeat exactly.

Why: ``solver.compiled_encoding`` (encode), ``solver.sat`` (propagate and
decide) and ``attacks.forgery`` do the work here and nowhere else; several
signatures make encoding count as well as solving.  The 784-feature shape
reaches ``trees`` through this workload's set-up.
"""

from __future__ import annotations

from time import perf_counter

from common import Paced, Reference, Result, median, self_peak_rss_mb, sub_seed
import tracing

N_SAMPLES = 300
TEST_SIZE = 0.3
N_TREES = 32
TRIGGER_SIZE = 8
FOREST_PARAMS = {"max_depth": 6}
#: Bits of the model's own signature flipped to make each fake one.  A
#: uniformly random fake signature is unrealisable on this forest at any
#: epsilon and is refuted in a few conflicts; fakes near the real one
#: give the solver a mix of sat and unsat instances.
#: Sixteen fakes of 10 instances rather than eight of 20: how hard a
#: sweep is depends on which bits the seed flips, and more fakes average
#: that out (eight moved the time per instance by a tenth between seeds).
FLIPS = (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)
EPSILONS = (0.2, 0.4, 0.6)
INSTANCES_PER_CALL = 10
SOLVER_BUDGET = 20_000
MIN_SWEEPS = 3
SETUP_REPEATS = 3
#: The forest under attack is a fixed fixture: how hard forgery is
#: depends far more on the forest than on anything else, so a forest per
#: seed would make seeds incomparable.  The seed picks the fake
#: signatures and the attempt order.
MODEL_SEED = 0

SPAN_LAYERS = {
    "attacks.forgery": "attacks.forgery",
    "solver.compiled_encoding.compile": "solver.compiled_encoding",
    "solver.compiled_encoding.solve": "solver.compiled_encoding",
    "solver.sat.solve": "solver.sat",
}


def _setup(seed: int):
    from repro.api import TrainerConfig, TriggerPolicy, Watermarker
    import numpy as np

    from repro.core import Signature, random_signature
    from repro.datasets import mnist26_like
    from repro.model_selection import train_test_split

    data = mnist26_like(N_SAMPLES, random_state=sub_seed(MODEL_SEED, 0))
    X_train, X_test, y_train, y_test = train_test_split(
        data.X, data.y, test_size=TEST_SIZE, random_state=sub_seed(MODEL_SEED, 1)
    )
    signature = random_signature(m=N_TREES, random_state=sub_seed(MODEL_SEED, 2))
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=TRIGGER_SIZE),
        trainer=TrainerConfig(base_params=dict(FOREST_PARAMS), n_jobs=1),
        random_state=sub_seed(MODEL_SEED, 3),
    ).fit(X_train, y_train)
    rng = np.random.default_rng(sub_seed(seed, 20))
    calls = []
    for k, flips in enumerate(FLIPS):
        bits = signature.as_array().copy()
        bits[rng.choice(N_TREES, size=flips, replace=False)] ^= 1
        fake = Signature.from_iterable(bits.tolist())
        calls += [(fake, eps, sub_seed(seed, 21, k, j)) for j, eps in enumerate(EPSILONS)]
    return model.ensemble, X_test, y_test, calls


def _sweep(forest, X_test, y_test, calls):
    from repro.attacks import forgery

    return [
        forgery.forge_trigger_set(
            forest, fake, X_test, y_test, epsilon=eps, engine="smt",
            max_instances=INSTANCES_PER_CALL, solver_budget=SOLVER_BUDGET,
            n_jobs=1, reuse_encoding=True, random_state=order_seed,
        )
        for fake, eps, order_seed in calls
    ]


def _check_sweep(result: Result, forest, X_test, y_test, outcomes) -> tuple:
    """Forged points lie in their epsilon-ball and realise the fake pattern."""
    import numpy as np

    from repro.solver import required_labels

    for outcome in outcomes:
        if outcome.n_forged == 0:
            continue
        sources = X_test[outcome.source_index]
        inside = np.abs(outcome.forged_X - sources).max(axis=1) <= outcome.epsilon + 1e-9
        in_domain = (outcome.forged_X >= 0.0).all() and (outcome.forged_X <= 1.0).all()
        per_tree = forest.predict_all(outcome.forged_X)
        required = np.array(
            [required_labels(outcome.signature, int(y_test[row]))
             for row in outcome.source_index]
        ).T
        result.check(bool(inside.all() and in_domain),
                     f"eps={outcome.epsilon}: forged instance outside its eps-ball")
        result.check(bool(np.array_equal(per_tree, required)),
                     f"eps={outcome.epsilon}: forged instance misses the fake pattern")
    return tuple(
        (o.statuses.get("sat", 0), o.statuses.get("unsat", 0), o.statuses.get("unknown", 0))
        for o in outcomes
    )


def _measure(forest, X_test, y_test, calls, seconds, result, kernel):
    """Repeat the sweep until ``seconds`` pass; returns the timed sweeps,
    the status counts and the instances decided per sweep."""
    sweeps, counts, decided = Paced(kernel), None, 0
    started = perf_counter()
    while len(sweeps.raw) < MIN_SWEEPS or perf_counter() - started < seconds:
        outcomes = sweeps(lambda: _sweep(forest, X_test, y_test, calls))
        decided = sum(o.n_attempted for o in outcomes)
        sweep_counts = _check_sweep(result, forest, X_test, y_test, outcomes)
        if counts is None:
            counts = sweep_counts
        result.check(sweep_counts == counts,
                     "sat/unsat/unknown counts changed between identical sweeps")
    return sweeps, counts, decided


def _install_setup(tracer):
    import repro.trees.tree as tree_module
    from repro.trees import DecisionTreeClassifier

    tracer.wrap(DecisionTreeClassifier, "fit", "trees.fit")
    tracer.wrap(tree_module, "presorted_dataset", "trees.presort")


def _install(tracer):
    import repro.attacks.forgery as forgery
    import repro.solver.compiled_encoding as compiled_encoding
    from repro.solver import CompiledPatternEncoding, SATSolver

    tracer.wrap(forgery, "forge_trigger_set", "attacks.forgery",
                extra=lambda a, k, r: dict(r.statuses))
    tracer.wrap(compiled_encoding, "compile_pattern_encoding",
                "solver.compiled_encoding.compile")
    tracer.wrap(CompiledPatternEncoding, "solve_smt", "solver.compiled_encoding.solve")
    tracer.wrap(SATSolver, "solve", "solver.sat.solve",
                extra=lambda a, k, r: (r.conflicts, r.decisions, r.propagations))


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    from repro.trees import clear_presort_cache, presort_cache_stats

    result = Result()
    kernel = Reference()
    setup = Paced(kernel)
    setup_tracer = tracing.Tracer()
    if trace:
        _install_setup(setup_tracer)
    before = presort_cache_stats()
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            clear_presort_cache()
            forest, X_test, y_test, calls = setup(lambda: _setup(seed))
    finally:
        setup_tracer.restore()
    after = presort_cache_stats()
    forest.compile()
    result.lines.append(
        f"forge: {N_TREES}-tree mnist26 model ({X_test.shape[1]} features); sweep = "
        f"{len(FLIPS)} fake signatures x eps {list(EPSILONS)} x "
        f"{INSTANCES_PER_CALL} instances, smt engine, budget {SOLVER_BUDGET} conflicts"
    )
    sweeps, counts, decided = _measure(forest, X_test, y_test, calls, seconds,
                                       result, kernel)
    times = sweeps.raw
    totals = [sum(column) for column in zip(*counts)]
    result.lines.append(
        f"sweeps: {len(times)}; per sweep {decided} instances: sat {totals[0]}, "
        f"unsat {totals[1]}, unknown {totals[2]}; instances/s per sweep "
        + ", ".join(f"{decided / t:.1f}" for t in times)
    )
    result.lines.append(
        f"instances_per_s  {decided / median(times):.6g} 1/s (median over sweeps)")
    result.lines.append(setup.describe("set-ups"))
    result.lines.append(sweeps.describe("sweeps"))
    if not trace:
        # One operation is one forgery instance decided, timed at the
        # reference host speed (see common.REFERENCE_S).
        result.end_to_end(median(setup.scaled), self_peak_rss_mb(),
                          median(sweeps.scaled) / decided * 1e3)
        return result

    tracer = tracing.Tracer()
    _install(tracer)
    try:
        traced, _, _ = _measure(forest, X_test, y_test, calls, seconds, result,
                                kernel)
    finally:
        tracer.restore()
    spans = tracer.spans
    setup_spans = setup_tracer.spans
    sat = tracing.named(spans, "solver.sat.solve")
    statuses = [span[tracing.EXTRA] for span in tracing.named(spans, "attacks.forgery")]
    m = result.metric
    m("trees.fit_s", tracing.total_s(setup_spans, "trees.fit"), "s")
    m("trees.fits", len(tracing.named(setup_spans, "trees.fit")), "count")
    m("trees.presort_s", tracing.total_s(setup_spans, "trees.presort"), "s")
    m("trees.presort_hits", after["hits"] - before.get("hits", 0), "count")
    m("trees.presort_misses", after["misses"] - before.get("misses", 0), "count")
    m("solver.compiled_encoding.compiles",
      len(tracing.named(spans, "solver.compiled_encoding.compile")), "count")
    m("solver.compiled_encoding.compile_s",
      tracing.total_s(spans, "solver.compiled_encoding.compile"), "s")
    m("solver.compiled_encoding.solve_s",
      tracing.total_s(spans, "solver.compiled_encoding.solve"), "s")
    m("solver.sat.solve_s", tracing.total_s(spans, "solver.sat.solve"), "s")
    for i, counter in enumerate(("conflicts", "decisions", "propagations")):
        m(f"solver.sat.{counter}", sum(span[tracing.EXTRA][i] for span in sat), "count")
    for status in ("sat", "unsat", "unknown"):
        m(f"attacks.forgery.{status}", sum(s.get(status, 0) for s in statuses), "count")
    m("attacks.forgery.other_s", tracing.self_times(spans).get("attacks.forgery", 0.0), "s")
    total = sum(traced.raw)
    rows, share = tracing.stage_table(spans, SPAN_LAYERS, total)
    m("unaccounted_frac", share, "ratio")
    result.lines += tracing.format_stage_table(
        "stage table (self time over all traced sweeps; unaccounted = the "
        "benchmark's sweep loop)", rows, total)
    untraced_rate, traced_rate = decided / median(times), decided / median(traced.raw)
    overhead = traced_rate - untraced_rate
    result.lines.append(
        f"tracing overhead: instances_per_s {overhead:+.2f} 1/s "
        f"({overhead / untraced_rate:+.1%}; traced {traced_rate:.2f}, "
        f"untraced {untraced_rate:.2f})"
    )
    return result
