"""``embed``: the owner's cost — Algorithm 1, one model at a time.

Set-up runs the paper's grid search (line 12 of Algorithm 1,
``grid_search_forest``) once on the ijcnn1 stand-in (1,400 training rows
x 22 features), as an owner who watermarks several models of one dataset
does.  Each operation is then one watermarked model: ``Watermarker.fit``
with a 32-bit signature, an 8-row trigger set, the searched
hyper-parameters plus Adjust and ``n_jobs=1``, then save ``.rfbin`` ->
mmap load -> strict ``verify_ownership`` -> ``commit_secret``.  The
presort cache is cleared before every model, because an owner embedding
one model pays for it.

Why: ``trees``, ``model_selection``, ``core.embedding`` and
``persistence`` do nearly all the work here and none in ``serve`` or
``replay``.  With the search inside each model (``base_params=None``) a
model took 6-8.5 s, so a 10 s run timed two, and their median moved by
a fifth between seeds.
"""

from __future__ import annotations

from time import perf_counter

from common import Paced, Reference, Result, median, self_peak_rss_mb, sub_seed
import tracing

N_SAMPLES = 2000
TEST_SIZE = 0.3
SIGNATURE_BITS = 32
#: A 16-row trigger set took 2.2 s per model (coefficient of variation
#: 0.14 across signatures), so a 10 s run timed five and their median
#: moved by a sixth between seeds; 8 rows take 1.2 s (0.12).
TRIGGER_SIZE = 8
#: A run times at least this many models, even past ``--seconds``: the
#: median of the six or so that fit in 10 s still moved by 0.09 between
#: seeds.
MIN_MODELS = 8
MAX_MODELS = 32
SETUP_REPEATS = 3
#: The training data and the grid search over it are a fixed fixture: the
#: search picks different depths on different draws of the data, which
#: moves the cost of a model by a third.  The seed picks each model's
#: signature and randomness.
DATA_SEED = 0

SPAN_LAYERS = {
    "core.adjustment": "core.adjustment",
    "core.embedding.train_with_trigger": "core.embedding",
    "ensemble.forest.fit": "ensemble.forest",
    "ensemble.forest.refit_trees": "ensemble.forest",
    "ensemble.forest.predict_all": "ensemble.forest",
    "trees.fit": "trees",
    "trees.presort": "trees",
    "persistence.save": "persistence",
    "persistence.load": "persistence",
    "core.verification": "core.verification",
    "core.commitment": "core.commitment",
}


def _inputs(seed: int):
    from repro.core import random_signature
    from repro.datasets import ijcnn1_like
    from repro.model_selection import train_test_split

    data = ijcnn1_like(N_SAMPLES, random_state=sub_seed(DATA_SEED, 0))
    X_train, X_test, y_train, y_test = train_test_split(
        data.X, data.y, test_size=TEST_SIZE, random_state=sub_seed(DATA_SEED, 1)
    )
    specs = [
        (
            random_signature(m=SIGNATURE_BITS, random_state=sub_seed(seed, 2, i)),
            sub_seed(seed, 3, i),
            sub_seed(seed, 4, i).to_bytes(4, "little") * 8,
        )
        for i in range(MAX_MODELS)
    ]
    return X_train, y_train, X_test, specs


def _setup(seed: int):
    """Inputs plus the grid-searched hyper-parameters of the dataset."""
    from repro.model_selection import grid_search_forest

    X_train, y_train, X_test, specs = _inputs(seed)
    search = grid_search_forest(
        X_train, y_train, n_estimators=SIGNATURE_BITS, n_jobs=1,
        random_state=sub_seed(DATA_SEED, 5),
    )
    return X_train, y_train, X_test, specs, dict(search.best_params)


def _one_model(X_train, y_train, base_params, spec, path):
    """The timed operation; returns (model, loaded, report, commitment)."""
    from repro.api import TrainerConfig, TriggerPolicy, Watermarker
    from repro.core import WatermarkedModel, WatermarkSecret, commitment, verification

    signature, random_state, salt = spec
    model = Watermarker(
        signature=signature,
        trigger=TriggerPolicy(size=TRIGGER_SIZE),
        trainer=TrainerConfig(base_params=dict(base_params), n_jobs=1),
        random_state=random_state,
    ).fit(X_train, y_train)
    model.save(path)
    loaded = WatermarkedModel.load(path, mmap_mode="r")
    report = verification.verify_ownership(
        loaded.ensemble, loaded.signature, loaded.trigger.X, loaded.trigger.y,
        mode="strict",
    )
    secret = WatermarkSecret(loaded.signature, loaded.trigger.X, loaded.trigger.y)
    digest = commitment.commit_secret(secret, salt=salt)
    return model, loaded, report, digest


def _measure(X_train, y_train, X_test, base_params, specs, seconds, workdir,
             result, kernel) -> Paced:
    """Embed models until ``seconds`` pass and MIN_MODELS are done."""
    import numpy as np

    from repro.exceptions import ConvergenceError
    from repro.trees import clear_presort_cache

    paced = Paced(kernel)
    started = perf_counter()
    for i, spec in enumerate(specs):
        if i >= MIN_MODELS and perf_counter() - started >= seconds:
            break
        clear_presort_cache()
        path = workdir / f"model-{i}.rfbin"
        try:
            model, loaded, report, digest = paced(
                lambda: _one_model(X_train, y_train, base_params, spec, path))
        except ConvergenceError as exc:
            result.check(False, f"model {i}: {exc}")
            continue
        same = np.array_equal(
            model.ensemble.predict_all(X_test), loaded.ensemble.predict_all(X_test)
        )
        result.check(bool(report.accepted), f"model {i}: strict verification rejected")
        result.check(same, f"model {i}: reloaded .rfbin predicts differently")
        result.check(len(digest.digest) == 64, f"model {i}: bad commitment digest")
        path.unlink()
    return paced


def _install(tracer):
    import repro.api.pipeline as pipeline
    import repro.core.commitment as commitment
    import repro.core.verification as verification
    import repro.persistence as persistence
    import repro.trees.tree as tree_module
    from repro.ensemble import RandomForestClassifier
    from repro.trees import DecisionTreeClassifier

    tracer.wrap(pipeline, "adjust_hyperparameters", "core.adjustment")
    tracer.wrap(pipeline, "train_with_trigger", "core.embedding.train_with_trigger",
                extra=lambda a, k, r: r[1])
    tracer.wrap(RandomForestClassifier, "fit", "ensemble.forest.fit")
    tracer.wrap(RandomForestClassifier, "refit_trees", "ensemble.forest.refit_trees",
                extra=lambda a, k, r: len(a[1]))
    tracer.wrap(RandomForestClassifier, "predict_all", "ensemble.forest.predict_all")
    tracer.wrap(DecisionTreeClassifier, "fit", "trees.fit")
    tracer.wrap(tree_module, "presorted_dataset", "trees.presort")
    tracer.wrap(persistence, "save", "persistence.save")
    tracer.wrap(persistence, "load", "persistence.load")
    tracer.wrap(verification, "verify_ownership", "core.verification")
    tracer.wrap(commitment, "commit_secret", "core.commitment")


def _layer_metrics(spans, setup_spans, presort_delta, total_s, result):
    by_id = {span[tracing.ID]: span for span in spans}

    def parent_name(span):
        parent = by_id.get(span[tracing.PARENT])
        return parent[tracing.NAME] if parent else None

    embeds = tracing.named(spans, "core.embedding.train_with_trigger")
    refits = sorted(tracing.named(spans, "ensemble.forest.refit_trees"),
                    key=lambda span: span[tracing.START])
    first_refit: dict[int, int] = {}
    for span in refits:
        first_refit.setdefault(span[tracing.PARENT], span[tracing.EXTRA])
    # Trees kept compliant stay compliant, so every tree a later round
    # refits was refit (uselessly) the round before: the useful refits
    # of one TrainWithTrigger call are exactly those of its first round.
    n_refit = sum(span[tracing.EXTRA] for span in refits)
    misfit = [
        span for span in tracing.named(spans, "ensemble.forest.predict_all")
        if parent_name(span) == "core.embedding.train_with_trigger"
    ]
    m = result.metric
    m("model_selection.grid_search_s",
      tracing.total_s(setup_spans, "model_selection.grid_search"), "s")
    m("core.adjustment_s", tracing.total_s(spans, "core.adjustment"), "s")
    m("core.embedding.rounds", sum(span[tracing.EXTRA] for span in embeds), "count")
    m("core.embedding.refit_useful",
      sum(first_refit.values()) / n_refit if n_refit else 1.0, "ratio")
    m("ensemble.forest.fit_s",
      tracing.total_s(spans, "ensemble.forest.fit")
      + tracing.total_s(spans, "ensemble.forest.refit_trees"), "s")
    m("ensemble.forest.misfit_check_s",
      sum(span[tracing.END] - span[tracing.START] for span in misfit), "s")
    m("trees.presort_s", tracing.total_s(spans, "trees.presort"), "s")
    m("trees.presort_hits", presort_delta["hits"], "count")
    m("trees.presort_misses", presort_delta["misses"], "count")
    m("trees.fit_s", tracing.total_s(spans, "trees.fit"), "s")
    m("trees.fits", len(tracing.named(spans, "trees.fit")), "count")
    m("persistence.save_s", tracing.total_s(spans, "persistence.save"), "s")
    m("persistence.load_s", tracing.total_s(spans, "persistence.load"), "s")
    m("core.verification_s", tracing.total_s(spans, "core.verification"), "s")
    rows, share = tracing.stage_table(spans, SPAN_LAYERS, total_s)
    m("unaccounted_frac", share, "ratio")
    return tracing.format_stage_table(
        "stage table (self time over all traced models)", rows, total_s)


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    from repro.trees import presort_cache_stats

    import repro.model_selection as model_selection

    result = Result()
    kernel = Reference()
    setup = Paced(kernel)
    setup_tracer = tracing.Tracer()
    if trace:
        setup_tracer.wrap(model_selection, "grid_search_forest",
                          "model_selection.grid_search")
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            X_train, y_train, X_test, specs, base_params = setup(lambda: _setup(seed))
    finally:
        setup_tracer.restore()
    result.lines.append(
        f"embed: {X_train.shape[0]}x{X_train.shape[1]} training rows, "
        f"{SIGNATURE_BITS}-bit signatures, trigger size {TRIGGER_SIZE}, "
        f"grid-searched {base_params} + Adjust"
    )

    models = _measure(X_train, y_train, X_test, base_params, specs, seconds, workdir,
                      result, kernel)
    times = models.raw
    result.lines.append(
        f"models embedded: {len(times)} ({', '.join(f'{t:.3f}' for t in times)} s)"
    )
    if not times:
        return result
    result.lines.append(f"model_s  {median(times):.6g} s (median over models)")
    result.lines.append(setup.describe("set-ups"))
    result.lines.append(models.describe("models"))
    if not trace:
        # One operation is one watermarked model, timed at the reference
        # host speed (see common.REFERENCE_S).
        result.end_to_end(median(setup.scaled), self_peak_rss_mb(),
                          median(models.scaled) * 1e3)
        return result

    tracer = tracing.Tracer()
    _install(tracer)
    before = presort_cache_stats()
    try:
        traced = _measure(
            X_train, y_train, X_test, base_params, specs[: len(times)], float("inf"),
            workdir, result, kernel,
        )
    finally:
        tracer.restore()
    after = presort_cache_stats()
    spans = [span for span in tracer.spans
             if any(t0 <= span[tracing.START] <= t1 for t0, t1 in traced.windows)]
    delta = {key: after[key] - before.get(key, 0) for key in after}
    result.lines += _layer_metrics(spans, setup_tracer.spans, delta, sum(traced.raw),
                                   result)
    overhead = median(traced.raw) - median(times)
    result.lines.append(
        f"tracing overhead: model_s {overhead:+.4f} s "
        f"({overhead / median(times):+.1%}; traced {median(traced.raw):.4f} s, "
        f"untraced {median(times):.4f} s)"
    )
    return result
