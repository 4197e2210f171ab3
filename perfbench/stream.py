"""Workload ``stream``: the ``repro.pipeline`` loop on one agnews stream.

One round is a fresh pipeline over fresh stores: set-up builds the
store and the stream source and runs the bootstrap (4 batches, then the
first WeSTClass fit, publish and backlog classification); the measured
part streams the rest of :data:`N_DOCS` positions through tokenize ->
dedupe -> store -> classify on the in-process engine backend, batch 32.
Every 6th position re-emits earlier content under a fresh id, and from
the middle of the stream on, novel tokens push the OOV rate over its
threshold so exactly one drift re-fit (fit, publish, client reload)
fires. The measured phase repeats whole rounds until ``--seconds``
of streaming have passed; ``setup_s`` is the median round set-up.
"""

from __future__ import annotations

import random
import resource
import time
from pathlib import Path
from statistics import median

from harness import (
    LayerTimers,
    Outcome,
    fresh_stores,
    peak_rss_mb,
    percentile,
    span_totals,
    use_stores,
)

PROFILE = "agnews"
SCALE, N_DOCS = 20.0, 9600
TOY_SCALE, TOY_DOCS = 2.0, 960
BATCH = 32
DUPLICATE_EVERY = 6
BOOTSTRAP_DOCS = 96
BOOTSTRAP_BATCHES = 4  # 128 read > 96 stored even with dedupe drops
METHOD_KWARGS = dict(pretrain_epochs=2, self_train_iterations=0,
                     pseudo_per_class=20, dim=32)
#: Classify batches per model generation whose labels are re-predicted.
SAMPLE_BATCHES = 4
STAGES = ("tokenize", "dedupe", "store", "classify")


def pipeline_config(seed: int, toy: bool, stores: dict):
    from repro.pipeline import DriftPolicy, PipelineConfig, StreamConfig

    scale, n_docs = (TOY_SCALE, TOY_DOCS) if toy else (SCALE, N_DOCS)
    return PipelineConfig(
        stream=StreamConfig(profile=PROFILE, seed=seed, scale=scale,
                            n_docs=n_docs, duplicate_every=DUPLICATE_EVERY,
                            drift_at=n_docs // 2, drift_labels=("sports",),
                            drift_novel_rate=0.9),
        name="bench",
        store_root=stores["REPRO_CORPUS_DIR"],
        registry_root=stores["REPRO_MODEL_DIR"],
        method="westclass",
        method_kwargs=METHOD_KWARGS,
        batch_size=BATCH,
        checkpoint_every=4,
        bootstrap_docs=BOOTSTRAP_DOCS,
        drift=DriftPolicy(window=64, hist_threshold=None, oov_threshold=0.06),
        seed=seed,
        warmup=True,
    )


def check_counts(stored: int, predictions: int, classified: int,
                 stored_hashes: list, dropped_hashes: list,
                 refits: int) -> list:
    """Problems with the stream's counts (empty list = correct)."""
    problems = []
    if not stored == predictions == classified:
        problems.append(f"stored {stored}, logged {predictions} and "
                        f"classified {classified} documents disagree")
    if len(set(stored_hashes)) != len(stored_hashes):
        problems.append(f"{len(stored_hashes) - len(set(stored_hashes))} "
                        "stored documents share content")
    seen = set(stored_hashes)
    lost = sum(1 for h in dropped_hashes if h not in seen)
    if lost:
        problems.append(f"{lost} dropped documents have content that was "
                        "never stored")
    if refits != 1:
        problems.append(f"{refits} drift re-fits fired, expected exactly 1")
    return problems


def classify_batches(records: list) -> list:
    """Record indices grouped into the batches the stream classified.

    The bootstrap classifies its backlog in ``BATCH``-sized chunks in
    log order; after it, each classify call is the deduplicated part of
    one source batch, i.e. one ``position // BATCH`` group.
    """
    bootstrap_end = BOOTSTRAP_BATCHES * BATCH
    backlog = [i for i, r in enumerate(records)
               if r["position"] < bootstrap_end]
    groups = [backlog[j:j + BATCH] for j in range(0, len(backlog), BATCH)]
    steady: dict = {}
    for i, record in enumerate(records):
        if record["position"] >= bootstrap_end:
            steady.setdefault(record["position"] // BATCH, []).append(i)
    return groups + [steady[key] for key in sorted(steady)]


def check_records(records: list, tokens_by_id: dict, predict,
                  batches: list) -> list:
    """Problems with the prediction log (empty list = correct).

    Every record's confidence must equal its top score and its top-k
    list must be sorted. Every record in ``batches`` (lists of record
    indices, each one classify batch of the stream) must carry the label
    that ``predict(generation, token_lists)`` gives when the same batch
    is predicted again: a label depends on the batch a document shares
    (see CHANGES.md), so the sample is re-predicted batch by batch.
    """
    problems = []
    for record in records:
        topk = record.get("topk") or []
        scores = [score for _, score in topk]
        if not topk or record.get("confidence") != scores[0]:
            problems.append(f"{record.get('doc_id')}: confidence "
                            f"{record.get('confidence')} is not its top "
                            f"score {scores[:1]}")
        elif scores != sorted(scores, reverse=True):
            problems.append(f"{record.get('doc_id')}: top-k not sorted")
    for batch in batches:
        chosen = [records[i] for i in batch]
        gens = {r["model_gen"] for r in chosen}
        if len(gens) != 1:
            problems.append(f"one classify batch names generations {gens}")
            continue
        gen = gens.pop()
        labels = predict(gen, [tokens_by_id[r["doc_id"]] for r in chosen])
        for record, label in zip(chosen, labels):
            if record["label"] != label:
                problems.append(f"{record['doc_id']}: logged label "
                                f"{record['label']!r} but model generation "
                                f"{gen} predicts {label!r}")
    return problems


def outputs(pipe) -> dict:
    """What the checks read back from a finished stream."""
    from repro.pipeline.store import content_hash
    from repro.serve.registry import ModelRegistry

    stored = list(pipe.store.iter_records())
    stored_ids = {r["doc_id"] for r in stored}
    _, stream_docs = pipe.source.read(0, len(pipe.source))
    registry = ModelRegistry(pipe.config.resolved_registry_root())
    name = pipe.config.resolved_model_name
    return {
        "stored": stored,
        "records": list(pipe.store.iter_predictions()),
        "classified": pipe.classified,
        "dropped": [content_hash(d.tokens) for d in stream_docs
                    if d.doc_id not in stored_ids],
        "versions": len(registry.versions(name)),
        "load": lambda version: registry.load(name, version),
    }


def check_outputs(out: dict, seed: int) -> list:
    """Every stream check over :func:`outputs` (empty list = correct)."""
    records = out["records"]
    problems = check_counts(len(out["stored"]), len(records),
                            out["classified"],
                            [r["hash"] for r in out["stored"]],
                            out["dropped"], out["versions"] - 1)
    rng = random.Random(seed)
    sample = []
    batches = classify_batches(records)
    for gen in sorted({r["model_gen"] for r in records}):
        of_gen = [b for b in batches if records[b[0]]["model_gen"] == gen]
        sample += rng.sample(of_gen, min(SAMPLE_BATCHES, len(of_gen)))
    models = {}

    def predict(gen, token_lists):
        # Generation g is registry version g + 1 in a fresh registry.
        if gen not in models:
            models[gen] = out["load"](gen + 1)
        return models[gen].predict(token_lists)

    tokens = {r["doc_id"]: r["tokens"] for r in out["stored"]}
    return problems + check_records(records, tokens, predict, sample)


def _install_timers(timers: LayerTimers) -> None:
    from repro.pipeline import stages
    from repro.pipeline.clients import EngineClient, ScoredServable
    from repro.pipeline.drift import DriftMonitor
    from repro.pipeline.source import StreamSource
    from repro.pipeline.store import CorpusStore
    from repro.serve.artifacts import ServableModel

    n_docs = lambda args: len(args[1])  # noqa: E731 - (self, docs)
    timers.wrap(StreamSource, "read", "source.read")
    for cls in (stages.TokenizeStage, stages.DedupeStage, stages.StoreStage,
                stages.ClassifyStage):
        timers.wrap(cls, "process", cls.name)
    timers.wrap(EngineClient, "classify", "client.classify")
    timers.wrap(ScoredServable, "predict", "scored.predict")
    timers.wrap(ServableModel, "predict", "servable.predict", docs=n_docs)
    timers.wrap(ServableModel, "scores", "servable.scores", docs=n_docs)
    timers.wrap(DriftMonitor, "observe", "drift.observe")
    timers.wrap(CorpusStore, "write_checkpoint", "store.checkpoint")


def _round(seed: int, run_dir: Path, toy: bool, traced: bool,
           problems: list) -> dict:
    from repro import obs
    from repro.pipeline import Pipeline

    stores = fresh_stores(run_dir, "stream")
    use_stores(stores)
    start = time.perf_counter()
    config = pipeline_config(seed, toy, stores)
    pipe = Pipeline(config)
    boot = pipe.run(max_batches=BOOTSTRAP_BATCHES)
    setup_s = time.perf_counter() - start
    if boot.fits != 1:
        problems.append(f"bootstrap made {boot.fits} fits, expected 1")

    timers, tracer = None, None
    if traced:
        timers = LayerTimers()
        _install_timers(timers)
        obs.enable("perfbench-stream")
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        t0 = time.perf_counter()
        steady = pipe.run(track_latency=True)
        wall = time.perf_counter() - t0
    finally:
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if traced:
            tracer = obs.disable()
            timers.restore()
    cpu = (usage1.ru_utime + usage1.ru_stime
           - usage0.ru_utime - usage0.ru_stime)
    rss = peak_rss_mb()  # before the checks add their own memory

    problems.extend(check_outputs(outputs(pipe), seed))
    return {"setup_s": setup_s, "wall": wall, "cpu": cpu, "rss": rss,
            "classified": steady.classified, "ingested": steady.ingested,
            "latencies": steady.latencies_s, "timers": timers,
            "tracer": tracer}


def _phase(seed, seconds, run_dir, toy, traced, problems) -> list:
    rounds = []
    while not rounds or sum(r["wall"] for r in rounds) < seconds:
        rounds.append(_round(seed, run_dir, toy, traced, problems))
    return rounds


def _ups(rounds: list) -> float:
    return (sum(r["classified"] for r in rounds)
            / sum(r["wall"] for r in rounds))


def run(seed: int, seconds: float, trace: bool, run_dir: Path,
        toy: bool, baseline: bool = False) -> Outcome:
    import repro.pipeline  # noqa: F401 - imports stay out of set-up time

    problems: list = []
    n_docs = TOY_DOCS if toy else N_DOCS
    lines = [f"[stream] {PROFILE} x{TOY_SCALE if toy else SCALE}, "
             f"{n_docs} positions, batch {BATCH}, duplicate every "
             f"{DUPLICATE_EVERY}, drift at {n_docs // 2}"]
    if not trace:
        rounds = _phase(seed, seconds, run_dir, toy, False, problems)
        latencies = [s for r in rounds for s in r["latencies"]]
        classified = sum(r["classified"] for r in rounds)
        ingested = sum(r["ingested"] for r in rounds)
        lines.append(f"[stream] {len(rounds)} round(s), {classified} docs "
                     f"classified, p99 {percentile(latencies, 99) * 1000.0:.2f}"
                     f" ms over {len(latencies)} latency samples; docs/s per "
                     "round " + ", ".join(f"{_ups([r]):.0f}" for r in rounds))
        return Outcome(
            attempted=ingested, failed=max(0, ingested - classified),
            problems=problems, lines=lines,
            metrics={
                "setup_s": median([r["setup_s"] for r in rounds]),
                # Rates are medians over rounds, so that a burst of load
                # from outside during one round does not move them.
                "units_per_s": median([_ups([r]) for r in rounds]),
                "p50_ms": percentile(latencies, 50) * 1000.0,
                "cpu_ms_per_unit": median(
                    [1000.0 * r["cpu"] / r["classified"] for r in rounds]),
                # The first round's, read before any check ran.
                "peak_rss_mb": rounds[0]["rss"],
            })

    untraced = (_phase(seed, seconds, run_dir, toy, False, problems)
                if baseline else [])
    traced = _phase(seed, seconds, run_dir, toy, True, problems)
    metrics_per_round = [_layer_metrics(r) for r in traced]
    metrics = {name: sum(m[name] for m in metrics_per_round)
               / len(metrics_per_round) for name in metrics_per_round[0]}
    scored = [r["timers"].docs("servable.predict")
              + r["timers"].docs("servable.scores") for r in traced]
    latencies = [s for r in traced for s in r["latencies"]]
    per_batch = sum(metrics[f"pipeline.stages.{s}_ms"] for s in STAGES)
    per_batch += metrics["pipeline.source.read_ms"]
    per_batch += metrics["pipeline.drift.observe_ms"]
    first = traced[0]["timers"]
    lines += [
        f"[stream] bases: {len(traced)} traced round(s); per round "
        f"{first.calls('source.read')} reads, "
        f"{first.calls('classify')} classify batches, "
        f"{traced[0]['classified']} docs classified, "
        f"{first.calls('store.checkpoint')} checkpoints; documents scored "
        f"per round {scored}",
        f"[stream] layer sum per batch: read + 4 stages + drift observe = "
        f"{per_batch:.2f} ms vs end-to-end p50 "
        f"{percentile(latencies, 50) * 1000.0:.2f} ms (ingest to "
        f"classified, per document)",
    ]
    classified = sum(r["classified"] for r in untraced + traced)
    ingested = sum(r["ingested"] for r in untraced + traced)
    return Outcome(attempted=ingested, failed=max(0, ingested - classified),
                   problems=problems, metrics=metrics, lines=lines,
                   counts={f"documents scored (seed {seed})": scored[0],
                           "rounds agree": len(set(scored)) == 1},
                   untraced_ups=_ups(untraced) if untraced else None,
                   traced_ups=_ups(traced))


def _layer_metrics(r: dict) -> dict:
    timers, tracer = r["timers"], r["tracer"]
    counters = tracer.counters
    refit_n, refit_s = span_totals(tracer, name="pipeline:refit")
    predict_n, predict_s = span_totals(tracer, name="serve:predict")
    classify_calls = timers.calls("client.classify")
    batches = counters.get("serve.batches", 0)
    metrics = {
        "pipeline.source.read_ms": timers.mean_ms("source.read"),
        "serve.engine.wait_ms": 1000.0 * (
            timers.seconds("client.classify")
            - timers.seconds("scored.predict")) / classify_calls
        if classify_calls else 0.0,
        "serve.artifacts.scored_docs_per_unit":
            (timers.docs("servable.predict") + timers.docs("servable.scores"))
            / r["classified"],
        "pipeline.drift.observe_ms": timers.mean_ms("drift.observe"),
        "pipeline.store.checkpoint_ms": timers.mean_ms("store.checkpoint"),
        "pipeline.refit.fit_s": refit_s / refit_n if refit_n else 0.0,
        "serve.engine.batch_docs":
            counters.get("serve.batched_docs", 0) / batches
            if batches else 0.0,
        "serve.engine.predict_ms":
            1000.0 * predict_s / predict_n if predict_n else 0.0,
    }
    for stage in STAGES:
        metrics[f"pipeline.stages.{stage}_ms"] = timers.mean_ms(stage)
    return metrics
