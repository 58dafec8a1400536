"""The two in-process workloads: offline batch scoring and training.

``batch_score`` calls ``RecommenderService.recommend_many`` over every user
in batches of 64 on a 50k-item synthetic catalog; the interest cache is
cleared before each pass so every user is encoded once per pass.

``train`` runs ``Trainer.fit`` with the ``repro train`` defaults (taobao
scale 1.0, dim 32, batch 128, in-process loader) for a fixed 3 epochs —
patience 3 cannot stop it earlier — then one full-ranking test pass; a run
makes as many such fits, each on a fresh model, as its seconds hold at the
reference host's speed, so the step times it reports span more of the
host's drift.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import (DIM, BenchError, build_context, export_serving_artifact,
                    make_work_dir, remove_work_dir, self_peak_rss_mb)
from loadgen import summarize

SETUP_REPEATS = 3
BATCH_USERS = 64
BATCH_CATALOG = 50_000
CHECK_SAMPLES = 40
TRAIN_EPOCHS = 3
TRAIN_BATCH = 128
TRAIN_PATIENCE = 3
FIT_SECONDS = 13.0   # one 3-epoch fit on a 2-CPU x86-64 reference host


# ----------------------------------------------------------------------
# batch_score
# ----------------------------------------------------------------------

class _Scorer:
    """One ``RecommenderService`` (default options) over the catalog."""

    def __init__(self, work):
        from repro.serve import HistoryStore, RecommenderService, load_artifact
        work.mkdir()
        self.artifact, context = export_serving_artifact(work, BATCH_CATALOG)
        self.dataset = context.dataset
        self.service = RecommenderService(
            load_artifact(self.artifact),
            HistoryStore.from_dataset(self.dataset))
        self.users = list(self.dataset.users)
        self.service.recommend_many(self.users[:BATCH_USERS])  # warm-up
        self.service.cache.clear()

    def passes(self, rng: np.random.Generator, seconds: float, keep: list):
        """Score shuffled passes over every user until ``seconds`` pass.
        Returns ``(users, milliseconds)`` per batch (a pass ends with a
        batch smaller than 64).  Every result is appended to ``keep`` as
        ``(user, recommendations)``."""
        batches = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.service.cache.clear()
            order = rng.permutation(self.users)
            for start in range(0, len(order), BATCH_USERS):
                users = [int(u) for u in order[start:start + BATCH_USERS]]
                began = time.perf_counter()
                results = self.service.recommend_many(users)
                batches.append((len(users), (time.perf_counter() - began) * 1e3))
                keep.extend(results.items())
        return batches

    def check(self, rng: np.random.Generator, results: list) -> int:
        from checks import OfflineReference
        reference = OfflineReference(self.artifact, self.dataset)
        for row in rng.choice(len(results), size=min(CHECK_SAMPLES, len(results)),
                              replace=False):
            user, recs = results[int(row)]
            reference.check(user, [r.item for r in recs],
                            [r.score for r in recs], "batch_score")
        return reference.checked

    def close(self) -> None:
        self.service.close()


def run_batch_score(seed: int, seconds: float, trace: bool) -> dict:
    rng = np.random.default_rng(seed)
    work = make_work_dir("batch_score")
    scorer = None
    try:
        setups = []
        for index in range(1 if trace else SETUP_REPEATS):
            if scorer is not None:
                scorer.close()
            started = time.perf_counter()
            scorer = _Scorer(work / f"setup{index}")
            setups.append(time.perf_counter() - started)
        results: list = []
        if trace:
            return _batch_traced(scorer, rng, seconds, results, work)
        cpu = time.process_time()
        began = time.perf_counter()
        batches = scorer.passes(rng, seconds, results)
        elapsed = time.perf_counter() - began
        cpu = time.process_time() - cpu
        checked = scorer.check(rng, results)
        full_ms = [ms for users, ms in batches if users == BATCH_USERS]
        scored = sum(users for users, _ in batches)
        metrics = {"setup_s": float(np.median(setups)),
                   "p50_ms": float(np.median(full_ms)),
                   "throughput": scored / elapsed,
                   "rss_mb": self_peak_rss_mb()}
        info = {"setup_s": setups, "full_batch_ms": summarize(full_ms),
                "cpu_ms_per_op": cpu * 1e3 / len(batches),
                "users": scored, "checked": checked}
        return {"metrics": metrics, "attempted": scored, "failed": 0,
                "info": info}
    finally:
        if scorer is not None:
            scorer.close()
        remove_work_dir(work)


def _batch_traced(scorer: _Scorer, rng, seconds: float, results: list,
                  work) -> dict:
    from layers import batch_metrics, install_serving
    from tracing import Trace, Tracer

    untraced = scorer.passes(rng, seconds / 2, results)
    tracer = Tracer(work / "spans")
    install_serving(tracer)
    try:
        traced = scorer.passes(rng, seconds / 2, results)
    finally:
        tracer.uninstall()
    tracer.flush()
    trace = Trace(work / "spans")
    overhead = (np.mean([ms for _, ms in traced])
                / np.mean([ms for _, ms in untraced]) - 1.0) * 100.0
    metrics = batch_metrics(trace, batch_ms=[ms for _, ms in traced],
                            overhead_pct=float(overhead))
    checked = scorer.check(rng, results)
    scored = sum(users for users, _ in untraced + traced)
    return {"metrics": metrics, "attempted": scored, "failed": 0,
            "info": {"absent_layers": sorted(trace.absent),
                     "checked": checked, "spans": len(trace.spans)}}


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

class StepClock:
    """Step boundaries from the consumer side of the training loader: the
    time each batch is requested.  Step ``i`` runs from the request of
    batch ``i`` to the request of batch ``i + 1`` (or of the end of the
    epoch), so it includes the wait for its batch."""

    def __init__(self):
        from repro.data.pipeline import PrefetchLoader
        self._owner = PrefetchLoader
        self._original = PrefetchLoader.__dict__["__iter__"]
        self.step_ms: list[float] = []
        self.samples = 0
        clock = self
        original = self._original

        def timed_iter(loader):
            iterator = original(loader)
            previous = time.perf_counter()
            for batch in iterator:
                clock.samples += batch.size
                yield batch
                now = time.perf_counter()
                clock.step_ms.append((now - previous) * 1e3)
                previous = now

        PrefetchLoader.__iter__ = timed_iter

    def close(self) -> None:
        self._owner.__iter__ = self._original


def _fresh_trainer(seed: int):
    from repro.experiments import build_model
    from repro.train import TrainConfig, Trainer
    context = build_context()
    model = build_model("MISSL", context, dim=DIM, seed=seed)
    config = TrainConfig(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                         patience=TRAIN_PATIENCE, seed=seed, num_workers=0)
    return context, model, Trainer(model, context.split, config)


def _fit(seed: int) -> dict:
    """Set up, check the untrained model's validation NDCG@10, fit, then
    one full-ranking pass over the test split."""
    from repro.eval.evaluator import evaluate_ranking
    from repro.eval import full_ranking

    started = time.perf_counter()
    context, model, trainer = _fresh_trainer(seed)
    setup = time.perf_counter() - started
    split = context.split
    untrained = evaluate_ranking(model, split.valid, trainer.valid_candidates,
                                 context.dataset.schema)["NDCG@10"]
    clock = StepClock()
    try:
        cpu = time.process_time()
        history = trainer.fit()
        cpu = time.process_time() - cpu
    finally:
        clock.close()
    tick = time.perf_counter()
    full_ranking.evaluate_full_ranking(model, context.dataset, split.test)
    eval_ms = (time.perf_counter() - tick) * 1e3
    losses = [record.train_loss for record in history.records]
    if len(losses) != TRAIN_EPOCHS or not all(map(math.isfinite, losses)):
        raise BenchError(f"train: losses {losses} after {TRAIN_EPOCHS} epochs")
    valid = history.best_metric
    if not valid > untrained:
        raise BenchError(f"train: valid NDCG@10 {valid:.4f} is not above the "
                         f"untrained model's {untrained:.4f}")
    train_seconds = sum(record.train_seconds for record in history.records)
    return {"setup": setup, "step_ms": clock.step_ms, "cpu": cpu,
            "samples": clock.samples, "train_seconds": train_seconds,
            "eval_users_per_s": 1e3 * len(split.test) / eval_ms,
            "losses": losses, "valid_ndcg10": valid,
            "untrained_ndcg10": untrained}


def run_train(seed: int, seconds: float, trace: bool) -> dict:
    """``seconds // FIT_SECONDS`` fits (at least one), each a fresh model
    with its own seed drawn from ``seed``."""
    fit_seeds = np.random.default_rng(seed).integers(
        1 << 31, size=max(1, int(seconds // FIT_SECONDS)))
    if trace:
        return _train_traced(int(fit_seeds[0]))
    setups = []
    for _ in range(max(0, SETUP_REPEATS - len(fit_seeds))):
        started = time.perf_counter()
        _fresh_trainer(int(fit_seeds[0]))
        setups.append(time.perf_counter() - started)
    fits = [_fit(int(fit_seed)) for fit_seed in fit_seeds]
    setups += [fit["setup"] for fit in fits]
    step_ms = [ms for fit in fits for ms in fit["step_ms"]]
    metrics = {"setup_s": float(np.median(setups)),
               "p50_ms": float(np.median(step_ms)),
               "throughput": sum(fit["samples"] for fit in fits)
               / sum(fit["train_seconds"] for fit in fits),
               "rss_mb": self_peak_rss_mb()}
    info = {"setup_s": setups, "step_ms": summarize(step_ms),
            "cpu_ms_per_op": 1e3 * sum(fit["cpu"] for fit in fits)
            / len(step_ms),
            "fits": [{key: fit[key] for key in
                      ("losses", "valid_ndcg10", "untrained_ndcg10",
                       "eval_users_per_s")} for fit in fits]}
    return {"metrics": metrics, "attempted": len(step_ms), "failed": 0,
            "info": info}


def _train_traced(seed: int) -> dict:
    """One untraced and one traced fit of the same seed."""
    from layers import install_training, train_metrics
    from tracing import Trace, Tracer

    untraced = _fit(seed)
    work = make_work_dir("train")
    try:
        tracer = Tracer(work / "spans")
        install_training(tracer)
        try:
            traced = _fit(seed)
        finally:
            tracer.uninstall()
        tracer.flush()
        trace = Trace(work / "spans")
    finally:
        remove_work_dir(work)
    overhead = (float(np.mean(traced["step_ms"]))
                / float(np.mean(untraced["step_ms"])) - 1.0) * 100.0
    metrics = train_metrics(trace, step_ms=traced["step_ms"],
                            overhead_pct=overhead)
    steps = len(untraced["step_ms"]) + len(traced["step_ms"])
    return {"metrics": metrics, "attempted": steps, "failed": 0,
            "info": {"absent_layers": sorted(trace.absent),
                     "spans": len(trace.spans)}}
