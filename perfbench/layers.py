"""Which entry point of each layer the traced run wraps, and how the merged
spans become the per-layer metrics.

Per-layer metrics are printed for every workload; a layer the workload
does not exercise (or whose entry point is gone) reads 0.  Times are in
milliseconds.  ``*.self_ms_per_op`` splits one *op* of the workload — a
recommend request, a 64-user batch, a training step — into layers, and
``other_ms`` is what the layers leave of the traced op's mean time, so the
layers add back up to it.
"""

from __future__ import annotations

from loadgen import percentile
from tracing import Trace, Tracer, mean, median

SERVE_LAYERS = ("loadgen", "serve.net", "serve.net.replica_ipc",
                "serve.batcher", "serve.cache", "serve.history",
                "data.batching", "serve.encoder", "serve.index")
TRAIN_LAYERS = ("data.pipeline", "core.model", "hypergraph", "nn.tensor",
                "nn.optim")

PER_LAYER = (
    "serve.batcher.queue_ms.p50",
    "serve.batcher.batch_size.mean",
    "serve.index.search_ms.p50",
    "serve.index.calls",
    "serve.index.candidates_per_call",
    "serve.encoder.call_ms.mean",
    "serve.encoder.users_per_call",
    "serve.cache.hit_ratio",
    "serve.history.append_ms.p50",
    "serve.history.example_ms.mean",
    "data.batching.collate_ms.mean",
    "serve.net.process_ms.p50",
    "serve.net.wire_ms.p50",
    "serve.net.replica_ipc_ms.p50",
    "loadgen.lag_ms.p99",
    "data.pipeline.loader_wait_ms_per_step",
    "core.model.forward_ms_per_step",
    "hypergraph.item_table_ms_per_step",
    "nn.tensor.backward_ms_per_step",
    "nn.optim.step_ms_per_step",
    "eval.evaluator.pass_ms",
    "op_ms.mean",
    "other_ms",
    "trace.overhead_pct",
) + tuple(f"{layer}.self_ms_per_op"
          for layer in dict.fromkeys(SERVE_LAYERS + TRAIN_LAYERS))

UNITS = {"serve.batcher.batch_size.mean": "count",
         "serve.index.calls": "count",
         "serve.index.candidates_per_call": "count",
         "serve.encoder.users_per_call": "count",
         "serve.cache.hit_ratio": "ratio",
         "trace.overhead_pct": "%"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "ms")


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------

def _cache_get(tracer: Tracer, _args, result) -> None:
    tracer.event("serve.cache.gets")
    if result is not None:
        tracer.event("serve.cache.hits")


def _encoder_users(tracer: Tracer, _args, result) -> None:
    tracer.event("serve.encoder.users", len(result))


def _index_candidates(tracer: Tracer, _args, result) -> None:
    tracer.event("serve.index.candidates",
                 getattr(result, "candidates_scored", 0))


def _batch_flush(tracer: Tracer, size, delays) -> None:
    tracer.event("serve.batcher.flushes")
    tracer.event("serve.batcher.items", size)
    for delay in delays:
        tracer.event("serve.batcher.queue_ms", delay * 1e3)


def _by_op(layer: str, key: str):
    """Span namer: ``layer`` for recommends, ``layer.<kind>`` otherwise, so
    appends and stats calls do not mix into recommend latencies."""
    def name_of(args) -> str:
        kind = args[1].get(key)
        return layer if kind == "recommend" else f"{layer}.{kind}"
    return name_of


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving layers (server process; replicas inherit them)."""
    net = "repro.serve.net"
    tracer.wrap(net, "LocalBackend.process", "serve.net.process",
                name_of=_by_op("serve.net.process", "op"))
    tracer.wrap(net, "ReplicaSet.process", "serve.net.process",
                name_of=_by_op("serve.net.process", "op"))
    tracer.wrap(net, "_Replica.call", "serve.net.replica_call",
                name_of=_by_op("serve.net.replica_call", "kind"))
    tracer.wrap("repro.serve.service", "RecommenderService.recommend_pairs",
                "serve.service.replica_batch")
    tracer.wrap_callbacks("repro.serve.batcher", "MicroBatcher.__init__",
                          "serve.batcher", on_flush=_batch_flush)
    tracer.wrap("repro.serve.cache", "InterestCache.get", "serve.cache",
                observe=_cache_get)
    tracer.wrap("repro.serve.history", "HistoryStore.example",
                "serve.history.example")
    tracer.wrap("repro.serve.history", "HistoryStore.append",
                "serve.history.append")
    tracer.wrap("repro.serve.service", "collate", "data.batching")
    tracer.wrap("repro.serve.encoder", "MisslServingEncoder.interests",
                "serve.encoder", observe=_encoder_users)
    tracer.wrap("repro.serve.index", "ExactIndex.search", "serve.index",
                observe=_index_candidates)


def install_training(tracer: Tracer) -> None:
    """Wrap the training-step layers and the evaluators."""
    tracer.wrap_iter("repro.data.pipeline", "PrefetchLoader.__iter__",
                     "data.pipeline")
    tracer.wrap("repro.core.model", "MISSL.training_loss", "core.model")
    tracer.wrap("repro.core.model", "MISSL.item_representations",
                "hypergraph")
    tracer.wrap("repro.nn.tensor", "Tensor.backward", "nn.tensor")
    tracer.wrap("repro.nn.optim", "Adam.step", "nn.optim")
    tracer.wrap("repro.train.trainer", "clip_grad_norm", "nn.optim")
    tracer.wrap("repro.eval.full_ranking", "evaluate_full_ranking",
                "eval.evaluator")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _finish(values: dict, op_ms: float, overhead_pct: float) -> dict:
    """Fill every per-layer name, derive ``other_ms`` from the self times."""
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(values)
    metrics["op_ms.mean"] = op_ms
    metrics["trace.overhead_pct"] = overhead_pct
    metrics["other_ms"] = op_ms - sum(
        value for name, value in metrics.items()
        if name.endswith(".self_ms_per_op"))
    return metrics


def _engine(trace: Trace) -> dict:
    """Per-call figures of the request engine's layers (retrieval, encoder,
    cache, history, collate), shared by the serving and batch workloads."""
    search = trace.durations_ms("serve.index")
    encoder = trace.durations_ms("serve.encoder")
    gets = trace.counts.get("serve.cache.gets", 0.0)
    return {
        "serve.index.search_ms.p50": median(search),
        "serve.index.calls": float(len(search)),
        "serve.index.candidates_per_call":
            trace.counts.get("serve.index.candidates", 0.0) / max(len(search), 1),
        "serve.encoder.call_ms.mean": mean(encoder),
        "serve.encoder.users_per_call":
            trace.counts.get("serve.encoder.users", 0.0) / max(len(encoder), 1),
        "serve.cache.hit_ratio":
            trace.counts.get("serve.cache.hits", 0.0) / gets if gets else 0.0,
        "serve.history.example_ms.mean":
            mean(trace.durations_ms("serve.history.example")),
        "data.batching.collate_ms.mean":
            mean(trace.durations_ms("data.batching")),
    }


ENGINE_SPANS = (("serve.cache", "serve.cache"),
                ("serve.history", "serve.history.example"),
                ("data.batching", "data.batching"),
                ("serve.encoder", "serve.encoder"),
                ("serve.index", "serve.index"))


def serving_metrics(trace: Trace, *, latency_ms, rtt_ms, lag_ms,
                    requests: int, overhead_pct: float) -> dict:
    """Split one recommend (latency from its due time) into layers.

    A request waits for its whole micro-batch, so the engine layers are
    charged per request as their total time times the mean batch size,
    divided by the requests served.
    """
    flushes = trace.counts.get("serve.batcher.flushes", 0.0)
    batch = (trace.counts.get("serve.batcher.items", 0.0) / flushes
             if flushes else 1.0)
    queue = trace.samples.get("serve.batcher.queue_ms", [])
    process = trace.durations_ms("serve.net.process")
    calls = trace.durations_ms("serve.net.replica_call")
    replica_batches = trace.durations_ms("serve.service.replica_batch")
    ipc = max(median(calls) - median(replica_batches), 0.0) if calls else 0.0
    values = _engine(trace)
    values.update({
        "serve.batcher.queue_ms.p50": median(queue),
        "serve.batcher.batch_size.mean": batch if flushes else 0.0,
        "serve.history.append_ms.p50":
            median(trace.durations_ms("serve.history.append")),
        "serve.net.process_ms.p50": median(process),
        "serve.net.wire_ms.p50": max(median(rtt_ms) - median(process), 0.0),
        "serve.net.replica_ipc_ms.p50": ipc,
        "loadgen.lag_ms.p99": percentile(lag_ms, 99.0) or 0.0,
        "loadgen.self_ms_per_op": mean(lag_ms),
        "serve.net.self_ms_per_op": max(mean(rtt_ms) - mean(process), 0.0),
        "serve.batcher.self_ms_per_op": mean(queue),
        "serve.net.replica_ipc.self_ms_per_op": ipc,
    })
    for layer, span in ENGINE_SPANS:
        values[f"{layer}.self_ms_per_op"] = (trace.self_ms(span) * batch
                                             / max(requests, 1))
    return _finish(values, mean(latency_ms), overhead_pct)


def batch_metrics(trace: Trace, *, batch_ms, overhead_pct: float) -> dict:
    """Split one ``recommend_many`` batch into layers."""
    values = _engine(trace)
    for layer, span in ENGINE_SPANS:
        values[f"{layer}.self_ms_per_op"] = (trace.self_ms(span)
                                             / max(len(batch_ms), 1))
    return _finish(values, mean(batch_ms), overhead_pct)


def train_metrics(trace: Trace, *, step_ms, overhead_pct: float) -> dict:
    """Split one training step into layers; the evaluators are reported
    per pass and are not part of a step."""
    steps = max(len(step_ms), 1)
    per_step = {
        "data.pipeline": trace.self_ms("data.pipeline") / steps,
        "core.model": trace.self_ms("core.model") / steps,
        "hypergraph": trace.self_ms("hypergraph", parent="core.model") / steps,
        "nn.tensor": trace.self_ms("nn.tensor") / steps,
        "nn.optim": trace.self_ms("nn.optim") / steps,
    }
    values = {
        "data.pipeline.loader_wait_ms_per_step": per_step["data.pipeline"],
        "core.model.forward_ms_per_step": per_step["core.model"],
        "hypergraph.item_table_ms_per_step": per_step["hypergraph"],
        "nn.tensor.backward_ms_per_step": per_step["nn.tensor"],
        "nn.optim.step_ms_per_step": per_step["nn.optim"],
        "eval.evaluator.pass_ms": median(trace.durations_ms("eval.evaluator")),
    }
    for layer, value in per_step.items():
        values[f"{layer}.self_ms_per_op"] = value
    return _finish(values, mean(step_ms), overhead_pct)
