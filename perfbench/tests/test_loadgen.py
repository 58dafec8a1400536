"""Tests for the load generator: schedules, the percentile rule and the
error accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from common import BenchError  # noqa: E402
from loadgen import (MIN_BEYOND, LoadClient, Op, Outcome,  # noqa: E402
                     PhaseResult, Population, make_schedule, percentile,
                     poisson_due_times, summarize, sweep_schedule,
                     tail_percentile, zipf_weights)

USERS = list(range(10, 60))
BEHAVIORS = ("click", "cart", "buy")


def _schedule(seed: int, **kwargs):
    rng = np.random.default_rng(seed)
    population = Population.draw(rng, USERS, 1.0, 2)
    options = dict(rate=100.0, count=2000, append_share=0.25, num_items=30,
                   behaviors=BEHAVIORS)
    options.update(kwargs)
    return population, make_schedule(rng, population, **options)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------

def test_schedule_depends_only_on_the_seed():
    assert _schedule(3)[1] == _schedule(3)[1]
    assert _schedule(3)[1] != _schedule(4)[1]


def test_poisson_arrivals_start_at_zero_and_match_the_rate():
    due = poisson_due_times(np.random.default_rng(0), 50.0, 20000)
    assert due[0] == 0.0
    assert np.all(np.diff(due) >= 0)
    assert np.mean(np.diff(due)) == pytest.approx(1 / 50.0, rel=0.03)
    # Poisson gaps: standard deviation equals the mean
    assert np.std(np.diff(due)) == pytest.approx(1 / 50.0, rel=0.05)


def test_burst_schedules_everything_at_once():
    _, ops = _schedule(1, rate=math.inf, count=100)
    assert {op.due for op in ops} == {0.0}


def test_users_are_zipf_skewed_by_popularity_rank():
    population, ops = _schedule(5, count=20000, append_share=0.0)
    weights = zipf_weights(len(USERS), 1.0)
    assert weights.sum() == pytest.approx(1.0)
    assert np.all(np.diff(weights) < 0)
    counts = {user: 0 for user in USERS}
    for op in ops:
        counts[op.user] += 1
    top = population.users[0]
    assert counts[top] == max(counts.values())
    assert counts[top] / len(ops) == pytest.approx(weights[0], rel=0.1)
    assert set(population.users) == set(USERS)


def test_each_user_is_pinned_to_one_connection():
    _, ops = _schedule(7)
    conns = {}
    for op in ops:
        conns.setdefault(op.user, set()).add(op.conn)
    assert all(len(c) == 1 for c in conns.values())
    assert {op.conn for op in ops} == {0, 1}


def test_appends_follow_the_share_and_stay_in_range():
    _, ops = _schedule(9, count=8000)
    appends = [op for op in ops if op.kind == "append"]
    assert len(appends) / len(ops) == pytest.approx(0.25, abs=0.02)
    assert all(1 <= op.item <= 30 and op.behavior in BEHAVIORS
               for op in appends)
    assert all(op.item == 0 and op.behavior == ""
               for op in ops if op.kind == "recommend")
    assert appends[0].payload()["op"] == "append"


def test_sweep_asks_once_for_every_user():
    population = Population.draw(np.random.default_rng(0), USERS, 1.0, 2)
    ops = sweep_schedule(population)
    assert sorted(op.user for op in ops) == sorted(USERS)
    assert all(op.kind == "recommend" and op.due == 0.0 for op in ops)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1000))
    assert percentile(values, 99.0) == pytest.approx(np.percentile(values, 99))
    assert percentile(values[:999], 99.0) is None
    assert percentile(values[:200], 95.0) is not None
    assert percentile(values[:199], 95.0) is None
    assert percentile([], 50.0) is None
    assert MIN_BEYOND == 10


def test_tail_percentile_is_the_highest_supported():
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(19) is None


def test_summary_states_the_sample_count():
    summary = summarize(list(range(300)))
    assert summary["count"] == 300
    assert summary["tail_pct"] == 95.0
    assert summary["p50"] == pytest.approx(149.5)


# ----------------------------------------------------------------------
# error accounting
# ----------------------------------------------------------------------

def _outcome(kind: str, response, sent=1.0, done=1.5):
    return Outcome(Op(due=0.0, conn=0, kind=kind, user=1), sent=sent,
                   done=done, response=response)


def test_every_sent_op_settles_exactly_once():
    phase = PhaseResult("p", start=0.5, outcomes=[
        _outcome("recommend", {"ok": True}),
        _outcome("recommend", {"ok": False, "shed": True}),
        _outcome("append", {"ok": False, "error": "bad"}),
        _outcome("recommend", None, done=math.nan),
    ])
    counts = phase.counts()
    assert counts == {"sent": 4, "ok": 1, "shed": 1, "error": 1, "timeout": 1}
    phase.check_accounting()
    assert phase.failed() == 3
    assert phase.latencies_ms() == [pytest.approx(1000.0)]
    assert phase.rtt_ms() == [pytest.approx(500.0)]


def test_an_unsent_op_breaks_the_accounting():
    phase = PhaseResult("p", start=0.0, outcomes=[
        _outcome("recommend", {"ok": True}),
        _outcome("recommend", None, sent=math.nan, done=math.nan)])
    with pytest.raises(BenchError):
        phase.check_accounting()


class _FakeServer:
    """NDJSON server on localhost: sheds every user 13, answers the rest,
    one line per request, in order."""

    def __init__(self):
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10)

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._server = self._loop.run_until_complete(
            asyncio.start_server(self._handle, "127.0.0.1", 0))
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        self._loop.run_forever()

    async def _handle(self, reader, writer):
        while line := await reader.readline():
            request = json.loads(line)
            if request["user"] == 13:
                response = {"ok": False, "shed": True}
            else:
                response = {"ok": True, "user": request["user"]}
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
        writer.close()

    def close(self):
        self._loop.call_soon_threadsafe(self._server.close)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(10)
        assert not self._thread.is_alive()
        self._loop.close()


def test_client_accounts_for_every_op_over_pipelined_connections():
    server = _FakeServer()
    try:
        population = Population.draw(np.random.default_rng(1), [12, 13, 14],
                                     1.0, 2)
        ops = make_schedule(np.random.default_rng(2), population,
                            rate=2000.0, count=300)
        client = LoadClient("127.0.0.1", server.port, 2, timeout=10.0)
        try:
            phase = client.run("fixed", ops)
        finally:
            client.close()
    finally:
        server.close()
    phase.check_accounting()
    counts = phase.counts()
    shed = sum(1 for op in ops if op.user == 13)
    assert counts["sent"] == 300 and counts["shed"] == shed
    assert counts["ok"] == 300 - shed and phase.failed() == shed
    assert all(o.response.get("user", 13) == o.op.user for o in phase.outcomes)
    assert all(lag >= 0 for lag in phase.lag_ms())
    assert all(a >= b for a, b in zip(phase.latencies_ms(), phase.rtt_ms()))


# ----------------------------------------------------------------------
# the metric names printed match BENCHMARK.json
# ----------------------------------------------------------------------

def test_printed_metrics_match_the_benchmark_definition():
    from layers import PER_LAYER, unit_of
    from run import END_TO_END, WORKLOADS
    root = Path(__file__).resolve().parent.parent.parent
    definition = json.loads((root / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in definition["end_to_end"]} == \
        set(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == \
        [(name, unit_of(name)) for name in PER_LAYER]
    assert {w["name"] for w in definition["workloads"]} <= set(WORKLOADS)
