"""Open-loop load generator: seeded schedules, an asyncio NDJSON client over
a fixed number of pipelined connections, and the percentile rule.

Everything random here is drawn from the ``numpy`` generator the caller
seeds with the workload seed, so a seed fixes the schedule, the users and
the appended items exactly.  Latency is measured from each request's *due*
time, so a stall also charges the requests that queue behind it; how late
the generator itself sent is reported separately as lag.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from common import BenchError

MIN_BEYOND = 10
"""A percentile is reported only when at least this many samples lie
beyond it."""


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One scheduled request."""

    due: float          # seconds after the phase starts
    conn: int           # connection index
    kind: str           # "recommend" or "append"
    user: int
    item: int = 0
    behavior: str = ""

    def payload(self) -> dict:
        if self.kind == "append":
            return {"op": "append", "user": self.user, "item": self.item,
                    "behavior": self.behavior}
        return {"op": "recommend", "user": self.user}


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Probability of popularity ranks ``0..count-1`` under Zipf(exponent)."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def poisson_due_times(rng: np.random.Generator, rate: float,
                      count: int) -> np.ndarray:
    """Arrival times of a Poisson process at ``rate``/s, first at 0.
    ``rate=inf`` sends everything at once (a burst)."""
    if math.isinf(rate):
        return np.zeros(count)
    gaps = rng.exponential(1.0 / rate, size=count)
    return np.concatenate([[0.0], np.cumsum(gaps[:-1])])


@dataclass(frozen=True)
class Population:
    """Who sends requests: a seeded popularity order over the users.

    Users are pinned to connections by popularity rank (rank ``r`` uses
    connection ``r % connections``), so one user's ops always travel on
    one connection and reach the server in the order they were sent.
    """

    users: tuple[int, ...]      # users by popularity rank
    weights: np.ndarray
    connections: int

    @classmethod
    def draw(cls, rng: np.random.Generator, users, exponent: float,
             connections: int) -> "Population":
        order = tuple(int(user) for user in rng.permutation(np.asarray(users)))
        return cls(order, zipf_weights(len(order), exponent), connections)

    def conn_of(self, rank: int) -> int:
        return rank % self.connections


def make_schedule(rng: np.random.Generator, population: Population, *,
                  rate: float, count: int, append_share: float = 0.0,
                  num_items: int = 0, behaviors: tuple[str, ...] = ()
                  ) -> list[Op]:
    """``count`` ops arriving as a Poisson process at ``rate``/s, users
    drawn Zipf-skewed; a share of them are appends of a uniformly drawn
    item under a uniformly drawn behavior."""
    due = poisson_due_times(rng, rate, count)
    ranks = rng.choice(len(population.users), size=count, p=population.weights)
    is_append = rng.random(count) < append_share
    items = rng.integers(1, max(num_items, 1) + 1, size=count)
    behavior_ids = rng.integers(0, max(len(behaviors), 1), size=count)
    ops = []
    for index in range(count):
        rank = int(ranks[index])
        kind = "append" if is_append[index] else "recommend"
        ops.append(Op(
            due=float(due[index]), conn=population.conn_of(rank), kind=kind,
            user=population.users[rank],
            item=int(items[index]) if kind == "append" else 0,
            behavior=behaviors[behavior_ids[index]] if kind == "append" else ""))
    return ops


def sweep_schedule(population: Population) -> list[Op]:
    """Every user once, most popular first, sent at once (cache warm-up)."""
    return [Op(due=0.0, conn=population.conn_of(rank), kind="recommend",
               user=user)
            for rank, user in enumerate(population.users)]


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------

def _supported(count: int, pct: float) -> bool:
    """At least :data:`MIN_BEYOND` of ``count`` samples lie beyond ``pct``
    (with slack for the float rounding of ``100 - pct``)."""
    return count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-6


def percentile(values, pct: float) -> float | None:
    """The ``pct`` percentile of ``values``, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not _supported(len(values), pct):
        return None
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def tail_percentile(count: int, ladder=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
                    ) -> float | None:
    """The highest percentile of ``ladder`` that ``count`` samples support."""
    for pct in ladder:
        if _supported(count, pct):
            return pct
    return None


def summarize(values) -> dict:
    """Median and the highest supported tail percentile, with the count."""
    tail = tail_percentile(len(values))
    return {"count": len(values),
            "p50": percentile(values, 50.0),
            "tail_pct": tail,
            "tail": None if tail is None else percentile(values, tail)}


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """One answered (or unanswered) request."""

    op: Op
    sent: float = math.nan        # absolute perf_counter time
    done: float = math.nan
    response: dict | None = None

    @property
    def status(self) -> str:
        if self.response is None:
            return "timeout"
        if self.response.get("ok"):
            return "ok"
        return "shed" if self.response.get("shed") else "error"


@dataclass
class PhaseResult:
    """What one phase sent and got back; ``start`` is the phase's time 0."""

    name: str
    start: float
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed: float = 0.0

    def counts(self) -> dict:
        counts = {"sent": 0, "ok": 0, "shed": 0, "error": 0, "timeout": 0}
        for outcome in self.outcomes:
            if not math.isnan(outcome.sent):
                counts["sent"] += 1
            counts[outcome.status] += 1
        return counts

    def check_accounting(self) -> None:
        """Every sent op ends as exactly one of ok / shed / error (a timeout
        counts as an error)."""
        counts = self.counts()
        settled = (counts["ok"] + counts["shed"] + counts["error"]
                   + counts["timeout"])
        if counts["sent"] != len(self.outcomes) or settled != counts["sent"]:
            raise BenchError(
                f"phase {self.name}: sent {counts['sent']} of "
                f"{len(self.outcomes)} ops, settled {settled}")

    def failed(self) -> int:
        counts = self.counts()
        return counts["shed"] + counts["error"] + counts["timeout"]

    def latencies_ms(self, kind: str = "recommend") -> list[float]:
        """Latency from the due time, for answered ops of ``kind``."""
        return [(o.done - (self.start + o.op.due)) * 1e3
                for o in self.outcomes
                if o.op.kind == kind and o.status == "ok"]

    def rtt_ms(self, kind: str = "recommend") -> list[float]:
        """Latency from the actual send, for answered ops of ``kind``."""
        return [(o.done - o.sent) * 1e3 for o in self.outcomes
                if o.op.kind == kind and o.status == "ok"]

    def lag_ms(self) -> list[float]:
        """How late each op was sent after its due time."""
        return [(o.sent - (self.start + o.op.due)) * 1e3
                for o in self.outcomes if not math.isnan(o.sent)]

    def throughput(self) -> float:
        """Answered ops per second from the phase start to the last answer."""
        done = [o.done for o in self.outcomes if o.status == "ok"]
        if not done:
            return 0.0
        return len(done) / max(max(done) - self.start, 1e-9)


class LoadClient:
    """``connections`` persistent NDJSON connections to one server, driven
    from one asyncio loop in the calling thread."""

    def __init__(self, host: str, port: int, connections: int,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.connections = connections
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._streams: list[tuple[asyncio.StreamReader,
                                  asyncio.StreamWriter]] = []
        try:
            self._loop.run_until_complete(self._connect())
        except BaseException:
            self.close()
            raise

    async def _connect(self) -> None:
        for _ in range(self.connections):
            self._streams.append(await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout))

    def run(self, name: str, ops: list[Op]) -> PhaseResult:
        """Send ``ops`` on schedule and wait for every answer (or the
        timeout, after which the unanswered ops count as timeouts)."""
        return self._loop.run_until_complete(self._run(name, ops))

    async def _run(self, name: str, ops: list[Op]) -> PhaseResult:
        start = time.perf_counter() + 0.01
        result = PhaseResult(name, start,
                             [Outcome(op) for op in sorted(ops, key=lambda o: o.due)])
        per_conn: list[list[Outcome]] = [[] for _ in self._streams]
        for outcome in result.outcomes:
            per_conn[outcome.op.conn].append(outcome)
        tasks = []
        for (reader, writer), outcomes in zip(self._streams, per_conn):
            tasks.append(asyncio.ensure_future(self._send(writer, start, outcomes)))
            tasks.append(asyncio.ensure_future(self._receive(reader, outcomes)))
        last_due = max((op.due for op in ops), default=0.0)
        try:
            await asyncio.wait_for(asyncio.gather(*tasks),
                                   last_due + self.timeout)
        except asyncio.TimeoutError:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
        result.elapsed = time.perf_counter() - start
        return result

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, start: float,
                    outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            delay = start + outcome.op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome.sent = time.perf_counter()
            writer.write(json.dumps(outcome.op.payload()).encode() + b"\n")
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        await writer.drain()

    @staticmethod
    async def _receive(reader: asyncio.StreamReader,
                       outcomes: list[Outcome]) -> None:
        for outcome in outcomes:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            outcome.done = time.perf_counter()
            outcome.response = json.loads(line)

    def close(self) -> None:
        """Close every connection and the loop."""
        async def shut() -> None:
            for _, writer in self._streams:
                writer.close()
            for _, writer in self._streams:
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        try:
            self._loop.run_until_complete(shut())
        finally:
            self._streams.clear()
            self._loop.close()
