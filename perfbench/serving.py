"""The two serving workloads: open-loop NDJSON traffic against a server
process started from :mod:`server`.

One run sets up ``SETUP_REPEATS`` times — corpus, export, server start,
index build and a warm-up sweep that asks once for every user — and keeps
the last server for two timed phases:

* ``fixed``: Poisson arrivals at the workload's fixed rate (about 40% of
  the 2-connection capacity measured on a 2-CPU host, so a host that runs
  a third slower still keeps up); recommend latency is timed from each
  request's due time.
* ``burst``: every op of the phase due at once; answered ops per second is
  the capacity of the server over the two connections.

The traced run starts one untraced server and one traced server and runs
only the fixed phase on each, so both see the same schedule.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (BenchError, export_serving_artifact,
                    make_work_dir, remove_work_dir, tree_cpu_seconds,
                    tree_pss_mb)
from loadgen import (LoadClient, PhaseResult, Population, make_schedule,
                     percentile, summarize, sweep_schedule)

CONNECTIONS = min(2, os.cpu_count() or 1)  # at most nproc
ZIPF_EXPONENT = 1.0
SETUP_REPEATS = 3
START_DEADLINE = 90.0   # seconds for a server to print its ready line
STOP_DEADLINE = 30.0
CHECK_SAMPLES = 40      # answered recommends compared against offline
FIXED_SHARE = 0.75      # of --seconds, at the fixed rate
BURST_SHARE = 0.15      # of --seconds, at the reference capacity
SERVER = Path(__file__).resolve().parent / "server.py"


@dataclass(frozen=True)
class ServeSpec:
    catalog: int | None     # synthetic catalog size (None: the corpus's)
    replicas: int           # 0: in-process backend
    append_share: float
    rate: float             # fixed-phase arrivals per second
    capacity: float         # reference 2-connection capacity (ops/s)


WORKLOADS = {
    "serve_online": ServeSpec(catalog=50_000, replicas=0, append_share=0.0,
                              rate=60.0, capacity=140.0),
    "serve_mixed": ServeSpec(catalog=None, replicas=2, append_share=0.25,
                             rate=90.0, capacity=230.0),
}


class ServerProcess:
    """One server child in its own session; every exit path reaps the
    whole process group and frees the shared-memory arenas it made."""

    def __init__(self, artifact: Path, replicas: int, log: Path,
                 trace_dir: Path | None = None):
        self._shm_before = _arena_segments()
        command = [sys.executable, str(SERVER), str(artifact),
                   "--replicas", str(replicas)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        self._log_path = log
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True)
        try:
            self.banner = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.host, self.port = self.banner["host"], int(self.banner["port"])

    def _wait_ready(self) -> dict:
        deadline = time.monotonic() + START_DEADLINE
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise BenchError(f"server not ready within "
                                     f"{START_DEADLINE:.0f}s")
                if selector.select(remaining):
                    line = self.proc.stdout.readline()
                    if not line:
                        raise BenchError(f"server exited during start-up "
                                         f"(code {self.proc.wait()}): "
                                         f"{self._log_tail()}")
                    if line.startswith(b"{"):
                        return json.loads(line)

    def _log_tail(self) -> str:
        self._log.flush()
        lines = self._log_path.read_bytes().decode(errors="replace").splitlines()
        return lines[-1] if lines else "no output"

    def stop(self) -> int:
        """Close stdin (the server drains and exits), escalate to SIGTERM
        and then SIGKILL of the group; returns the exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        code = None
        for sig, wait in ((None, STOP_DEADLINE), (signal.SIGTERM, 10.0),
                          (signal.SIGKILL, 10.0)):
            if sig is not None:
                try:
                    os.killpg(self.proc.pid, sig)
                except ProcessLookupError:
                    pass
            try:
                code = self.proc.wait(wait)
                break
            except subprocess.TimeoutExpired:
                continue
        try:  # replicas outlive a killed server; reap the rest of the group
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        for name in _arena_segments() - self._shm_before:
            try:
                os.unlink(f"/dev/shm/{name}")
            except OSError:
                pass
        self.proc.stdout.close()
        self._log.close()
        return code


def _arena_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro-arena-")}
    except OSError:
        return set()


class ServeRun:
    """One serving workload run (owns its servers and scratch directory)."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seconds = seconds
        self.work = make_work_dir(name)
        self.servers: list[ServerProcess] = []
        self.client: LoadClient | None = None
        self.phases: list[PhaseResult] = []
        self.rss_samples: list[float] = []
        self.population: Population | None = None
        rng = np.random.default_rng(seed)
        self._schedule_rng = np.random.default_rng(rng.integers(1 << 62))
        self._check_rng = np.random.default_rng(rng.integers(1 << 62))

    # -- lifecycle -------------------------------------------------------
    def setup(self, index: int, trace_dir: Path | None = None) -> float:
        """Export, start a server, connect and warm every user's cache
        entry; returns the seconds it took."""
        started = time.perf_counter()
        work = self.work / f"setup{index}"
        work.mkdir()
        self.artifact, self.context = export_serving_artifact(
            work, self.spec.catalog)
        server = ServerProcess(self.artifact, self.spec.replicas,
                               work / "server.log", trace_dir)
        self.servers.append(server)
        self.client = LoadClient(server.host, server.port, CONNECTIONS)
        dataset = self.context.dataset
        if self.population is None:
            self.population = Population.draw(
                self._schedule_rng, dataset.users, ZIPF_EXPONENT, CONNECTIONS)
        self.phases = [self.phase("warmup", sweep_schedule(self.population))]
        return time.perf_counter() - started

    def teardown(self) -> None:
        """Disconnect and stop the current server; raise when it did not
        exit cleanly."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.servers:
            server = self.servers.pop()
            code = server.stop()
            if code != 0:
                raise BenchError(f"server exited with code {code}")

    def close(self) -> None:
        """Stop everything still running (every exit path)."""
        try:
            if self.client is not None:
                self.client.close()
                self.client = None
        finally:
            while self.servers:
                self.servers.pop().stop()
            remove_work_dir(self.work)

    # -- phases ----------------------------------------------------------
    def phase(self, name: str, ops) -> PhaseResult:
        result = self.client.run(name, ops)
        result.check_accounting()
        counts = result.counts()
        if counts["timeout"]:
            raise BenchError(f"phase {name}: {counts['timeout']} of "
                             f"{counts['sent']} ops unanswered")
        self.rss_samples.append(tree_pss_mb(self.servers[-1].proc.pid))
        return result

    def _schedule(self, rate: float, count: int):
        dataset = self.context.dataset
        return make_schedule(self._schedule_rng, self.population, rate=rate,
                             count=count, append_share=self.spec.append_share,
                             num_items=dataset.num_items,
                             behaviors=tuple(dataset.schema.behaviors))

    def fixed_ops(self):
        count = round(FIXED_SHARE * self.seconds * self.spec.rate)
        return self._schedule(self.spec.rate, count)

    def burst_ops(self):
        count = round(BURST_SHARE * self.seconds * self.spec.capacity)
        return self._schedule(math.inf, count)

    # -- correctness -----------------------------------------------------
    def check(self) -> int:
        """Compare sampled answered recommends with offline exact top-k,
        replaying the acknowledged appends of each user in send order."""
        from checks import OfflineReference
        reference = OfflineReference(self.artifact, self.context.dataset)
        ordered = [o for phase in self.phases for o in
                   sorted(phase.outcomes, key=lambda o: o.sent)]
        recommends = [i for i, o in enumerate(ordered)
                      if o.op.kind == "recommend" and o.status == "ok"]
        picked = set(self._check_rng.choice(
            recommends, size=min(CHECK_SAMPLES, len(recommends)),
            replace=False).tolist())
        for index, outcome in enumerate(ordered):
            op, response = outcome.op, outcome.response
            if op.kind == "append" and outcome.status == "ok":
                reference.append(op.user, op.item, op.behavior)
            elif index in picked:
                if response.get("user") != op.user:
                    raise BenchError(f"{self.name}: answer for user "
                                     f"{response.get('user')} on a request "
                                     f"for user {op.user}")
                reference.check(op.user, response["items"],
                                response["scores"], self.name)
        return reference.checked


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    serve = ServeRun(name, seed, seconds)
    try:
        return _traced(serve) if trace else _measured(serve)
    finally:
        serve.close()


def _measured(serve: ServeRun) -> dict:
    setups = []
    for index in range(SETUP_REPEATS):
        if index:
            serve.teardown()
        setups.append(serve.setup(index))
    pid = serve.servers[-1].proc.pid
    cpu_start = tree_cpu_seconds(pid)
    fixed = serve.phase("fixed", serve.fixed_ops())
    burst = serve.phase("burst", serve.burst_ops())
    cpu = tree_cpu_seconds(pid) - cpu_start
    serve.phases += [fixed, burst]
    answered = sum(p.counts()["ok"] for p in (fixed, burst))
    serve.teardown()
    checked = serve.check()
    latency = fixed.latencies_ms("recommend")
    info = {"setup_s": setups,
            "latency_ms": summarize(latency),
            "append_ms": summarize(fixed.latencies_ms("append")),
            "lag_ms.p99": percentile(fixed.lag_ms(), 99.0),
            "fixed_rate": serve.spec.rate,
            "ops": {p.name: p.counts() for p in serve.phases},
            "checked": checked}
    info["cpu_ms_per_op"] = cpu * 1e3 / max(answered, 1)
    metrics = {"setup_s": float(np.median(setups)),
               "p50_ms": float(np.median(latency)),
               "throughput": burst.throughput(),
               "rss_mb": max(serve.rss_samples)}
    attempted = sum(p.counts()["sent"] for p in serve.phases)
    failed = sum(p.failed() for p in serve.phases)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}


def _traced(serve: ServeRun) -> dict:
    from layers import serving_metrics
    from tracing import Trace

    serve.setup(0)
    ops = serve.fixed_ops()
    untraced = serve.phase("fixed-untraced", ops)
    serve.teardown()
    trace_dir = serve.work / "spans"
    serve.setup(1, trace_dir)
    traced = serve.phase("fixed", ops)
    phases = serve.phases + [traced]
    serve.teardown()
    window = (traced.start, traced.start + traced.elapsed)
    trace = Trace(trace_dir, window)
    expected = 1 + serve.spec.replicas
    if trace.files != expected:
        raise BenchError(f"{trace.files} span files flushed, expected "
                         f"{expected} (server and replicas)")
    base = float(np.mean(untraced.rtt_ms()))
    overhead = (float(np.mean(traced.rtt_ms())) / base - 1.0) * 100.0
    # Both fixed phases ran the same schedule from this generator, so
    # their lags together size its p99.
    metrics = serving_metrics(trace, latency_ms=traced.latencies_ms(),
                              rtt_ms=traced.rtt_ms(),
                              lag_ms=untraced.lag_ms() + traced.lag_ms(),
                              requests=len(traced.latencies_ms()),
                              overhead_pct=overhead)
    serve.phases = phases
    checked = serve.check()
    info = {"absent_layers": sorted(trace.absent), "checked": checked,
            "span_files": trace.files, "spans": len(trace.spans)}
    attempted = sum(p.counts()["sent"] for p in phases) + \
        untraced.counts()["sent"]
    failed = sum(p.failed() for p in phases) + untraced.failed()
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}
