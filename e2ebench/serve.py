"""The ``serve_tcp`` workload: multi-tenant ``repro serve`` over loopback TCP.

One client process drives a ``repro serve`` subprocess that has a
checkpoint root and count-triggered checkpoints:

* set-up: launch the server, then ``create_stream``, ``ingest`` (warm
  data), ``start_stream`` and ``flush`` for every tenant; timed from the
  launch until every tenant is live (five launches, median reported);
* rounds (closed loop, one thread and one connection per CPU, at most 2,
  all starting each round together): each tenant gets one ``ingest`` with
  a ``seq``, then each connection sends one query (rotating over fitness,
  factors and anomalies) to the tenant it ingested first, then every
  tenant gets one ``flush``; the tenant order rotates every round;
* end: ``checkpoint_all``, final factors and fitness of every tenant, all
  connections closed, ``shutdown`` on a fresh connection;
* restart: relaunch on the same root and query every tenant until its
  factors equal the pre-shutdown factors bit for bit (five relaunches,
  median reported).

After rounds 50, 100 and 150 every tenant's fitness is sampled for
``fitness_mean``; every run drives at least 150 rounds.  The server and
the client share one CPU (see ``SERVE_CPUS``).

Tenants alternate ``sns_vec`` and ``sns_rnd_plus`` on small windows.
Their records come from :class:`TenantRecords`, a low-rank generator
seeded by the workload seed and the tenant number.

Checks (each mismatch is a failed operation): the first tenant of each
method equals an in-process ``StreamSession`` replay of the same records
bit for bit; every tenant's factors after the restart equal its factors
before the shutdown; no ``flush`` reports deferred errors; the server's
standard error holds no traceback.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable

import numpy as np

import hostspeed
from common import (
    BENCH_DIR,
    CHECKOUT,
    OUT_DIR,
    children_peak_rss_mb,
    percentile,
    source_env,
    weighted_percentile,
)
from hostspeed import Scaled
from layers import layer_metrics, merge_layer_metrics

METHODS = ("sns_vec", "sns_rnd_plus")
STREAM_CONFIG = {
    "mode_sizes": [8, 6],
    "window_length": 4,
    "period": 10.0,
    "rank": 4,
    "als_iterations": 4,
    "detector_warmup": 20,
    "seed": 0,
}
PATTERNS = 3
WARM_RECORDS = 200
#: Warm records fill exactly one window: W * T / WARM_RECORDS time units apart.
SPACING = STREAM_CONFIG["window_length"] * STREAM_CONFIG["period"] / WARM_RECORDS
#: Records per tenant and round: small, so a run has over 1,000 commit
#: samples and the service's per-request work (codec, hops, locks) is a
#: large share of it.
CHUNK_RECORDS = 5
CHECKPOINT_EVENTS = 500
QUERY_OPS = ("fitness", "factors", "anomalies")
#: After these rounds every tenant's fitness is sampled; fitness_mean is the
#: mean of these samples, each relative to an offline ALS decomposition of
#: the same window, so it does not depend on how many rounds a run gets
#: through.  Every run drives at least the last of these rounds.
FITNESS_ROUNDS = (50, 100, 150)
TINY_FITNESS_ROUNDS = (2,)
ALS_REFERENCE_ITERATIONS = 20
N_TENANTS = 8
#: Launches timed for setup_s and relaunches timed for restart_s (medians).
REPEATS = 5
OVERLOAD_RETRIES = 5
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


#: The server and the load generator share one CPU (the last one) and leave
#: the others idle.  Unpinned, cross-core hand-offs made the throughput of
#: identical runs differ by a third on a 2-vCPU VM.  With the server on one
#: CPU and the client on the other, identical runs still fell to 1/1.7 of
#: the usual throughput at times while the reference loop of hostspeed.py,
#: timed between rounds with the other CPU idle, slowed by only 13%: work
#: on both vCPUs at once meets contention that the loop cannot see.  On one
#: CPU the loop runs exactly where the round's work runs.
SERVE_CPUS = {max(os.sched_getaffinity(0))}


class TenantRecords:
    """Seeded low-rank record stream of one tenant, in wire form.

    Each record picks one of ``PATTERNS`` latent patterns, then one index
    per mode from that pattern's Dirichlet-drawn distribution, so tenant
    windows are approximately low rank.  Timestamps are ``SPACING`` apart.
    """

    def __init__(self, seed: int, tenant: int) -> None:
        self._rng = np.random.default_rng([seed, tenant])
        sizes = STREAM_CONFIG["mode_sizes"]
        self._cumulative = [
            np.cumsum(self._rng.dirichlet(np.full(size, 0.3), size=PATTERNS), axis=1)
            for size in sizes
        ]
        self._weights = self._rng.dirichlet(np.ones(PATTERNS))
        self._position = 0

    def take(self, n: int) -> list[list[Any]]:
        rng = self._rng
        patterns = rng.choice(PATTERNS, size=n, p=self._weights)
        columns = []
        for cumulative in self._cumulative:
            draws = rng.random(n)
            index = (cumulative[patterns] < draws[:, None]).sum(axis=1)
            columns.append(np.minimum(index, cumulative.shape[1] - 1))
        values = rng.choice((1.0, 1.0, 1.0, 2.0, 3.0), size=n)
        first = self._position
        self._position += n
        return [
            [[int(column[k]) for column in columns], float(values[k]), (first + k + 1) * SPACING]
            for k in range(n)
        ]

    def skip(self, n: int) -> None:
        self._position += n


@dataclasses.dataclass
class Tenant:
    name: str
    method: str
    records: TenantRecords
    warm: list[list[Any]]
    chunks: list[list[list[Any]]] = dataclasses.field(default_factory=list)
    events_applied: int = 0
    #: (chunks applied, served fitness) at each of the fixed fitness rounds.
    fitness_samples: list[tuple[int, float]] = dataclasses.field(default_factory=list)

    @property
    def config(self) -> dict[str, Any]:
        return dict(STREAM_CONFIG, method=self.method)


def make_tenants(seed: int, n_tenants: int) -> list[Tenant]:
    tenants = []
    for index in range(n_tenants):
        records = TenantRecords(seed, index)
        warm = records.take(WARM_RECORDS)
        # Leave one slot free so the first live record lands after the
        # start time (first warm record + W * T).
        records.skip(1)
        tenants.append(
            Tenant(f"tenant-{index}", METHODS[index % len(METHODS)], records, warm)
        )
    return tenants


class ServerProcess:
    """A ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, root: Path, log: Path, spans_out: Path | None) -> None:
        serve_args = [
            "--host", "127.0.0.1",
            "--port", "0",
            "--checkpoint-root", str(root),
            "--checkpoint-events", str(CHECKPOINT_EVENTS),
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.service.cli", *serve_args]
        else:
            command = [
                sys.executable,
                str(BENCH_DIR / "serve_launcher.py"),
                "--spans-out", str(spans_out),
                "--", *serve_args,
            ]
        self.log_path = log
        self._log = open(log, "wb")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=source_env(),
            cwd=CHECKOUT,
        )
        os.sched_setaffinity(self.process.pid, SERVE_CPUS)
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _wait_ready(self) -> int:
        descriptor = self.process.stdout.fileno()
        deadline = time.monotonic() + READY_TIMEOUT_S
        output = b""
        while True:
            match = re.search(rb"listening on \S+:(\d+)\n", output)
            if match:
                return int(match.group(1))
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not start listening in time")
            readable, _, _ = select.select([descriptor], [], [], remaining)
            if readable:
                chunk = os.read(descriptor, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before listening: {self.stderr_text()}"
                    )
                output += chunk

    def shutdown(self) -> None:
        """Send ``shutdown`` on a fresh connection and wait for the exit."""
        from repro.service.client import ServiceClient

        try:
            with ServiceClient(port=self.port, timeout=EXIT_TIMEOUT_S) as client:
                client.shutdown()
            self.process.communicate(timeout=EXIT_TIMEOUT_S)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()

    def stderr_text(self) -> str:
        if not self._log.closed:
            self._log.flush()
        return self.log_path.read_text(errors="replace")


class LoadStats:
    """What one load thread observed."""

    def __init__(self) -> None:
        self.commit_s: list[float] = []
        self.commit_events: list[int] = []
        self.commit_round: list[int] = []
        self.query_s: list[float] = []
        self.query_round: list[int] = []
        self.flush_s: list[float] = []
        self.records = 0
        self.attempted = 0
        self.overloaded = 0
        self.failures: list[str] = []
        self.finished = 0.0


def _call(stats: LoadStats, function: Callable, *args: Any, **kwargs: Any) -> Any:
    """One request; ``overloaded`` is retried, counted, and reported as a failure."""
    from repro.exceptions import ServiceError

    for attempt in range(OVERLOAD_RETRIES + 1):
        stats.attempted += 1
        try:
            return function(*args, **kwargs)
        except ServiceError as error:
            if error.code != "overloaded" or attempt == OVERLOAD_RETRIES:
                raise
            stats.overloaded += 1
            stats.failures.append(f"overloaded: {error}")
            time.sleep(0.01 * (attempt + 1))
    raise AssertionError("unreachable")


class Rounds:
    """Starts the load threads' rounds together and stops them all together.

    Starting each round on every connection at once keeps the mix of
    concurrent applies and queries the same from round to round.  The
    rounds stop at the first round start after ``deadline`` once at least
    ``min_rounds`` have run.  Between two rounds, while the server is idle,
    the reference loop of hostspeed.py runs on the CPU they share; each
    round's wall time (reference loops excluded) is kept in ``wall_s``.
    """

    def __init__(self, n_threads: int, deadline: float, min_rounds: int) -> None:
        self.deadline = deadline
        self.min_rounds = min_rounds
        self.started = 0
        self.wall_s: list[float] = []
        self._loop_s: list[float] = []
        self._stop = False
        self._released = 0.0
        self._barrier = threading.Barrier(n_threads, action=self._decide)

    def _decide(self) -> None:
        arrived = time.perf_counter()
        if self.started:
            self.wall_s.append(arrived - self._released)
        self._loop_s.append(hostspeed.reference_loop_s())
        self._stop = (
            self.started >= self.min_rounds and time.perf_counter() >= self.deadline
        )
        if not self._stop:
            self.started += 1
        self._released = time.perf_counter()

    def scales(self) -> list[float]:
        """Host-speed scale of each round, from the median reference-loop
        time of the six barriers around it: the server's own background work
        (a checkpoint being written) sometimes slows one loop, and that must
        not rescale a whole round."""
        loops = self._loop_s
        return [
            hostspeed.REFERENCE_S / median(loops[max(r - 2, 0):r + 4])
            for r in range(len(self.wall_s))
        ]

    def next_round(self) -> bool:
        self._barrier.wait(timeout=EXIT_TIMEOUT_S)
        return not self._stop

    def abort(self) -> None:
        self._barrier.abort()


def _load_thread(
    client, tenants: list[Tenant], rounds: Rounds, fitness_rounds: tuple[int, ...],
    stats: LoadStats,
) -> None:
    clock = time.perf_counter
    round_index = 0
    try:
        while rounds.next_round():
            sent = {}
            shift = round_index % len(tenants)
            order = tenants[shift:] + tenants[:shift]
            for tenant in order:
                chunk = tenant.records.take(CHUNK_RECORDS)
                tenant.chunks.append(chunk)
                sent[tenant.name] = clock()
                _call(stats, client.ingest, tenant.name, chunk, seq=len(tenant.chunks))
                stats.records += len(chunk)
            # One query per connection and round, on the tenant ingested
            # first, whose chunk is still being applied beside the others:
            # the read waits for that write, every round alike.
            op = QUERY_OPS[round_index % len(QUERY_OPS)]
            started = clock()
            _call(stats, client.request, op, stream=order[0].name)
            stats.query_s.append(clock() - started)
            stats.query_round.append(round_index)
            for tenant in order:
                started = clock()
                response = _call(stats, client.flush, tenant.name)
                done = clock()
                stats.flush_s.append(done - started)
                stats.commit_s.append(done - sent[tenant.name])
                stats.commit_round.append(round_index)
                applied = int(response["events_applied"])
                stats.commit_events.append(applied - tenant.events_applied)
                tenant.events_applied = applied
                for error in response.get("deferred_errors", []):
                    stats.failures.append(f"{tenant.name} deferred error: {error}")
            round_index += 1
            if round_index in fitness_rounds:
                for tenant in tenants:
                    response = _call(stats, client.fitness, tenant.name)
                    tenant.fitness_samples.append(
                        (len(tenant.chunks), float(response["fitness"]))
                    )
            stats.finished = clock()
    except Exception as error:  # one failed op ends the load on every thread
        stats.failures.append(f"load thread stopped: {error!r}")
        rounds.abort()


def _setup_tenants(client, tenants: list[Tenant]) -> None:
    for tenant in tenants:
        client.create_stream(tenant.name, **tenant.config)
        client.ingest(tenant.name, tenant.warm)
        client.start_stream(tenant.name)
        tenant.events_applied = int(client.flush(tenant.name)["events_applied"])


def _same_bits(left: Any, right: Any) -> bool:
    a = [np.asarray(part, dtype=np.float64) for part in left]
    b = [np.asarray(part, dtype=np.float64) for part in right]
    return len(a) == len(b) and all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b)
    )


def _reference_factors(tenant: Tenant) -> list:
    """Replay the tenant's records through an in-process ``StreamSession``."""
    from repro.service.config import StreamConfig
    from repro.service.protocol import parse_records
    from repro.service.session import StreamSession

    session = StreamSession("reference", StreamConfig.from_dict(tenant.config))
    session.ingest(parse_records(tenant.warm))
    session.start()
    for chunk in tenant.chunks:
        session.ingest(parse_records(chunk))
    return session.factors()["factors"]


def _reference_fitness(tenant: Tenant, n_chunks: int) -> float:
    """Fitness of an offline ALS decomposition of the tenant's window after
    its warm records and first ``n_chunks`` chunks."""
    from repro.als.als import decompose
    from repro.service.config import StreamConfig
    from repro.service.protocol import parse_records
    from repro.service.session import StreamSession
    from repro.stream.processor import ContinuousStreamProcessor
    from repro.stream.stream import MultiAspectStream

    records = parse_records(
        tenant.warm + [record for chunk in tenant.chunks[:n_chunks] for record in chunk]
    )
    window_config = StreamSession("reference", StreamConfig.from_dict(tenant.config)).window_config
    processor = ContinuousStreamProcessor(
        MultiAspectStream(records, mode_sizes=window_config.mode_sizes),
        window_config,
        start_time=records[-1].time,
    )
    return decompose(
        processor.window.tensor,
        rank=STREAM_CONFIG["rank"],
        n_iterations=ALS_REFERENCE_ITERATIONS,
        seed=0,
    ).fitness


def _server_problems(server: ServerProcess, what: str) -> list[str]:
    text = server.stderr_text()
    count = text.count("Traceback")
    if count:
        sys.stderr.write(text)
    return [f"{what}: traceback on server stderr"] * count


@dataclasses.dataclass
class Scenario:
    setup: list[Scaled]
    #: Load wall time as the client saw it (reference loops included).
    ingest_wall_s: float
    #: Per round: wall time without the reference loops, host-speed scale.
    round_wall_s: list[float]
    round_scale: list[float]
    restart: list[Scaled]
    stats: list[LoadStats]
    fitness: list[float]
    relative_fitness: list[float]
    window_nnz: int
    backend: str
    attempted: int
    problems: list[str]
    failures: list[str]
    summaries: list[dict]


def run_scenario(
    seed: int, seconds: float, workdir: Path, tag: str, traced: bool,
    repeats: int, n_tenants: int, fitness_rounds: tuple[int, ...],
) -> Scenario:
    """Set up (``repeats`` launches), drive the rounds, restart (``repeats`` times)."""
    from repro.service.client import ServiceClient

    n_connections = min(2, os.cpu_count() or 1)
    setup: list[Scaled] = []
    problems: list[str] = []
    failures: list[str] = []
    attempted = 0
    spans = [OUT_DIR / f"spans-serve_tcp-{name}" for name in ("server", "restart")]
    for repeat in range(repeats - 1):
        tenants = make_tenants(seed, n_tenants)
        with Scaled() as stretch:
            server = ServerProcess(
                workdir / f"{tag}-setup-{repeat}", workdir / f"{tag}-setup-{repeat}.log", None
            )
            try:
                with ServiceClient(port=server.port, timeout=EXIT_TIMEOUT_S) as client:
                    _setup_tenants(client, tenants)
            except BaseException:
                server.kill()
                raise
        setup.append(stretch)
        server.shutdown()
        failures += _server_problems(server, f"{tag} set-up launch {repeat}")
        attempted += 4 * n_tenants + 1

    root = workdir / f"{tag}-root"
    tenants = make_tenants(seed, n_tenants)
    stretch = Scaled()
    stretch.start()
    server = ServerProcess(root, workdir / f"{tag}.log", spans[0] if traced else None)
    try:
        clients = [
            ServiceClient(port=server.port, timeout=EXIT_TIMEOUT_S)
            for _ in range(n_connections)
        ]
        try:
            _setup_tenants(clients[0], tenants)
            stretch.stop()
            setup.append(stretch)
            attempted += 4 * n_tenants
            stats = [LoadStats() for _ in clients]
            load_started = time.perf_counter()
            rounds = Rounds(n_connections, load_started + seconds, fitness_rounds[-1])
            threads = [
                threading.Thread(
                    target=_load_thread,
                    args=(client, tenants[i::n_connections], rounds, fitness_rounds, stats[i]),
                )
                for i, client in enumerate(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + EXIT_TIMEOUT_S)
                if thread.is_alive():
                    raise RuntimeError("a load thread did not finish")
            ingest_wall = max(s.finished for s in stats) - load_started
            client = clients[0]
            report = client.checkpoint_all()
            attempted += 1
            failures += [f"checkpoint_all {k}: {v}" for k, v in report["failed"].items()]
            final = {}
            fitness = []
            window_nnz = 0
            for tenant in tenants:
                final[tenant.name] = client.factors(tenant.name)["factors"]
                fitness.append(float(client.fitness(tenant.name)["fitness"]))
                stats_response = client.stats(tenant.name)
                window_nnz += int(stats_response["window_nnz"])
                backend = str(stats_response["kernel_backend"])
                attempted += 3
        finally:
            for client in clients:
                client.close()
        server.shutdown()
    except BaseException:
        server.kill()
        raise
    failures += _server_problems(server, f"{tag} measured launch")
    attempted += 1

    restart: list[Scaled] = []
    for repeat in range(repeats):
        traced_restart = traced and repeat == repeats - 1
        with Scaled() as stretch:
            server = ServerProcess(
                root,
                workdir / f"{tag}-restart-{repeat}.log",
                spans[1] if traced_restart else None,
            )
            try:
                with ServiceClient(port=server.port, timeout=EXIT_TIMEOUT_S) as client:
                    served = {t.name: client.factors(t.name)["factors"] for t in tenants}
            except BaseException:
                server.kill()
                raise
        restart.append(stretch)
        try:
            for tenant in tenants:
                if not _same_bits(served[tenant.name], final[tenant.name]):
                    problems.append(f"{tag} {tenant.name}: factors changed across restart")
                attempted += 1
            server.shutdown()
        except BaseException:
            server.kill()
            raise
        failures += _server_problems(server, f"{tag} restart {repeat}")
        attempted += 1

    for method in METHODS:
        tenant = next(t for t in tenants if t.method == method)
        if not _same_bits(_reference_factors(tenant), final[tenant.name]):
            problems.append(f"{tag} {tenant.name}: differs from in-process replay")
        attempted += 1

    for load in stats:
        failures += load.failures
        attempted += load.attempted
    summaries = []
    if traced:
        summaries = [json.loads(path.with_suffix(".json").read_text()) for path in spans]
    return Scenario(
        setup=setup,
        ingest_wall_s=ingest_wall,
        round_wall_s=rounds.wall_s,
        round_scale=rounds.scales(),
        restart=restart,
        stats=stats,
        fitness=fitness,
        relative_fitness=[
            served / _reference_fitness(tenant, n_chunks)
            for tenant in tenants
            for n_chunks, served in tenant.fitness_samples
        ],
        window_nnz=window_nnz,
        backend=backend,
        attempted=attempted,
        problems=problems,
        failures=failures,
        summaries=summaries,
    )


def _pooled(scenario: Scenario, field: str) -> list:
    return [value for load in scenario.stats for value in getattr(load, field)]


def _pooled_scaled(scenario: Scenario, field: str, round_field: str) -> list[float]:
    """Samples of ``field`` scaled by the host speed of the round they fell in
    (a round that a failure cut short has no scale; its samples are left out)."""
    scale = scenario.round_scale
    return [
        value * scale[index]
        for load in scenario.stats
        for value, index in zip(getattr(load, field), getattr(load, round_field))
        if index < len(scale)
    ]


def _scaled_wall_s(scenario: Scenario) -> float:
    return sum(w * f for w, f in zip(scenario.round_wall_s, scenario.round_scale))


def _records_per_s(scenario: Scenario) -> float:
    return sum(load.records for load in scenario.stats) / _scaled_wall_s(scenario)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    os.sched_setaffinity(0, SERVE_CPUS)
    n_tenants = 4 if tiny else N_TENANTS
    repeats = 1 if tiny or trace else REPEATS
    fitness_rounds = TINY_FITNESS_ROUNDS if tiny else FITNESS_ROUNDS
    workdir = OUT_DIR / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            plain = run_scenario(
                seed, seconds / 2.0, workdir, "plain", False, repeats, n_tenants, fitness_rounds
            )
            traced = run_scenario(
                seed, seconds / 2.0, workdir, "traced", True, repeats, n_tenants, fitness_rounds
            )
            return _traced_result(plain, traced)
        scenario = run_scenario(
            seed, seconds, workdir, "measured", False, repeats, n_tenants, fitness_rounds
        )
        return _result(scenario)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _details(scenario: Scenario) -> dict:
    return {
        "tenants": len(scenario.fitness),
        "samples": {
            "commit": len(_pooled(scenario, "commit_s")),
            "query": len(_pooled(scenario, "query_s")),
            "setup": len(scenario.setup),
        },
        "window_nnz_total": scenario.window_nnz,
        "rounds": len(_pooled(scenario, "commit_s")) // len(scenario.fitness),
        "cpu_affinity": sorted(SERVE_CPUS),
        "final_fitness": scenario.fitness,
    }


def _result(scenario: Scenario) -> dict:
    commits = _pooled_scaled(scenario, "commit_s", "commit_round")
    commit_events = _pooled(scenario, "commit_events")
    queries = _pooled_scaled(scenario, "query_s", "query_round")
    wall = _scaled_wall_s(scenario)
    metrics = {
        "setup_s": hostspeed.scaled_median(scenario.setup),
        "events_per_s": sum(commit_events) / wall,
        "event_latency_us_p50": weighted_percentile(commits, commit_events, 50) * 1e6,
        "event_latency_us_p99": weighted_percentile(commits, commit_events, 99) * 1e6,
        "fitness_mean": float(np.mean(scenario.relative_fitness)),
        "ingest_records_per_s": _records_per_s(scenario),
        "commit_ms_p50": percentile(commits, 50) * 1e3,
        "commit_ms_p90": percentile(commits, 90) * 1e3,
        "query_ms_p50": percentile(queries, 50) * 1e3,
        "query_ms_p90": percentile(queries, 90) * 1e3,
        "restart_s": hostspeed.scaled_median(scenario.restart),
        "peak_rss_mb": children_peak_rss_mb(),
    }
    raw_wall = sum(scenario.round_wall_s)
    details = _details(scenario)
    details["unscaled"] = {
        "setup_s": hostspeed.raw_median(scenario.setup),
        "events_per_s": sum(commit_events) / raw_wall,
        "commit_ms_p50": percentile(_pooled(scenario, "commit_s"), 50) * 1e3,
        "query_ms_p50": percentile(_pooled(scenario, "query_s"), 50) * 1e3,
        "restart_s": hostspeed.raw_median(scenario.restart),
    }
    details["host_speed_scale_median"] = median(scenario.round_scale)
    return {
        "attempted": scenario.attempted,
        "problems": scenario.problems,
        "failures": scenario.failures,
        "metrics": metrics,
        "backend": scenario.backend,
        "details": details,
    }


def _traced_result(plain: Scenario, traced: Scenario) -> dict:
    server, restart = traced.summaries
    values = merge_layer_metrics(layer_metrics(server), layer_metrics(restart))
    events = sum(_pooled(traced, "commit_events"))
    apply_s = server["total_s"].get("service.apply", 0.0)
    values["service.apply_overlap"] = apply_s / traced.ingest_wall_s
    values["service.apply_us_per_event"] = apply_s / events * 1e6 if events else 0.0
    values["service.query_self_ms_p50"] = server["self_p50_s"].get("service.query", 0.0) * 1e3
    values["service.flush_wait_ms_p50"] = median(_pooled(traced, "flush_s")) * 1e3
    values["service.overloaded_n"] = sum(load.overloaded for load in traced.stats)
    values["tensor.window_nnz"] = traced.window_nnz
    plain_rate = _records_per_s(plain)
    traced_rate = _records_per_s(traced)
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    return {
        "attempted": plain.attempted + traced.attempted,
        "problems": plain.problems + traced.problems,
        "failures": plain.failures + traced.failures,
        "layers": values,
        "backend": traced.backend,
        "details": {
            "untraced_records_per_s": plain_rate,
            "traced_records_per_s": traced_rate,
            "traced": _details(traced),
        },
    }
