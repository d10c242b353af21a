"""The ``replay_rows`` and ``replay_mat`` workloads: per-event stream replay.

The replay loop is the per-event loop of ``repro.experiments.runner.run_method``
(``ContinuousStreamProcessor.events`` -> ``model.update``, fitness every
150 events -- 15 for SNS-MAT), written out here so each step can be timed
from outside:

* set-up: generate the dataset from the workload seed, bootstrap the
  initial window, run the ALS initialisation (repeated, median reported);
* replay: each variant in turn, from the same ALS initialisation, for an
  equal share of the run time, stopping on a fitness sample;
* restart: checkpoint the processor and model, restore them, and require
  the restored factors and window to be bit-identical;
* check: ``run_method`` on the same inputs and event count must produce a
  bit-identical fitness series and bit-identical final factors.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from statistics import median
from typing import Any, Callable

import numpy as np

import hostspeed
from common import OUT_DIR, own_peak_rss_mb, percentile
from hostspeed import Scaled, reference_loop_s
from layers import layer_metrics

#: fitness_mean averages the fitness samples of this many first events
#: only, so it does not depend on how many events a run gets through; every
#: replay runs at least this far.
FITNESS_PREFIX_EVENTS = 1500
#: Tail percentiles of per-event samples are the median, over consecutive
#: blocks of at least this many events, of each block's percentile, so that
#: one stall of the machine moves one block, not the whole run.  A block has
#: at least ten samples beyond its 99th percentile.
LATENCY_BLOCK = 1000
#: The replay runs a reference loop (hostspeed.py) about this often and
#: scales the samples in between by the host speed it measured.
SCALE_BLOCK_S = 0.05
ALS_ITERATIONS = 10
MODEL_SEED = 0
SETUP_REPEATS = 3
#: Checkpoint + restore cycles timed per run, split evenly over the variants.
RESTART_SAMPLES = 20


@dataclasses.dataclass(frozen=True)
class ReplaySpec:
    dataset: str
    scale: float
    methods: tuple[str, ...]
    tiny_scale: float
    #: Events between fitness samples.  run_method's default is 150; SNS-MAT
    #: gets through ~100 events a second, so it samples every 15 events to
    #: give query_ms_p90 at least ten samples beyond it.
    fitness_every: int


SPECS = {
    "replay_rows": ReplaySpec(
        "nyc_taxi", 0.3, ("sns_vec", "sns_vec_plus", "sns_rnd", "sns_rnd_plus"), 0.05, 150
    ),
    "replay_mat": ReplaySpec("nyc_taxi", 1.0, ("sns_mat",), 0.1, 15),
}


@dataclasses.dataclass
class Prepared:
    stream: Any
    spec: Any
    window_config: Any
    initial: Any  # ALSResult: .decomposition and .fitness


@dataclasses.dataclass
class MethodRun:
    method: str
    fitness_every: int
    n_events: int
    #: Replay wall time without the reference loops, raw and scaled.
    wall_s: float
    scaled_wall_s: float
    event_latency_s: list[float]
    update_s: list[float]
    fitness_call_s: list[float]
    #: Host-speed scale of each event and each fitness sample (hostspeed.py).
    event_scale: list[float]
    query_scale: list[float]
    fitness_series: list[float]
    factors: list[np.ndarray]
    final_fitness: float
    processor: Any
    model: Any


def prepare(
    dataset: str,
    scale: float,
    seed: int,
    generate: Callable | None = None,
    decompose: Callable | None = None,
) -> Prepared:
    from repro.als.als import decompose as als_decompose
    from repro.data.generators import generate_dataset
    from repro.stream.processor import ContinuousStreamProcessor
    from repro.stream.window import WindowConfig

    generate = generate or generate_dataset
    decompose = decompose or als_decompose
    stream, spec = generate(dataset, scale=scale, seed=seed)
    window_config = WindowConfig(
        mode_sizes=spec.mode_sizes,
        window_length=spec.window_length,
        period=spec.period,
    )
    processor = ContinuousStreamProcessor(stream, window_config)
    initial = decompose(
        processor.window.tensor,
        rank=spec.rank,
        n_iterations=ALS_ITERATIONS,
        seed=MODEL_SEED,
    )
    return Prepared(stream, spec, window_config, initial)


def replay_method(
    prepared: Prepared,
    method: str,
    budget_s: float,
    fitness_every: int,
    next_event: Callable = next,
    max_events: int | None = None,
) -> MethodRun:
    """Replay one variant until ``budget_s`` has passed at a fitness sample
    (and at least ``FITNESS_PREFIX_EVENTS`` events have been replayed).

    With ``max_events`` the replay also stops after that many events.
    """
    from repro.core.base import SNSConfig
    from repro.core.registry import create_algorithm
    from repro.stream.processor import ContinuousStreamProcessor

    spec = prepared.spec
    processor = ContinuousStreamProcessor(prepared.stream, prepared.window_config)
    model = create_algorithm(
        method,
        SNSConfig(rank=spec.rank, theta=spec.theta, eta=spec.eta, seed=MODEL_SEED),
    )
    model.initialize(processor.window, prepared.initial.decomposition)
    events = processor.events()
    clock = time.perf_counter
    latencies: list[float] = []
    updates: list[float] = []
    fitness_calls: list[float] = []
    series: list[float] = []
    event_scale: list[float] = []
    query_scale: list[float] = []
    wall = scaled_wall = 0.0
    n_events = 0
    deadline = clock() + budget_s
    loop_before = reference_loop_s()
    block_started = clock()
    stop = False
    while not stop:
        before = clock()
        try:
            _, delta = next_event(events)
        except StopIteration:
            stop = True
        else:
            fetched = clock()
            model.update(delta)
            done = clock()
            latencies.append(done - before)
            updates.append(done - fetched)
            n_events += 1
            if n_events % fitness_every == 0:
                series.append(model.fitness())
                sampled = clock()
                fitness_calls.append(sampled - done)
                stop = sampled >= deadline and n_events >= FITNESS_PREFIX_EVENTS
            stop = stop or n_events == max_events
        now = clock()
        if stop or now - block_started >= SCALE_BLOCK_S:
            # Close the block: scale its samples by the host speed measured
            # around it; the reference loops themselves are not timed.
            loop_after = reference_loop_s()
            scale = hostspeed.factor(loop_before, loop_after)
            wall += now - block_started
            scaled_wall += (now - block_started) * scale
            event_scale += [scale] * (len(latencies) - len(event_scale))
            query_scale += [scale] * (len(fitness_calls) - len(query_scale))
            loop_before = loop_after
            block_started = clock()
    events.close()
    return MethodRun(
        method=method,
        fitness_every=fitness_every,
        n_events=n_events,
        wall_s=wall,
        scaled_wall_s=scaled_wall,
        event_latency_s=latencies,
        update_s=updates,
        fitness_call_s=fitness_calls,
        event_scale=event_scale,
        query_scale=query_scale,
        fitness_series=series,
        factors=[factor.copy() for factor in model.factors],
        final_fitness=model.fitness(),
        processor=processor,
        model=model,
    )


def _same_bits(left: list[np.ndarray], right: list[np.ndarray]) -> bool:
    return len(left) == len(right) and all(
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(left, right)
    )


def check_against_run_method(prepared: Prepared, run: MethodRun, workdir) -> list[str]:
    """Mismatches between ``run`` and ``run_method`` on the same inputs."""
    from repro.experiments.runner import run_method
    from repro.stream.checkpoint import restore_run

    spec = prepared.spec
    reference = run_method(
        prepared.stream,
        prepared.window_config,
        run.method,
        prepared.initial.decomposition,
        rank=spec.rank,
        theta=spec.theta,
        eta=spec.eta,
        max_events=run.n_events,
        fitness_every=run.fitness_every,
        seed=MODEL_SEED,
        checkpoint_dir=workdir,
    )
    problems = []
    if reference.n_events != run.n_events:
        problems.append(f"{run.method}: run_method replayed {reference.n_events} events")
    if reference.fitness_series != run.fitness_series:
        problems.append(f"{run.method}: fitness series differs from run_method")
    if reference.final_fitness != run.final_fitness:
        problems.append(f"{run.method}: final fitness differs from run_method")
    _, model, _ = restore_run(workdir / run.method)
    if not _same_bits([np.asarray(f) for f in model.factors], run.factors):
        problems.append(f"{run.method}: final factors differ from run_method")
    return problems


def measure_restart(
    run: MethodRun, workdir, repeats: int
) -> tuple[list[Scaled], list[str]]:
    """Checkpoint + restore the replayed state; time it and compare bits."""
    from repro.stream.checkpoint import restore_run

    stretches: list[Scaled] = []
    problems: list[str] = []
    expected_window = dict(run.processor.window.tensor.items())
    for repeat in range(repeats):
        path = workdir / f"{run.method}-{repeat}"
        with Scaled() as stretch:
            run.processor.save_checkpoint(path, model=run.model)
            processor, model, _ = restore_run(path)
        stretches.append(stretch)
        if not _same_bits([np.asarray(f) for f in model.factors], run.factors):
            problems.append(f"{run.method}: restored factors differ")
        if dict(processor.window.tensor.items()) != expected_window:
            problems.append(f"{run.method}: restored window differs")
    return stretches, problems


def _replay_all(prepared, spec: ReplaySpec, seconds) -> list[MethodRun]:
    share = seconds / len(spec.methods)
    return [
        replay_method(prepared, method, share, spec.fitness_every)
        for method in spec.methods
    ]


def _check_all(prepared, runs, workdir) -> list[str]:
    problems: list[str] = []
    for run in runs:
        problems += check_against_run_method(prepared, run, workdir / "run_method")
    return problems


def _scaled(runs: list[MethodRun], field: str, scale_field: str) -> list[float]:
    return [
        value * scale
        for run in runs
        for value, scale in zip(getattr(run, field), getattr(run, scale_field))
    ]


def _blocked_percentile(samples: list[float], pct: float) -> float:
    """Median, over consecutive blocks of at least ``LATENCY_BLOCK`` samples
    that together cover every sample, of each block's percentile."""
    n_blocks = max(len(samples) // LATENCY_BLOCK, 1)
    edges = np.linspace(0, len(samples), n_blocks + 1).astype(int)
    return median(
        percentile(samples[start:end], pct) for start, end in zip(edges, edges[1:])
    )


def _events_per_s(runs: list[MethodRun], wall: str = "scaled_wall_s") -> float:
    return sum(run.n_events for run in runs) / sum(getattr(run, wall) for run in runs)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    spec = SPECS[workload]
    scale = spec.tiny_scale if tiny else spec.scale
    workdir = OUT_DIR / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            return _traced(workload, spec, scale, seed, seconds, workdir)
        return _untraced(spec, scale, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(spec, scale, seed, seconds, workdir) -> dict:
    setup: list[Scaled] = []
    for _ in range(SETUP_REPEATS):
        with Scaled() as stretch:
            prepared = prepare(spec.dataset, scale, seed)
        setup.append(stretch)
    runs = _replay_all(prepared, spec, seconds)
    restart: list[Scaled] = []
    problems: list[str] = []
    for method_run in runs:
        stretches, issues = measure_restart(
            method_run, workdir / "restart", RESTART_SAMPLES // len(runs)
        )
        restart += stretches
        problems += issues
    problems += _check_all(prepared, runs, workdir)

    latencies = _scaled(runs, "event_latency_s", "event_scale")
    updates = _scaled(runs, "update_s", "event_scale")
    queries = _scaled(runs, "fitness_call_s", "query_scale")
    initial_fitness = prepared.initial.fitness
    relative = [
        float(np.mean(r.fitness_series[:FITNESS_PREFIX_EVENTS // r.fitness_every]))
        / initial_fitness
        for r in runs
        if r.fitness_series
    ]
    events_per_s = _events_per_s(runs)
    metrics = {
        "setup_s": hostspeed.scaled_median(setup),
        "events_per_s": events_per_s,
        "event_latency_us_p50": percentile(latencies, 50) * 1e6,
        "event_latency_us_p99": _blocked_percentile(latencies, 99) * 1e6,
        "fitness_mean": float(np.mean(relative)),
        # Every record causes exactly W + 1 events over its life in the
        # window, so this is the record rate the replay sustains.
        "ingest_records_per_s": events_per_s
        / (prepared.window_config.window_length + 1),
        "commit_ms_p50": percentile(updates, 50) * 1e3,
        "commit_ms_p90": _blocked_percentile(updates, 90) * 1e3,
        "query_ms_p50": percentile(queries, 50) * 1e3,
        "query_ms_p90": percentile(queries, 90) * 1e3,
        "restart_s": hostspeed.scaled_median(restart),
        "peak_rss_mb": own_peak_rss_mb(),
    }
    raw_latencies = [x for r in runs for x in r.event_latency_s]
    raw = {
        "setup_s": hostspeed.raw_median(setup),
        "events_per_s": _events_per_s(runs, "wall_s"),
        "event_latency_us_p50": percentile(raw_latencies, 50) * 1e6,
        "restart_s": hostspeed.raw_median(restart),
    }
    n_events = sum(r.n_events for r in runs)
    return {
        "attempted": n_events + 3 * len(runs) + 2 * len(restart),
        "problems": problems,
        "metrics": metrics,
        "backend": runs[0].model.kernel_backend,
        "details": {
            "unscaled": raw,
            "host_speed_scale_median": median(
                x for r in runs for x in r.event_scale
            ),
            "events": {r.method: r.n_events for r in runs},
            "window_nnz": {r.method: r.processor.window.nnz for r in runs},
            "initial_fitness": initial_fitness,
            "samples": {
                "event_latency": len(latencies),
                "commit": len(updates),
                "query": len(queries),
                "setup": len(setup),
                "restart": len(restart),
            },
        },
    }


def _traced(workload, spec, scale, seed, seconds, workdir) -> dict:
    """Untraced and traced replays of each variant, back to back.

    The traced replay covers exactly the events of the untraced one, so
    the throughput ratio of the two is the tracing overhead, and the
    traced results must equal the untraced ones bit for bit.
    """
    from tracing import LayerTracer, SpanRecorder

    from repro.als.als import decompose
    from repro.data.generators import generate_dataset

    share = seconds / 2.0 / len(spec.methods)
    plain = prepare(spec.dataset, scale, seed)
    recorder = SpanRecorder()
    tracer = LayerTracer(recorder)
    tracer.install()
    try:
        traced = prepare(
            spec.dataset,
            scale,
            seed,
            generate=recorder.wrap(generate_dataset, "data.generate"),
            decompose=recorder.wrap(decompose, "als.decompose"),
        )
    finally:
        tracer.uninstall()
    next_event = recorder.wrap(next, "stream.next_event")
    plain_runs: list[MethodRun] = []
    traced_runs: list[MethodRun] = []
    for method in spec.methods:
        plain_runs.append(replay_method(plain, method, share, spec.fitness_every))
        tracer.install()
        try:
            recorder.start_window()
            traced_runs.append(
                replay_method(
                    traced,
                    method,
                    float("inf"),
                    spec.fitness_every,
                    next_event,
                    max_events=plain_runs[-1].n_events,
                )
            )
            recorder.stop_window()
        finally:
            tracer.uninstall()
    problems = _check_all(plain, plain_runs, workdir)
    for plain_run, traced_run in zip(plain_runs, traced_runs):
        if not (
            plain_run.fitness_series == traced_run.fitness_series
            and _same_bits(plain_run.factors, traced_run.factors)
        ):
            problems.append(f"{plain_run.method}: traced replay differs from untraced")
    recorder.dump(OUT_DIR / f"spans-{workload}.npz")

    summary = recorder.summary()
    values = layer_metrics(summary)
    values["tensor.window_nnz"] = float(
        median([r.processor.window.nnz for r in traced_runs])
    )
    plain_rate = _events_per_s(plain_runs)
    traced_rate = _events_per_s(traced_runs)
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    n_events = sum(r.n_events for r in plain_runs + traced_runs)
    return {
        "attempted": n_events + 4 * len(plain_runs),
        "problems": problems,
        "layers": values,
        "backend": traced_runs[0].model.kernel_backend,
        "details": {
            "untraced_events_per_s": plain_rate,
            "traced_events_per_s": traced_rate,
            "traced_recorded_s": summary["recorded_s"],
        },
    }
