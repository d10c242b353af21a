"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload replay_rows --seed 1 --seconds 15 --trace 0

Workloads:

* ``replay_rows`` -- per-event replay of SNS-VEC, SNS-VEC+, SNS-RND and
  SNS-RND+ on the nyc_taxi stream at scale 0.3 (row kernels, sampling).
* ``replay_mat`` -- the same loop with SNS-MAT at scale 1.0 (full
  MTTKRP over the window every event: state size).
* ``serve_tcp`` -- ``repro serve`` over loopback TCP with eight tenants,
  count-triggered checkpoints, and a restart that must recover every
  tenant bit for bit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass of the same workload and prints the per-layer
metrics of the traced pass plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance and sample counts.  Every run checks the program's outputs
(see each workload module); a mismatch makes ``correct`` false and counts
as a failed operation.

End-to-end metrics.  The benchmark contract has every workload report
every metric, so each has a meaning on both kinds of workload:

========================  =============================================  ============================================
metric                    replay_rows / replay_mat                       serve_tcp
========================  =============================================  ============================================
setup_s                   generate + bootstrap + ALS init (median of 3)  launch until every tenant is live (median 5)
events_per_s              events / replay wall (fitness samples incl.)   server-applied events / rounds wall
event_latency_us_p50/p99  next() on the processor until update returns   ingest sent until flush ack, per event
fitness_mean              mean fitness, first 1,500 events / ALS init   fitness, rounds 50/100/150 / offline ALS
ingest_records_per_s      events_per_s / (W + 1) (events per record)     records acknowledged / rounds wall
commit_ms_p50/p90         one model.update call                          ingest sent until that tenant's flush ack
query_ms_p50/p90          one fitness sample (every 150; SNS-MAT 15)     fitness / factors / anomalies round trip
restart_s                 checkpoint + restore of processor and model    relaunch until every tenant is bit-identical
peak_rss_mb               this process                                   the server processes
========================  =============================================  ============================================

Every timing is scaled by the host's speed at the time it was taken: the
benchmark times a fixed reference loop of its own before and after each
stretch of measured work (every 50 ms of replay, every serve round, each
set-up and restart) and reports the time it would have taken at the host
speed where that loop takes ``hostspeed.REFERENCE_S`` (see
``e2ebench/hostspeed.py``).  On a shared VM the CPU speed swings by up to
1.7x within seconds; scaling takes that swing out while a change to the
package still moves the figures by the ratio it moves the work.  The
unscaled figures are in the details line (``"unscaled"``), next to the
median scale (``"host_speed_scale_median"``).

Tail percentiles of per-event replay samples (``event_latency_us_p99``,
``commit_ms_p90``) are the median over blocks of at least 1,000
consecutive events of each block's percentile; every other percentile is taken over all of
the run's samples (nearest rank).  ``fitness_mean`` covers a fixed prefix
of the stream, so it does not depend on how fast the machine is.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOADS = ("replay_rows", "replay_mat", "serve_tcp")

END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("event_latency_us_p50", "us"),
    ("event_latency_us_p99", "us"),
    ("fitness_mean", "ratio"),
    ("ingest_records_per_s", "rec/s"),
    ("commit_ms_p50", "ms"),
    ("commit_ms_p90", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("restart_s", "s"),
    ("peak_rss_mb", "MB"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="shrink the workload to seconds-long smoke size",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        common.use_checkout_package()
    except (common.BenchmarkSetupError, ImportError) as error:
        print(f"e2ebench: cannot import the package under test: {error}", file=sys.stderr)
        return 2
    if args.workload == "serve_tcp":
        import serve as workload_module
    else:
        import replay as workload_module
    result = workload_module.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    problems = result["problems"]
    failures = result.get("failures", [])
    for line in problems + failures:
        print(f"e2ebench: FAILED {line}", file=sys.stderr)
    if args.trace:
        from layers import PER_LAYER

        metrics = {
            name: common.metric(result["layers"][name], unit)
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            name: common.metric(result["metrics"][name], unit)
            for name, unit in END_TO_END
        }
    report = {
        "provenance": common.provenance(
            args.workload, args.seed, bool(args.trace), result["backend"]
        ),
        "details": result["details"],
    }
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": int(result["attempted"]),
                "failed": len(problems) + len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
