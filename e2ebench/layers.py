"""The per-layer metrics of the traced run and how spans map onto them.

Every ``*_s`` metric is the *self* time of the named spans (the span's
duration minus its child spans), summed over the traced part of the run;
``*_n`` is the number of such spans.
"""

from __future__ import annotations

from typing import Any

KERNELS = (
    "mttkrp_coo",
    "mttkrp_rows",
    "sampled_residual",
    "reconstruct_coords",
    "solve_regularized",
)
VARIANTS = ("sns_mat", "sns_vec", "sns_vec_plus", "sns_rnd", "sns_rnd_plus")

#: (metric name, unit) in report order; all are "lower is better".
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"kernels.{kernel}_{kind}", unit)
      for kernel in KERNELS for kind, unit in (("s", "s"), ("n", "count"))),
    ("tensor.to_coo_s", "s"),
    ("tensor.to_coo_n", "count"),
    ("tensor.slice_s", "s"),
    ("tensor.slice_n", "count"),
    ("tensor.window_nnz", "count"),
    *((f"core.update_self_s.{variant}", "s") for variant in VARIANTS),
    ("core.sample_s", "s"),
    ("core.sample_n", "count"),
    ("core.fitness_s", "s"),
    ("core.fitness_n", "count"),
    ("stream.next_event_s", "s"),
    ("stream.window_apply_s", "s"),
    ("stream.batches_n", "count"),
    ("stream.extend_s", "s"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.save_n", "count"),
    ("checkpoint.bytes", "bytes"),
    ("service.recover_s", "s"),
    ("service.apply_s", "s"),
    ("service.apply_overlap", "ratio"),
    ("service.apply_us_per_event", "us"),
    ("service.codec_s", "s"),
    ("service.query_self_ms_p50", "ms"),
    ("service.flush_wait_ms_p50", "ms"),
    ("service.overloaded_n", "count"),
    ("anomaly.score_s", "s"),
    ("als.decompose_s", "s"),
    ("data.generate_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_n", "count"),
)

#: Spans reported as ``<span>_s`` (self seconds) and, where listed in
#: PER_LAYER, ``<span>_n`` (number of spans).
_SPANS = (
    *(f"kernels.{kernel}" for kernel in KERNELS),
    "tensor.to_coo",
    "tensor.slice",
    "core.sample",
    "core.fitness",
    "stream.next_event",
    "stream.window_apply",
    "stream.extend",
    "checkpoint.save",
    "service.recover",
    "service.apply",
    "service.codec",
    "anomaly.score",
    "als.decompose",
    "data.generate",
)


def layer_metrics(summary: dict[str, Any]) -> dict[str, float]:
    """Per-layer values from a :meth:`SpanRecorder.summary` (absent -> 0)."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span in _SPANS:
        values[f"{span}_s"] += summary["self_s"].get(span, 0.0)
        if f"{span}_n" in values:
            values[f"{span}_n"] += summary["n"].get(span, 0)
    for variant in VARIANTS:
        values[f"core.update_self_s.{variant}"] += summary["self_s"].get(
            f"core.update.{variant}", 0.0
        )
    counters = summary["counters"]
    values["stream.batches_n"] += counters.get("stream.batches", 0)
    values["checkpoint.bytes"] += counters.get("checkpoint.bytes", 0)
    values["trace.unattributed_s"] += summary["unattributed_s"]
    values["trace.spans_n"] += summary["n_spans"]
    return values


def merge_layer_metrics(*parts: dict[str, float]) -> dict[str, float]:
    """Sum per-layer values recorded in several processes."""
    merged = {name: 0.0 for name, _ in PER_LAYER}
    for part in parts:
        for name, value in part.items():
            merged[name] += value
    return merged
