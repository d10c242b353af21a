"""Span recording for the traced run, from outside the package.

Nothing under ``src/`` is instrumented.  Instead :class:`LayerTracer`
replaces public functions and methods of each layer with thin wrappers
that record a span (name, start, end, parent) around the original call,
and registers a kernel backend whose five kernels wrap the numpy
reference.  :meth:`LayerTracer.uninstall` puts every original back.

Spans are kept in memory, in one set of flat arrays per thread (a span's
parent is the span open on the same thread when it started), and are
written out with :meth:`SpanRecorder.dump` when the run ends.  A span's
*self* time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import json
import os
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

TRACED_BACKEND = "traced-numpy"


class _ThreadSpans:
    """Flat span arrays of one thread plus its stack of open spans."""

    def __init__(self) -> None:
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: list[int] = []

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(names, parents, durations, self_times, starts)`` of closed spans."""
        names = np.array(self.names, dtype=np.int32)
        parents = np.array(self.parents, dtype=np.int32)
        starts = np.array(self.starts, dtype=np.float64)
        ends = np.array(self.ends, dtype=np.float64)
        n = min(len(names), len(parents), len(starts), len(ends))
        names, parents, starts, ends = names[:n], parents[:n], starts[:n], ends[:n]
        closed = ends > 0.0
        durations = np.where(closed, ends - starts, 0.0)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=n
        )[:n]
        return names, parents, durations, durations - child_time, starts


class SpanRecorder:
    """In-memory spans and counters, recorded from any number of threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: dict[str, int] = {}
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self.counters: dict[str, float] = {}
        #: ``[start, end]`` perf_counter() intervals the run was recorded
        #: over; the unattributed remainder is measured within them.
        self.windows: list[list[float]] = []

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._ids.setdefault(name, len(self._ids))

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
            self._local.spans = spans
        return spans

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with every call recorded as a span called ``name``."""
        name_id = self.name_id(name)

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            spans = self._spans()
            index = spans.open(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                spans.close(index)

        return traced

    def wrap_method_per_variant(self, method: Callable, prefix: str) -> Callable:
        """A method wrapper whose span name ends in the receiver's ``name``."""
        ids: dict[str, int] = {}

        @functools.wraps(method)
        def traced(receiver: Any, *args: Any, **kwargs: Any) -> Any:
            variant = receiver.name
            name_id = ids.get(variant)
            if name_id is None:
                name_id = ids.setdefault(variant, self.name_id(prefix + variant))
            spans = self._spans()
            index = spans.open(name_id)
            try:
                return method(receiver, *args, **kwargs)
            finally:
                spans.close(index)

        return traced

    def start_window(self) -> None:
        self.windows.append([time.perf_counter(), float("inf")])

    def stop_window(self) -> None:
        self.windows[-1][1] = time.perf_counter()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[list[str], list[tuple[np.ndarray, ...]]]:
        with self._lock:
            names = [None] * len(self._ids)
            for name, name_id in self._ids.items():
                names[name_id] = name
            threads = list(self._threads)
        return names, [spans.arrays() for spans in threads]

    def summary(self) -> dict[str, Any]:
        """Per-name self and total seconds, call counts and median self time.

        ``unattributed_s`` is the part of the recording windows during
        which no span was open on any thread.
        """
        names, threads = self._snapshot()
        width = len(names)
        self_s = np.zeros(width)
        total_s = np.zeros(width)
        calls = np.zeros(width, dtype=np.int64)
        per_name_self: list[list[np.ndarray]] = [[] for _ in names]
        roots: list[tuple[float, float]] = []
        for name_ids, parents, durations, self_times, starts in threads:
            self_s += np.bincount(name_ids, weights=self_times, minlength=width)
            total_s += np.bincount(name_ids, weights=durations, minlength=width)
            calls += np.bincount(name_ids, minlength=width)
            for name_id in np.unique(name_ids):
                per_name_self[name_id].append(self_times[name_ids == name_id])
            root = parents < 0
            roots.extend(zip(starts[root], starts[root] + durations[root]))
        roots.sort()
        recorded = covered = 0.0
        for window_start, window_end in self.windows:
            recorded += window_end - window_start
            cursor = window_start
            for start, stop in roots:
                start, stop = max(start, cursor), min(stop, window_end)
                if stop > start:
                    covered += stop - start
                    cursor = stop
        return {
            "self_s": {name: float(self_s[i]) for i, name in enumerate(names)},
            "total_s": {name: float(total_s[i]) for i, name in enumerate(names)},
            "n": {name: int(calls[i]) for i, name in enumerate(names)},
            "self_p50_s": {
                name: float(np.median(np.concatenate(parts)))
                for name, parts in zip(names, per_name_self)
                if parts
            },
            "counters": dict(self.counters),
            "recorded_s": recorded,
            "unattributed_s": recorded - covered,
            "n_spans": int(calls.sum()),
        }

    def dump(self, path: Path) -> None:
        """Write every span (thread, name, parent, start, end) to ``path``."""
        names, _ = self._snapshot()
        with self._lock:
            threads = list(self._threads)
        columns: dict[str, list[np.ndarray]] = {
            "thread": [], "name": [], "parent": [], "start": [], "end": []
        }
        for position, spans in enumerate(threads):
            n = len(spans.ends)
            columns["thread"].append(np.full(n, position, dtype=np.int32))
            columns["name"].append(np.array(spans.names, dtype=np.int32)[:n])
            columns["parent"].append(np.array(spans.parents, dtype=np.int32)[:n])
            columns["start"].append(np.array(spans.starts, dtype=np.float64)[:n])
            columns["end"].append(np.array(spans.ends, dtype=np.float64)[:n])
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(names)),
            **{
                key: np.concatenate(parts) if parts else np.empty(0)
                for key, parts in columns.items()
            },
        )


def _directory_bytes(path: Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for file_name in files:
            try:
                total += os.path.getsize(os.path.join(root, file_name))
            except OSError:
                continue
    return total


class LayerTracer:
    """Installs span wrappers around the public calls of each layer."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._originals: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _span(self, owner: Any, attribute: str, name: str) -> None:
        self._patch(
            owner, attribute, self.recorder.wrap(getattr(owner, attribute), name)
        )

    def install(self, service: bool = False) -> None:
        """Wrap the engine and model layers, and with ``service`` the server."""
        from repro.core.base import ContinuousCPD
        from repro.core.sampling import SliceSampler
        from repro.kernels.api import KERNEL_NAMES, KernelBackend
        from repro.kernels.registry import (
            load_backend,
            register_backend,
            set_default_backend,
        )
        from repro.stream.processor import ContinuousStreamProcessor
        from repro.stream.window import TensorWindow
        from repro.tensor.sparse import SparseTensor

        recorder = self.recorder
        reference = load_backend("numpy")
        traced = KernelBackend(
            name=TRACED_BACKEND,
            description="numpy reference kernels, each call recorded as a span",
            **{
                kernel: recorder.wrap(getattr(reference, kernel), f"kernels.{kernel}")
                for kernel in KERNEL_NAMES
            },
        )
        register_backend(TRACED_BACKEND, lambda: traced, replace=True)
        set_default_backend(TRACED_BACKEND)

        self._span(SparseTensor, "to_coo_arrays", "tensor.to_coo")
        self._span(SparseTensor, "mode_slice_arrays", "tensor.slice")
        for method in ("apply_delta", "apply_entry_changes", "apply_batch"):
            self._span(TensorWindow, method, "stream.window_apply")
        self._span(SliceSampler, "sample", "core.sample")
        self._span(ContinuousCPD, "fitness", "core.fitness")
        for method in ("update", "update_batch"):
            self._patch(
                ContinuousCPD,
                method,
                recorder.wrap_method_per_variant(
                    getattr(ContinuousCPD, method), "core.update."
                ),
            )
        self._span(ContinuousStreamProcessor, "extend", "stream.extend")
        iter_batches = ContinuousStreamProcessor.iter_batches

        @functools.wraps(iter_batches)
        def counted_batches(processor, *args, **kwargs):
            inner = iter_batches(processor, *args, **kwargs)
            try:
                for batch in inner:
                    recorder.count("stream.batches")
                    yield batch
            finally:
                inner.close()

        self._patch(ContinuousStreamProcessor, "iter_batches", counted_batches)
        if service:
            self._install_service()

    def _install_service(self) -> None:
        from repro.service import server, session
        from repro.service.manager import ServiceManager
        from repro.service.session import StreamSession

        recorder = self.recorder
        self._span(StreamSession, "apply_chunk", "service.apply")
        for query in ("factors", "fitness", "anomalies"):
            self._span(StreamSession, query, "service.query")
        self._span(ServiceManager, "recover", "service.recover")
        for codec in ("decode_request", "encode_message", "parse_records"):
            self._span(server, codec, "service.codec")
        self._span(session, "score_batch", "anomaly.score")
        self._span(session, "decompose", "als.decompose")
        save = recorder.wrap(StreamSession.save, "checkpoint.save")

        @functools.wraps(save)
        def measured_save(stream_session, directory):
            path = save(stream_session, directory)
            recorder.count("checkpoint.bytes", _directory_bytes(Path(path)))
            return path

        self._patch(StreamSession, "save", measured_save)

    def uninstall(self) -> None:
        from repro.kernels.registry import set_default_backend

        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
        set_default_backend(None)
