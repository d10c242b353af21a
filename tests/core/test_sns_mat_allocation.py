"""Allocation budget of a warm SNS-MAT update.

Every SNS-MAT event runs a full ALS sweep over the window: one MTTKRP per
mode, each touching ``nnz x R`` floats.  The sweep works in reused
scratch buffers (:mod:`repro.kernels.scratch`), so once they are warm an
update must not allocate even one ``nnz x R`` float64 array.  Fresh
temporaries for the gathers, the product and the scatter cells cost about
3.5 times that, and the page faults that come with them dominated the
sweep.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core import SNSConfig
from repro.core.sns_mat import SNSMat
from repro.data.generators import generate_synthetic_stream
from repro.stream.processor import ContinuousStreamProcessor
from repro.stream.window import WindowConfig

RANK = 20
MODE_SIZES = (60, 50)


def test_warm_update_allocates_less_than_one_window_product():
    stream = generate_synthetic_stream(
        mode_sizes=MODE_SIZES,
        rank=4,
        n_records=12_000,
        period=10.0,
        records_per_period=2_500.0,
        seed=3,
    )
    processor = ContinuousStreamProcessor(
        stream, WindowConfig(mode_sizes=MODE_SIZES, window_length=5, period=10.0)
    )
    rng = np.random.default_rng(0)
    model = SNSMat(SNSConfig(rank=RANK))
    model.initialize(
        processor.window, [rng.random((n, RANK)) for n in processor.window.shape]
    )
    peaks: list[tuple[int, int]] = []
    for step, (_event, delta) in enumerate(processor.events(max_events=25)):
        if step < 5:  # warm-up: the scratch buffers reach their size
            model.update(delta)
            continue
        tracemalloc.start()
        try:
            model.update(delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((peak, processor.window.nnz))
    assert min(nnz for _peak, nnz in peaks) >= 2_000
    for peak, nnz in peaks:
        assert peak < nnz * RANK * 8, (peak, nnz)
