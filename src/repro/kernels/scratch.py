"""Per-thread scratch buffers for the whole-window gathers.

The full MTTKRP (:func:`repro.kernels.numpy_backend.mttkrp_coo`) and the
reconstruction gather of the fitness metric
(:meth:`repro.tensor.kruskal.KruskalTensor.values_at`) each need ``nnz x R``
temporaries: gathered factor rows, their running product and the flat
scatter cells.  Allocating them fresh on every call costs more than the
arithmetic, because memory that large is handed back to the operating
system between calls and page-faulted in again on the next one.  Both
callers instead work in the buffers kept here.

Contract:

* The buffers live in a :class:`threading.local`, so every thread (the
  service runs model work on executor threads) has its own set and no
  locking is needed.
* They grow geometrically to the largest ``nnz`` seen and are re-made
  when the rank changes; they never shrink.
* A caller never returns a view of them.  ``np.bincount`` and ``.sum``
  return fresh arrays, which is what the callers hand back.
* :func:`take_rows` gathers with ``np.take(..., mode="wrap")``, which
  writes straight into a buffer, while ``mode="raise"`` would copy
  through a temporary.  It checks the index range first, so it accepts
  exactly the indices that ``mode="raise"`` and fancy indexing accept.
"""

from __future__ import annotations

import threading

import numpy as np


class _Buffers(threading.local):
    """One thread's product, gather and cell buffers, all ``(capacity, rank)``."""

    def __init__(self) -> None:
        self.product = np.empty((0, 0), dtype=np.float64)
        self.gather = np.empty((0, 0), dtype=np.float64)
        self.cells = np.empty((0, 0), dtype=np.int64)


_BUFFERS = _Buffers()


def scratch(n: int, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's ``(n, rank)`` product, gather and int64 cell buffers.

    The three arrays are C-contiguous views of buffers reused by the next
    call on the same thread, so their contents must not outlive the caller.
    """
    buffers = _BUFFERS
    capacity, held_rank = buffers.product.shape
    if rank != held_rank or n > capacity:
        capacity = max(n, 2 * capacity) if rank == held_rank else n
        buffers.product = np.empty((capacity, rank), dtype=np.float64)
        buffers.gather = np.empty((capacity, rank), dtype=np.float64)
        buffers.cells = np.empty((capacity, rank), dtype=np.int64)
    return buffers.product[:n], buffers.gather[:n], buffers.cells[:n]


def take_rows(factor: np.ndarray, column: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``factor[column, :]`` written into ``out`` (and returned).

    Raises ``IndexError`` unless every index lies in ``[-n, n)`` for the
    ``n`` rows of ``factor`` — exactly the indices fancy indexing accepts —
    so ``mode="wrap"`` only ever resolves negative indices the way fancy
    indexing does.
    """
    size = factor.shape[0]
    if column.size and (column.min() < -size or column.max() >= size):
        raise IndexError(f"index out of bounds for axis 0 with size {size}")
    return np.take(factor, column, axis=0, out=out, mode="wrap")
