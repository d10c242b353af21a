"""Shared machinery of the randomised SliceNStitch variants (SNS_RND / SNS+_RND).

Both randomised variants follow the same Algorithm 3 outline — snapshot the
Gram matrices at the start of every event, then update each affected row —
and share the θ-bounded sampled approximation of the window: ``X ≈ X̃ + X̄``,
where ``X̃`` is the reconstruction from the rows as they were when the event
started and ``X̄`` holds the residuals at θ sampled coordinates plus the
explicit ``ΔX`` entries.  :class:`RandomizedCPD` centralises that machinery:

* previous-Gram maintenance ``A_prev(m)' A(m)`` (Eq. 17 / Eq. 26),
* the per-event core :meth:`_process_event` — affected rows, start-of-event
  row snapshots (bucketed by mode for the reconstruction), the event's
  exclusion set built once, and the time-mode matrices shared by the (up to
  two) time rows of the event,
* the sampling dispatch — ``SNSConfig.sampling = "vectorized"`` draws the θ
  coordinates in bulk as an ``(n, M)`` int64 array consumed directly by the
  fused residual kernel (no per-draw Python tuples), ``"legacy"`` reproduces
  the original tuple-at-a-time draw stream and float operations bit-for-bit,
* the batched engine entry point :meth:`update_batch`, which walks the
  batch's raw entry groups (no per-event ``Delta`` objects), interleaves the
  window mutation per event, and reuses per-batch prev-Gram snapshot buffers
  — so batched results are bit-identical to the per-event path.

Subclasses implement :meth:`_update_row` with their specific update rule
(least squares for SNS_RND, clipped coordinate descent for SNS+_RND).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.base import ContinuousCPD, SNSConfig
from repro.core.sampling import SliceSampler, sample_slice_coordinates
from repro.exceptions import ConfigurationError
from repro.kernels.api import flatten_mode_overrides
from repro.kernels.registry import numpy_backend
from repro.stream.deltas import Delta, DeltaBatch

try:  # SciPy is optional: the direct LAPACK wrapper skips numpy.linalg's
    # per-call type/shape machinery for SNSRndPlus's triangular sweep (the
    # regularized solve itself lives in repro.kernels).
    from scipy.linalg.lapack import dtrtrs as _lapack_trtrs
except ImportError:  # pragma: no cover - exercised only without scipy
    _lapack_trtrs = None

Coordinate = tuple[int, ...]

#: One event's entry changes: ``((coordinate, value), ...)``, at most two.
Entries = tuple[tuple[Coordinate, float], ...]


class RandomizedCPD(ContinuousCPD):
    """Base class of the θ-bounded randomised variants."""

    def __init__(self, config: SNSConfig) -> None:
        super().__init__(config)
        if config.sampling == "legacy":
            # The legacy sampler's contract is bit-for-bit reproduction of
            # the original draw stream *and* float operations; only the
            # numpy reference honours that, so it overrides any configured
            # backend for every kernel this model touches.
            self._kernels = numpy_backend()

    def _post_initialize(self) -> None:
        # U(m) = A_prev(m)' A(m); refreshed to the plain Grams at every event.
        # The snapshot buffers are reused (np.copyto) instead of reallocated.
        self._prev_grams = [gram.copy() for gram in self._grams]
        # Per-mode slice metadata amortised across every sampled row update.
        self._slice_sampler = SliceSampler(self.window.shape)
        # Scratch for the prev-Gram rank-one update (Eq. 17 / Eq. 26) and
        # for the regularized system of _solve_regularized.
        rank = self.rank
        self._prev_gram_scratch = np.empty((rank, rank))
        self._row_diff_scratch = np.empty(rank)
        self._solve_scratch = np.empty((rank, rank))
        # Per-mode tuple of the other modes, for the lean Hadamard helper.
        order = self.order
        self._other_modes = tuple(
            tuple(n for n in range(order) if n != mode) for mode in range(order)
        )

    @property
    def prev_grams(self) -> list[np.ndarray]:
        """Maintained ``A_prev(m)' A(m)`` matrices (Eq. 17 / Eq. 26)."""
        return self._prev_grams

    def _aux_state(self):
        # Strictly, prev-Grams are re-snapshotted from the Grams at the start
        # of every event before being read — but persisting them keeps the
        # restored object state identical to the saved one, not just
        # observationally equivalent.
        return {"prev_grams": [gram.copy() for gram in self._prev_grams]}

    def _load_aux_state(self, aux) -> None:
        prev_grams = aux.get("prev_grams")
        if prev_grams is None:
            return  # _post_initialize already reset them from the Grams
        rank = self.rank
        restored = [
            np.array(gram, dtype=np.float64, copy=True) for gram in prev_grams
        ]
        if len(restored) != self.order or any(
            gram.shape != (rank, rank) for gram in restored
        ):
            raise ConfigurationError(
                "checkpointed prev-Gram matrices do not match the factor layout"
            )
        self._prev_grams = restored

    # ------------------------------------------------------------------
    # Algorithm 3 outline
    # ------------------------------------------------------------------
    def _update(self, delta: Delta) -> None:
        # Line 1 of Algorithm 3: snapshot the Grams at the start of the event.
        for buffer, gram in zip(self._prev_grams, self._grams):
            np.copyto(buffer, gram)
        self._process_event(delta.entries, delta.categorical_indices)

    def _update_batch(self, batch: DeltaBatch) -> None:
        """Exact batched path, exactly equivalent to the per-event path.

        Events are consumed as raw entry groups
        (:meth:`DeltaBatch.entry_groups`) — no ``WindowEvent`` / ``Delta``
        objects are materialised — and the window mutation is interleaved per
        event so every update rule observes the window as of *its* event.
        All per-event hoisting lives in :meth:`_process_event` and is shared
        with the per-event path, so batched and sequential execution perform
        identical float operations.
        """
        window = self.window
        prev_grams = self._prev_grams
        grams = self._grams
        trusted = batch.trusted
        for record, _step, entries in batch.entry_groups():
            window.apply_entry_changes(entries, trusted=trusted)
            for buffer, gram in zip(prev_grams, grams):
                np.copyto(buffer, gram)
            self._process_event(entries, record.indices)
            self._n_updates += 1

    def _process_event(
        self,
        entries: Entries,
        categorical_indices: tuple[int, ...],
    ) -> None:
        """Update every row affected by one event (lines 2-4 of Algorithm 3).

        Shared per-event setup: the affected-row list (time rows first, as
        in ``_affected_rows``), the start-of-event row snapshots, the
        exclusion set (the event's coordinates), the per-row degrees, and
        the time-mode matrices, computed once and shared by the (up to two)
        time rows of the event — work that provably cannot change between
        those rows, so sharing changes no results.
        """
        factors = self._factors
        tensor = self.window.tensor
        time_mode = self.time_mode
        affected: list[tuple[int, int]] = []
        seen_time: set[int] = set()
        for coordinate, _value in entries:
            time_index = coordinate[-1]
            if time_index not in seen_time:
                affected.append((time_mode, time_index))
                seen_time.add(time_index)
        for mode, index in enumerate(categorical_indices):
            affected.append((mode, index))
        prev_rows: dict[tuple[int, int], np.ndarray] = {
            (mode, index): factors[mode][index, :].copy()
            for mode, index in affected
        }
        degrees = [tensor.degree(mode, index) for mode, index in affected]
        delta_coordinates = [coordinate for coordinate, _value in entries]
        # Time-mode matrices shared by the (up to two) time rows of this
        # event; time rows come first in `affected`, so the cache is never
        # read after a categorical update invalidated it.
        time_shared: dict[str, np.ndarray] = {}
        # Rows already updated this event, bucketed by mode.  The X̃
        # reconstruction must use start-of-event rows, but the live factors
        # only differ from those on rows updated *earlier in this event* —
        # an override for a not-yet-updated row would overwrite gathered
        # rows with identical values.  Growing the bucket as rows commit
        # therefore changes nothing and lets early rows skip the override
        # scan entirely.
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]] = {}
        for position, (mode, index) in enumerate(affected):
            self._update_row(
                mode,
                index,
                degrees[position],
                entries,
                prev_rows,
                overrides_by_mode,
                delta_coordinates,
                time_shared if mode == time_mode else None,
            )
            overrides_by_mode.setdefault(mode, []).append(
                (index, prev_rows[(mode, index)])
            )

    @abc.abstractmethod
    def _update_row(
        self,
        mode: int,
        index: int,
        degree: int,
        entries: Entries,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        delta_coordinates: list[Coordinate],
        time_shared: dict[str, np.ndarray] | None,
    ) -> None:
        """Variant-specific row update (Algorithm 4 / Algorithm 5)."""

    # ------------------------------------------------------------------
    # Shared update helpers
    # ------------------------------------------------------------------
    def _commit_row(
        self, mode: int, index: int, old_row: np.ndarray, new_row: np.ndarray
    ) -> None:
        """Write the updated row and maintain both Gram products.

        Applies Eq. (13)/(24)-(25) — a deliberate inline of
        :meth:`ContinuousCPD._update_gram` (a method call per row is
        measurable on this hot path; keep the two in sync) — and the
        previous-Gram update Eq. (17)/(26) as a buffered form of
        ``prev_grams[mode] += np.outer(old_row, new_row - old_row)``.
        Same float operations as the seed in both cases, no temporaries.
        """
        self._factors[mode][index, :] = new_row
        old_column = old_row[:, None]
        scratch_new = self._gram_scratch_new
        scratch_old = self._gram_scratch_old
        np.multiply(new_row[:, None], new_row[None, :], out=scratch_new)
        np.multiply(old_column, old_row[None, :], out=scratch_old)
        np.subtract(scratch_new, scratch_old, out=scratch_new)
        self._grams[mode] += scratch_new
        np.subtract(new_row, old_row, out=self._row_diff_scratch)
        np.multiply(
            old_column,
            self._row_diff_scratch[None, :],
            out=self._prev_gram_scratch,
        )
        self._prev_grams[mode] += self._prev_gram_scratch

    def _hadamard_fast(
        self, mode: int, source: list[np.ndarray] | None = None
    ) -> np.ndarray:
        """``*_{n != mode} source[n]`` via precomputed other-mode indices.

        Same float operations as :meth:`_hadamard_of_grams` (identical
        results), minus the per-call list comprehension — this runs once or
        twice per row update on the randomised hot path.
        """
        grams = self._grams if source is None else source
        others = self._other_modes[mode]
        if len(others) == 1:
            return grams[others[0]]
        if len(others) == 2:
            return grams[others[0]] * grams[others[1]]
        product = grams[others[0]] * grams[others[1]]
        for other in others[2:]:
            product *= grams[other]
        return product

    def _solve_regularized(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """``rhs @ (matrix + ridge)^-1`` for symmetric PSD ``matrix`` via one solve.

        The vectorised path's replacement for materialising the inverse: a
        Cholesky solve (the Hadamard product of Gram matrices is PSD by the
        Schur product theorem, and the ridge makes it definite) through the
        configured kernel backend; non-definite / singular systems fall back
        to the Moore-Penrose pseudo-inverse exactly like :meth:`_pinv`.
        ``rhs`` may also be a ``(B, R)`` batch of rows solved against one
        shared matrix.
        """
        return self._kernels.solve_regularized(
            matrix, rhs, self._ridge, self._solve_scratch
        )

    # ------------------------------------------------------------------
    # θ-bounded sampling (Algorithm 4 line 12 / Algorithm 5 line 9)
    # ------------------------------------------------------------------
    def _sampled_contribution(
        self,
        mode: int,
        index: int,
        entries: Entries,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        delta_coordinates: list[Coordinate],
    ) -> np.ndarray:
        """``sum_J (x̄_J + Δx_J) * prod_{n != m} a(n)_{j_n k}`` (Eqs. 16 and 23).

        The sampled residuals use the window as it is *now* (``X + ΔX``)
        against the reconstruction ``X̃`` built from the rows at the start of
        the event; the event's own entries are excluded from the sample and
        added explicitly.
        """
        factors = self._factors
        if self._config.sampling == "legacy":
            contribution = self._legacy_sampled_residual(
                mode, index, delta_coordinates, prev_rows
            )
        else:
            samples = self._slice_sampler.sample(
                mode, index, self._config.theta, self._rng, exclude=delta_coordinates
            )
            contribution = self._vectorized_sampled_residual(
                mode, index, samples, prev_rows, overrides_by_mode, factors
            )
        for coordinate, value in entries:
            if coordinate[mode] != index:
                continue
            product: np.ndarray | None = None
            for other_mode, factor in enumerate(factors):
                if other_mode == mode:
                    continue
                row = factor[coordinate[other_mode], :]
                product = row if product is None else product * row
            contribution = contribution + value * product
        return contribution

    def _legacy_sampled_residual(
        self,
        mode: int,
        index: int,
        delta_coordinates: list[Coordinate],
        prev_rows: dict[tuple[int, int], np.ndarray],
    ) -> np.ndarray:
        """Residual term of the legacy sampler — draw stream and float
        operations pinned bit-for-bit to the original implementation."""
        tensor = self.window.tensor
        samples = sample_slice_coordinates(
            tensor.shape,
            mode,
            index,
            self._config.theta,
            self._rng,
            exclude=delta_coordinates,
        )
        if not samples:
            return np.zeros(self.rank, dtype=np.float64)
        observed = np.array([tensor.get(c) for c in samples], dtype=np.float64)
        reconstructed = self._reconstruction_batch(samples, prev_rows)
        residuals = observed - reconstructed  # the x̄_J values
        return residuals @ self._other_rows_product_batch(mode, samples)

    def _vectorized_sampled_residual(
        self,
        mode: int,
        index: int,
        samples: np.ndarray,
        prev_rows: dict[tuple[int, int], np.ndarray],
        overrides_by_mode: dict[int, list[tuple[int, np.ndarray]]],
        factors: list[np.ndarray],
    ) -> np.ndarray:
        """Fused residual term ``(x - x̃) @ (Hadamard of other current rows)``.

        One pass over the other modes builds both row products —
        ``product_current`` from the live factors (the Eq. 16/23 coefficient)
        and ``product_previous`` from the start-of-event rows (the ``X̃``
        reconstruction) — sharing each mode's row gather.  Every sample has
        ``samples[:, mode] == index``, so the reconstruction's ``mode``
        factor collapses to the single row ``prev_rows[(mode, index)]``,
        applied as a final matrix-vector product.  The fused pass itself is
        the configured backend's ``sampled_residual`` kernel; the override
        buckets are flattened in insertion order, which the numpy reference
        replays exactly.
        """
        if not samples.shape[0]:
            return np.zeros(self.rank, dtype=np.float64)
        observed = self.window.tensor._get_batch_trusted(samples)
        override_modes, override_indices, override_rows = flatten_mode_overrides(
            overrides_by_mode, mode, self.rank
        )
        return self._kernels.sampled_residual(
            samples,
            observed,
            factors,
            mode,
            prev_rows[(mode, index)],
            override_modes,
            override_indices,
            override_rows,
        )
