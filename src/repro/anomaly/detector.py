"""Z-score anomaly detector over reconstruction errors (Section VI-G).

The detector keeps running statistics (mean and variance, via Welford's
algorithm) of the reconstruction errors it observes, and converts each new
error into a Z-score.  A fixed-size scoreboard — the top
:data:`SCOREBOARD_SIZE` post-warm-up scores, nothing else — supports the
"precision at top-20" evaluation, and the recorded detection times support
the "time gap between occurrence and detection" metric.  The detector's
memory, its checkpoint payload and every ``top_k`` query are therefore
bounded no matter how long the stream runs.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import numbers
from collections.abc import Mapping
from typing import Any

from repro.exceptions import CheckpointError, ConfigurationError

Coordinate = tuple[int, ...]

#: How many post-warm-up scores a detector retains: 5x the paper's top-20
#: evaluation.  ``top_k`` answers any ``k`` up to this size exactly as if
#: every score ever emitted had been kept and sorted.
SCOREBOARD_SIZE = 100


def check_top_k(k: Any) -> int:
    """``k`` as an int, or :class:`ConfigurationError` unless it is an
    integer in ``[0, SCOREBOARD_SIZE]``."""
    if (
        isinstance(k, bool)
        or not isinstance(k, numbers.Integral)
        or not 0 <= k <= SCOREBOARD_SIZE
    ):
        raise ConfigurationError(
            f"k must be an integer in [0, {SCOREBOARD_SIZE}], got {k!r}"
        )
    return int(k)


def _rank(value: float) -> float:
    """Sort key of a z-score or error: NaN ranks as ``-inf``."""
    return value if value == value else -math.inf


def _offer(board: list, score: AnomalyScore, sequence: int) -> None:
    """Offer one post-warm-up score to a bounded scoreboard heap."""
    entry = (_rank(score.z_score), _rank(score.error), -sequence, score)
    if len(board) < SCOREBOARD_SIZE:
        heapq.heappush(board, entry)
    elif entry > board[0]:  # keys are unique: scores are never compared
        heapq.heapreplace(board, entry)


@dataclasses.dataclass(frozen=True, slots=True)
class AnomalyScore:
    """One scored observation."""

    coordinate: Coordinate
    z_score: float
    error: float
    event_time: float
    detection_time: float
    #: True for warm-up placeholders emitted before the error statistics
    #: existed; their ``z_score`` of 0.0 carries no evidence.  Recorded
    #: explicitly so a genuine post-warm-up score of exactly 0.0 (an error
    #: equal to the running mean) is not mistaken for a placeholder.
    is_warmup: bool = False

    @property
    def detection_delay(self) -> float:
        """Seconds between the observation's event time and its detection."""
        return self.detection_time - self.event_time


class ZScoreDetector:
    """Online Z-score scoring of reconstruction errors.

    Scores rank by ``(z_score, error)``, highest first, and ties rank by
    arrival (earlier first).  The scoreboard is a min-heap of the
    :data:`SCOREBOARD_SIZE` best ``(z_score, error, -arrival)`` keys; a key
    is unique, so the board holds exactly the first ``SCOREBOARD_SIZE``
    entries of a stable full sort of every post-warm-up score.

    Non-finite values: a NaN z-score or error ranks as ``-inf`` (below every
    number, tied with ``-inf``), and ``+inf`` ranks above every number.  A
    NaN or infinite error also turns the running variance into NaN, so every
    later observation is a warm-up placeholder and never reaches the board.

    Parameters
    ----------
    warmup:
        Number of observations used purely to establish the error statistics
        before any score is emitted (scores during warm-up are 0.0).
    """

    def __init__(self, warmup: int = 30) -> None:
        self._warmup = max(int(warmup), 1)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        #: Arrival number of the next observation (the tie-breaker).
        self._sequence = 0
        #: Min-heap of ``(rank(z), rank(error), -arrival, score)``.
        self._board: list[tuple[float, float, int, AnomalyScore]] = []

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations seen so far."""
        return self._count

    @property
    def mean(self) -> float:
        """Running mean of observed errors."""
        return self._mean

    @property
    def std(self) -> float:
        """Running standard deviation of observed errors."""
        if self._count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._count - 1))

    @property
    def scoreboard(self) -> list[AnomalyScore]:
        """The retained post-warm-up scores, best first (at most
        :data:`SCOREBOARD_SIZE`)."""
        return [entry[3] for entry in sorted(self._board, reverse=True)]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self,
        coordinate: Coordinate,
        error: float,
        event_time: float,
        detection_time: float | None = None,
    ) -> AnomalyScore:
        """Score one reconstruction error and fold it into the statistics.

        The Z-score is computed against the statistics *before* the new
        observation is added, so a huge anomaly does not dilute its own score.
        """
        error = abs(float(error))
        is_warmup = not (self._count >= self._warmup and self.std > 0.0)
        z_score = 0.0 if is_warmup else (error - self._mean) / self.std
        score = AnomalyScore(
            coordinate=tuple(int(i) for i in coordinate),
            z_score=z_score,
            error=error,
            event_time=float(event_time),
            detection_time=float(
                event_time if detection_time is None else detection_time
            ),
            is_warmup=is_warmup,
        )
        if not is_warmup:
            _offer(self._board, score, self._sequence)
        self._sequence += 1
        self._update_statistics(error)
        return score

    def _update_statistics(self, error: float) -> None:
        self._count += 1
        delta = error - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (error - self._mean)

    # ------------------------------------------------------------------
    # Checkpoint state protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Full running state as a JSON-serializable dict.

        Covers everything :meth:`observe` mutates — the observation count,
        the Welford mean/M2 accumulators (float repr round-trips exactly
        through JSON), the warm-up threshold, the arrival counter and the
        scoreboard (best first, each entry with its arrival number) — so a
        detector restored with :meth:`from_state` continues on the exact
        same score stream and scoreboard as an uninterrupted one.
        Streaming-run checkpoints store this in their ``extra`` payload.
        """
        return {
            "warmup": self._warmup,
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
            "sequence": self._sequence,
            "scoreboard": [
                {
                    "coordinate": list(score.coordinate),
                    "z_score": score.z_score,
                    "error": score.error,
                    "event_time": score.event_time,
                    "detection_time": score.detection_time,
                    "sequence": -negated_sequence,
                }
                for _, _, negated_sequence, score in sorted(
                    self._board, reverse=True
                )
            ],
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore the running state saved by :meth:`state_dict`.

        Also reads the older payload that listed every emitted score under
        ``"scores"``: its post-warm-up entries, in list order, rebuild the
        board, so such a checkpoint resumes with an identical ``top_k``.
        """
        try:
            warmup = max(int(state["warmup"]), 1)
            count = int(state["count"])
            mean = float(state["mean"])
            m2 = float(state["m2"])
            if "scoreboard" in state:
                sequence = int(state["sequence"])
                entries = [
                    (int(entry["sequence"]), entry)
                    for entry in state["scoreboard"]
                ]
            else:
                scores = list(state["scores"])
                sequence = len(scores)
                entries = [
                    (position, entry)
                    for position, entry in enumerate(scores)
                    if not entry.get("is_warmup", False)
                ]
            board: list = []
            for position, entry in entries:
                _offer(
                    board,
                    AnomalyScore(
                        coordinate=tuple(int(i) for i in entry["coordinate"]),
                        z_score=float(entry["z_score"]),
                        error=float(entry["error"]),
                        event_time=float(entry["event_time"]),
                        detection_time=float(entry["detection_time"]),
                    ),
                    position,
                )
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise CheckpointError(
                f"detector state payload is unreadable: {error}"
            ) from error
        self._warmup = warmup
        self._count = count
        self._mean = mean
        self._m2 = m2
        self._sequence = sequence
        self._board = board

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ZScoreDetector":
        """Build a detector whose state continues the saved run exactly."""
        detector = cls()
        detector.load_state(state)
        return detector

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def top_k(self, k: int) -> list[AnomalyScore]:
        """The ``k`` highest-scoring observations (ties broken by error size,
        then by arrival).

        ``k`` must be an integer in ``[0, SCOREBOARD_SIZE]``
        (:class:`ConfigurationError` otherwise).  Warm-up placeholders
        (emitted before the error statistics exist) are never retained: they
        carry no evidence and must not occupy scoreboard slots on short
        runs.  A genuine post-warm-up score of 0.0 stays eligible.
        """
        k = check_top_k(k)
        return [entry[3] for entry in heapq.nlargest(k, self._board)]

    def precision_at_k(
        self, k: int, true_coordinates: set[Coordinate]
    ) -> float:
        """Fraction of the top-``k`` scoreboard whose coordinate is a true anomaly.

        The denominator is ``k`` itself, not the number of scores available:
        with fewer than ``k`` scored observations the missing slots count as
        misses, so short runs cannot silently inflate the metric.
        """
        k = int(k)
        if k <= 0:
            return 0.0
        top = self.top_k(k)
        hits = sum(1 for score in top if score.coordinate in true_coordinates)
        return hits / k

    def mean_detection_delay(
        self, k: int, true_coordinates: set[Coordinate]
    ) -> float:
        """Mean detection delay of the true anomalies inside the top-``k``."""
        delays = [
            score.detection_delay
            for score in self.top_k(k)
            if score.coordinate in true_coordinates
        ]
        if not delays:
            return float("nan")
        return float(sum(delays) / len(delays))
