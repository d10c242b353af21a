"""The bounded scoreboard of ``ZScoreDetector``.

The detector keeps only the top ``SCOREBOARD_SIZE`` post-warm-up scores.
These tests pin that the bound is invisible: ``top_k`` answers exactly what
the former unbounded detector (every score kept, fully sorted on each
query) answers, for every ``k`` up to the bound, ties included, across a
checkpoint round trip, and when resuming from the former checkpoint format.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.anomaly.detector import (
    SCOREBOARD_SIZE,
    AnomalyScore,
    ZScoreDetector,
)
from repro.exceptions import ConfigurationError


class UnboundedReference:
    """The detector as it was before the scoreboard was bounded: every
    emitted score is kept, and ``top_k`` sorts all of them."""

    def __init__(self, warmup: int = 30) -> None:
        self._warmup = max(int(warmup), 1)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._scores: list[AnomalyScore] = []

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def std(self) -> float:
        if self._count < 2:
            return 0.0
        return math.sqrt(self._m2 / (self._count - 1))

    def observe(self, coordinate, error, event_time, detection_time=None):
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
        self._scores.append(score)
        self._count += 1
        delta = error - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (error - self._mean)
        return score

    def state_dict(self) -> dict:
        """The former checkpoint payload: every score under ``"scores"``."""
        return {
            "warmup": self._warmup,
            "count": self._count,
            "mean": self._mean,
            "m2": self._m2,
            "scores": [
                {
                    "coordinate": list(score.coordinate),
                    "z_score": score.z_score,
                    "error": score.error,
                    "event_time": score.event_time,
                    "detection_time": score.detection_time,
                    "is_warmup": score.is_warmup,
                }
                for score in self._scores
            ],
        }

    def top_k(self, k: int) -> list[AnomalyScore]:
        scored = [s for s in self._scores if not s.is_warmup]
        return sorted(scored, key=lambda s: (s.z_score, s.error), reverse=True)[
            : int(k)
        ]


#: One observation: a small fixed error value (frequent exact repeats), or
#: ``None`` for "the current running mean", whose z-score is exactly 0.0 and
#: which leaves the mean unchanged — repeated, it yields exact ties on
#: ``(z_score, error)`` that only arrival order can break.
ACTIONS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 9.0]),
    st.none(),
)


def _feed(detectors, actions, start: int = 0) -> None:
    for position, action in enumerate(actions, start=start):
        error = detectors[0].mean if action is None else action
        for detector in detectors:
            detector.observe((position % 5, position % 3), error, event_time=position)


def _assert_top_k_matches(detector, reference) -> None:
    expected = reference.top_k(SCOREBOARD_SIZE)
    for k in range(SCOREBOARD_SIZE + 1):
        assert detector.top_k(k) == expected[:k]
    assert detector.scoreboard == expected


class TestOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        warmup=st.integers(1, 10),
        actions=st.lists(
            ACTIONS, min_size=SCOREBOARD_SIZE + 20, max_size=3 * SCOREBOARD_SIZE
        ),
        cut=st.floats(0.0, 1.0),
    )
    def test_top_k_matches_the_unbounded_sort(self, warmup, actions, cut):
        detector = ZScoreDetector(warmup=warmup)
        reference = UnboundedReference(warmup=warmup)
        split = int(cut * len(actions))
        _feed([reference, detector], actions[:split])
        _assert_top_k_matches(detector, reference)
        # A checkpoint round trip mid-stream (through JSON, as on disk).
        detector = ZScoreDetector.from_state(
            json.loads(json.dumps(detector.state_dict()))
        )
        _assert_top_k_matches(detector, reference)
        _feed([reference, detector], actions[split:], start=split)
        _assert_top_k_matches(detector, reference)
        assert detector.count == len(actions)
        assert detector.mean == reference.mean
        assert detector.std == reference.std

    def test_ties_are_broken_by_arrival(self):
        detector = ZScoreDetector(warmup=2)
        detector.observe((0, 0), 1.0, event_time=0.0)
        detector.observe((0, 1), 3.0, event_time=1.0)
        # Errors equal to the running mean (2.0) all score exactly 0.0.
        tied = [
            detector.observe((1, i), 2.0, event_time=2.0 + i) for i in range(3)
        ]
        assert [score.z_score for score in tied] == [0.0] * 3
        assert detector.top_k(3) == tied

    def test_board_is_bounded(self):
        detector = ZScoreDetector(warmup=2)
        for position in range(5 * SCOREBOARD_SIZE):
            detector.observe((0, 0), float(position % 7), event_time=position)
        assert len(detector.scoreboard) == SCOREBOARD_SIZE
        assert len(detector.state_dict()["scoreboard"]) == SCOREBOARD_SIZE


class TestFormerCheckpointFormat:
    def test_hand_built_scores_payload_restores_top_k(self):
        def entry(time, z_score, error, is_warmup=False):
            return {
                "coordinate": [0, int(time)],
                "z_score": z_score,
                "error": error,
                "event_time": time,
                "detection_time": time,
                "is_warmup": is_warmup,
            }

        state = {
            "warmup": 3,
            "count": 7,
            "mean": 1.5,
            "m2": 2.0,
            "scores": [
                entry(0.0, 0.0, 1.0, is_warmup=True),
                entry(1.0, 0.0, 2.0, is_warmup=True),
                entry(2.0, 0.0, 1.5, is_warmup=True),
                entry(3.0, 1.25, 3.0),
                entry(4.0, 0.0, 1.5),
                entry(5.0, 1.25, 3.0),
                entry(6.0, -0.5, 1.0),
            ],
        }
        detector = ZScoreDetector.from_state(state)
        times = [score.event_time for score in detector.top_k(SCOREBOARD_SIZE)]
        # Placeholders are dropped; the (1.25, 3.0) tie keeps arrival order.
        assert times == [3.0, 5.0, 4.0, 6.0]
        assert all(not score.is_warmup for score in detector.scoreboard)
        assert detector.count == 7 and detector.mean == 1.5

    @pytest.mark.parametrize("n_before", [15, 260])
    def test_former_payload_resumes_identically(self, n_before):
        actions = [
            (0.25, 0.5, 1.0, None, 2.0, 4.0, None, 9.0, 1.5)[i % 9]
            for i in range(n_before + 200)
        ]
        reference = UnboundedReference(warmup=10)
        _feed([reference], actions[:n_before])
        detector = ZScoreDetector.from_state(
            json.loads(json.dumps(reference.state_dict()))
        )
        _assert_top_k_matches(detector, reference)
        _feed([reference, detector], actions[n_before:], start=n_before)
        _assert_top_k_matches(detector, reference)


class TestNonFiniteErrors:
    """A NaN z-score ranks below every number; +inf ranks above every
    number.  A NaN or infinite error poisons the running variance, so every
    later observation is a placeholder that never reaches the board."""

    @staticmethod
    def _primed() -> tuple[ZScoreDetector, AnomalyScore]:
        detector = ZScoreDetector(warmup=2)
        detector.observe((0, 0), 1.0, event_time=0.0)
        detector.observe((0, 1), 3.0, event_time=1.0)
        low = detector.observe((0, 2), 0.0, event_time=2.0)  # z = -sqrt(2)
        assert low.z_score < 0.0 and not low.is_warmup
        return detector, low

    def test_nan_ranks_below_every_number(self):
        detector, low = self._primed()
        nan = detector.observe((9, 9), float("nan"), event_time=3.0)
        assert math.isnan(nan.z_score) and not nan.is_warmup
        later = detector.observe((9, 8), 50.0, event_time=4.0)
        assert later.is_warmup
        top = detector.top_k(SCOREBOARD_SIZE)
        assert [score.event_time for score in top] == [2.0, 3.0]
        assert top[0] == low and math.isnan(top[1].z_score)

    def test_inf_ranks_above_every_number(self):
        detector, low = self._primed()
        inf = detector.observe((9, 9), float("inf"), event_time=3.0)
        assert inf.z_score == math.inf and not inf.is_warmup
        assert detector.observe((9, 8), 50.0, event_time=4.0).is_warmup
        assert detector.top_k(SCOREBOARD_SIZE) == [inf, low]

    def test_non_finite_order_survives_a_round_trip(self):
        detector, _ = self._primed()
        detector.observe((9, 9), float("nan"), event_time=3.0)
        clone = ZScoreDetector.from_state(
            json.loads(json.dumps(detector.state_dict()))
        )
        times = [score.event_time for score in clone.top_k(SCOREBOARD_SIZE)]
        assert times == [2.0, 3.0]


class TestTopKValidation:
    @pytest.mark.parametrize("k", [-1, SCOREBOARD_SIZE + 1, 2.0, "3", True, None])
    def test_out_of_range_or_non_integer_k_raises(self, k):
        detector = ZScoreDetector(warmup=2)
        for position in range(10):
            detector.observe((0, 0), float(position % 3), event_time=position)
        with pytest.raises(ConfigurationError):
            detector.top_k(k)

    def test_k_at_the_bounds(self):
        detector = ZScoreDetector(warmup=2)
        for position in range(10):
            detector.observe((0, 0), float(position % 3), event_time=position)
        assert detector.top_k(0) == []
        assert len(detector.top_k(SCOREBOARD_SIZE)) == 8

    def test_anomaly_experiment_rejects_top_k_beyond_the_board(self):
        from repro.experiments.anomaly_experiment import run_anomaly_experiment
        from repro.experiments.config import ExperimentSettings

        with pytest.raises(ConfigurationError, match="scoreboard"):
            run_anomaly_experiment(
                ExperimentSettings(dataset="chicago_crime", scale=0.12),
                methods=("sns_rnd_plus",),
                top_k=SCOREBOARD_SIZE + 1,
            )
