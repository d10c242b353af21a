"""Unit tests for :mod:`repro.tensor.kruskal`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import RankError, ShapeError
from repro.tensor.kruskal import KruskalTensor
from repro.tensor.random import random_factors
from repro.tensor.sparse import SparseTensor


@pytest.fixture
def kruskal(rng) -> KruskalTensor:
    factors = random_factors((4, 5, 3), rank=3, rng=rng, nonnegative=False)
    weights = rng.uniform(0.5, 2.0, size=3)
    return KruskalTensor(factors, weights)


class TestConstruction:
    def test_shape_rank_order(self, kruskal):
        assert kruskal.shape == (4, 5, 3)
        assert kruskal.rank == 3
        assert kruskal.order == 3
        assert kruskal.n_parameters == 3 * (4 + 5 + 3)

    def test_default_weights_are_ones(self, rng):
        factors = random_factors((3, 3), rank=2, rng=rng)
        np.testing.assert_allclose(KruskalTensor(factors).weights, [1.0, 1.0])

    def test_inconsistent_rank_rejected(self, rng):
        with pytest.raises(RankError):
            KruskalTensor([rng.normal(size=(3, 2)), rng.normal(size=(3, 3))])

    def test_bad_weight_length_rejected(self, rng):
        factors = random_factors((3, 3), rank=2, rng=rng)
        with pytest.raises(RankError):
            KruskalTensor(factors, weights=np.ones(3))

    def test_vector_factor_rejected(self):
        with pytest.raises(ShapeError):
            KruskalTensor([np.ones(3)])

    def test_no_factors_rejected(self):
        with pytest.raises(ShapeError):
            KruskalTensor([])

    def test_factors_are_copied(self, rng):
        factor = rng.normal(size=(3, 2))
        kruskal = KruskalTensor([factor, rng.normal(size=(4, 2))])
        factor[0, 0] = 99.0
        assert kruskal.factors[0][0, 0] != 99.0

    def test_copy_is_deep(self, kruskal):
        clone = kruskal.copy()
        clone.factors[0][0, 0] += 1.0
        clone.weights[0] += 1.0
        assert kruskal.factors[0][0, 0] != clone.factors[0][0, 0]
        assert kruskal.weights[0] != clone.weights[0]


class TestReconstruction:
    def test_value_at_matches_dense(self, kruskal, rng):
        dense = kruskal.to_dense()
        for _ in range(10):
            coordinate = tuple(int(rng.integers(n)) for n in kruskal.shape)
            assert kruskal.value_at(coordinate) == pytest.approx(dense[coordinate])

    def test_values_at_matches_value_at(self, kruskal, rng):
        coordinates = np.column_stack(
            [rng.integers(0, n, size=7) for n in kruskal.shape]
        )
        batch = kruskal.values_at(coordinates)
        for row, expected in zip(coordinates, batch):
            assert kruskal.value_at(tuple(row)) == pytest.approx(expected)

    def test_values_at_empty(self, kruskal):
        assert kruskal.values_at(np.empty((0, 3))).shape == (0,)

    def test_value_at_wrong_length_rejected(self, kruskal):
        with pytest.raises(ShapeError):
            kruskal.value_at((0, 0))

    def test_to_dense_uses_weights(self, rng):
        factors = random_factors((3, 4), rank=2, rng=rng, nonnegative=False)
        weights = np.array([2.0, 0.5])
        weighted = KruskalTensor(factors, weights).to_dense()
        manual = sum(
            weights[r] * np.outer(factors[0][:, r], factors[1][:, r]) for r in range(2)
        )
        np.testing.assert_allclose(weighted, manual, atol=1e-12)


def broadcast_copy_values_at(kruskal, coordinates):
    """The historical ``values_at`` on fresh temporaries, kept as the oracle."""
    product = np.broadcast_to(
        kruskal.weights, (coordinates.shape[0], kruskal.rank)
    ).copy()
    for mode, factor in enumerate(kruskal.factors):
        product *= factor[coordinates[:, mode], :]
    return product.sum(axis=1)


class TestValuesAtOracle:
    """``values_at`` gathers in reused scratch; its bits must not change."""

    def test_bit_equal_across_growing_shrinking_and_rank_changes(self):
        rng = np.random.default_rng(21)
        shape = (7, 6, 5)
        for n, rank in [(40, 3), (700, 3), (12, 3), (300, 8), (1, 8), (90, 2)]:
            factors = [
                rng.standard_normal((size, rank))
                * 10.0 ** rng.integers(-4, 5, size=(size, 1))
                for size in shape
            ]
            kruskal = KruskalTensor(factors, rng.uniform(-3.0, 3.0, size=rank))
            coordinates = np.column_stack(
                [rng.integers(-size, size, size=n) for size in shape]
            )
            expected = broadcast_copy_values_at(kruskal, coordinates)
            actual = kruskal.values_at(coordinates)
            assert actual.tobytes() == expected.tobytes()

    def test_earlier_result_unchanged_by_a_later_call(self, kruskal, rng):
        coordinates = np.column_stack(
            [rng.integers(0, n, size=50) for n in kruskal.shape]
        )
        first = kruskal.values_at(coordinates)
        snapshot = first.tobytes()
        for n in (50, 20, 400):  # reuses the buffers, then grows them
            kruskal.values_at(np.column_stack(
                [rng.integers(0, size, size=n) for size in kruskal.shape]
            ))
        assert first.tobytes() == snapshot

    @pytest.mark.parametrize("bad", [5, 9, -6, -20])
    def test_out_of_range_coordinates_raise_index_error(self, kruskal, bad):
        coordinates = np.zeros((4, 3), dtype=np.int64)
        coordinates[2, 1] = bad  # mode 1 has length 5
        with pytest.raises(IndexError):
            broadcast_copy_values_at(kruskal, coordinates)
        with pytest.raises(IndexError):
            kruskal.values_at(coordinates)


class TestNorms:
    def test_squared_norm_matches_dense(self, kruskal):
        dense = kruskal.to_dense()
        assert kruskal.squared_norm() == pytest.approx(np.sum(dense**2))
        assert kruskal.norm() == pytest.approx(np.linalg.norm(dense))

    def test_inner_with_sparse_matches_dense(self, kruskal, rng):
        sparse = SparseTensor(kruskal.shape)
        for _ in range(10):
            coordinate = tuple(int(rng.integers(n)) for n in kruskal.shape)
            sparse.set(coordinate, float(rng.normal()))
        expected = float(np.sum(kruskal.to_dense() * sparse.to_dense()))
        assert kruskal.inner_with_sparse(sparse) == pytest.approx(expected)

    def test_inner_shape_mismatch_rejected(self, kruskal):
        with pytest.raises(ShapeError):
            kruskal.inner_with_sparse(SparseTensor((2, 2)))

    def test_residual_matches_dense(self, kruskal, rng):
        sparse = SparseTensor(kruskal.shape)
        for _ in range(15):
            coordinate = tuple(int(rng.integers(n)) for n in kruskal.shape)
            sparse.set(coordinate, float(rng.uniform(0.5, 2.0)))
        expected = float(np.sum((sparse.to_dense() - kruskal.to_dense()) ** 2))
        assert kruskal.residual_squared_norm(sparse) == pytest.approx(expected)


class TestFitness:
    def test_perfect_fitness_for_own_reconstruction(self, rng):
        factors = random_factors((3, 4, 2), rank=2, rng=rng)
        kruskal = KruskalTensor(factors)
        sparse = SparseTensor.from_dense(kruskal.to_dense())
        assert kruskal.fitness(sparse) == pytest.approx(1.0, abs=1e-9)

    def test_zero_decomposition_has_zero_fitness(self, small_tensor):
        zeros = KruskalTensor(
            [np.zeros((n, 2)) for n in small_tensor.shape]
        )
        assert zeros.fitness(small_tensor) == pytest.approx(0.0)

    def test_fitness_of_empty_tensor(self, rng):
        factors = random_factors((3, 3), rank=2, rng=rng)
        empty = SparseTensor((3, 3))
        assert KruskalTensor(factors).fitness(empty) == float("-inf")
        zeros = KruskalTensor([np.zeros((3, 2)), np.zeros((3, 2))])
        assert zeros.fitness(empty) == 1.0


class TestNormalization:
    def test_normalize_preserves_reconstruction(self, kruskal):
        normalized = kruskal.normalize()
        np.testing.assert_allclose(
            normalized.to_dense(), kruskal.to_dense(), atol=1e-10
        )
        for factor in normalized.factors:
            np.testing.assert_allclose(
                np.linalg.norm(factor, axis=0), np.ones(kruskal.rank)
            )

    def test_absorb_weights_preserves_reconstruction(self, kruskal):
        absorbed = kruskal.absorb_weights()
        np.testing.assert_allclose(absorbed.weights, np.ones(kruskal.rank))
        np.testing.assert_allclose(
            absorbed.to_dense(), kruskal.to_dense(), atol=1e-10
        )
