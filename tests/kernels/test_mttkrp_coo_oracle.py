"""Bit-exact oracle for the numpy reference ``mttkrp_coo``.

The numpy backend scatters the MTTKRP rows with one ``np.bincount`` over
flat ``(row, component)`` cells.  The golden suites pin its output to the
bit, so it must equal the historical ``np.add.at`` scatter kept below as
the oracle: both start every cell at 0.0 and add its contributions one at
a time in entry order.  The values span many orders of magnitude, so any
change of summation order shows up in the low bits.  The kernel also
works in per-thread scratch buffers, so the oracle must hold across
calls that resize them and across threads running at once.
"""

from __future__ import annotations

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

REFERENCE = importlib.import_module("repro.kernels.numpy_backend").load()


def add_at_mttkrp_coo(indices, values, factors, mode, mode_size):
    """The historical ``np.add.at`` implementation, kept as the oracle."""
    rank = factors[0].shape[1]
    result = np.zeros((mode_size, rank), dtype=np.float64)
    if values.size == 0:
        return result
    product = np.broadcast_to(values[:, None], (values.size, rank)).copy()
    for other_mode, factor in enumerate(factors):
        if other_mode == mode:
            continue
        product *= factor[indices[:, other_mode], :]
    np.add.at(result, indices[:, mode], product)
    return result


def assert_bit_equal(indices, values, factors, mode, mode_size):
    expected = add_at_mttkrp_coo(indices, values, factors, mode, mode_size)
    actual = REFERENCE.mttkrp_coo(indices, values, factors, mode, mode_size)
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def coo_cases(draw):
    """COO arrays with repeated coordinates and rows that get no entry.

    Coordinates are drawn from a small pool, so the same cell (and the
    same output row) is hit many times; ``extra_rows`` pads the output
    with rows no entry maps to.
    """
    order = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(order))
    rank = draw(st.integers(1, 5))
    mode = draw(st.integers(0, order - 1))
    nnz = draw(st.integers(0, 60))
    pool_size = draw(st.integers(1, 8))
    extra_rows = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    pool = np.column_stack(
        [rng.integers(0, n, size=pool_size) for n in shape]
    ).astype(np.int64)
    indices = pool[rng.integers(0, pool_size, size=nnz)]
    values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 9, size=nnz)
    factors = [
        rng.standard_normal((n, rank)) * 10.0 ** rng.integers(-4, 5, size=(n, 1))
        for n in shape
    ]
    return indices, values, factors, mode, shape[mode] + extra_rows


class TestBincountScatterMatchesAddAt:
    @settings(max_examples=200, deadline=None)
    @given(case=coo_cases())
    def test_bit_equal_to_add_at(self, case):
        assert_bit_equal(*case)

    def test_every_mode_of_a_large_window(self):
        rng = np.random.default_rng(7)
        shape, rank, nnz = (30, 25, 12), 20, 3000
        indices = np.column_stack(
            [rng.integers(0, n, size=nnz) for n in shape]
        ).astype(np.int64)
        values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-6, 7, size=nnz)
        factors = [rng.standard_normal((n, rank)) for n in shape]
        for mode in range(len(shape)):
            assert_bit_equal(indices, values, factors, mode, shape[mode])

    def test_empty_tensor(self):
        factors = [np.ones((3, 2)), np.ones((4, 2))]
        indices = np.empty((0, 2), dtype=np.int64)
        values = np.empty((0,), dtype=np.float64)
        assert_bit_equal(indices, values, factors, 1, 4)
        assert not REFERENCE.mttkrp_coo(indices, values, factors, 1, 4).any()

    def test_order_one_sums_values_per_row(self):
        indices = np.array([[2], [0], [2], [2]], dtype=np.int64)
        values = np.array([1e16, 3.0, 1.0, -1e16])
        factors = [np.ones((4, 3))]
        assert_bit_equal(indices, values, factors, 0, 4)
        result = REFERENCE.mttkrp_coo(indices, values, factors, 0, 4)
        # Entry order, not exact arithmetic: 1e16 + 1.0 rounds back to 1e16.
        assert result[:, 0].tolist() == [3.0, 0.0, 0.0, 0.0]

    def test_signed_zero_contributions(self):
        indices = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.int64)
        values = np.array([-0.0, 2.0, -0.0])
        factors = [np.array([[1.0], [-1.0]]), np.array([[-1.0], [0.0]])]
        for mode in (0, 1):
            assert_bit_equal(indices, values, factors, mode, 2)


def random_case(rng, shape, rank, nnz):
    """COO arrays over ``shape`` with values of widely varying magnitude."""
    indices = np.column_stack(
        [rng.integers(0, n, size=nnz) for n in shape]
    ).astype(np.int64).reshape(nnz, len(shape))
    values = rng.standard_normal(nnz) * 10.0 ** rng.integers(-6, 7, size=nnz)
    factors = [rng.standard_normal((n, rank)) for n in shape]
    return indices, values, factors


class TestScratchBuffers:
    """The kernel reuses per-thread scratch; results must not notice."""

    def test_back_to_back_calls_that_grow_shrink_and_change_rank(self):
        rng = np.random.default_rng(11)
        shape = (9, 7, 5)
        for nnz, rank in [
            (50, 4), (400, 4), (30, 4), (900, 6), (5, 6), (250, 3), (0, 3), (120, 3),
        ]:
            indices, values, factors = random_case(rng, shape, rank, nnz)
            for mode in range(len(shape)):
                assert_bit_equal(indices, values, factors, mode, shape[mode])

    def test_earlier_result_unchanged_by_a_later_call(self):
        rng = np.random.default_rng(12)
        shape = (6, 5, 4)
        first_case = random_case(rng, shape, 3, 80)
        first = REFERENCE.mttkrp_coo(*first_case, 0, shape[0])
        snapshot = first.tobytes()
        for nnz in (80, 500, 10):
            indices, values, factors = random_case(rng, shape, 3, nnz)
            REFERENCE.mttkrp_coo(indices, values, factors, 0, shape[0])
        assert first.tobytes() == snapshot

    def test_in_range_negative_indices_match_the_oracle(self):
        rng = np.random.default_rng(13)
        shape = (5, 4, 3)
        indices, values, factors = random_case(rng, shape, 3, 60)
        indices[::3, 1] -= shape[1]  # -n <= i < 0: valid fancy indices
        indices[1::4, 2] -= shape[2]
        assert_bit_equal(indices, values, factors, 0, shape[0])

    @pytest.mark.parametrize("offset", [0, 3, -1, -9])
    def test_out_of_range_indices_raise_index_error(self, offset):
        rng = np.random.default_rng(14)
        shape = (5, 4, 3)
        indices, values, factors = random_case(rng, shape, 2, 40)
        # offset 0 / 3 give i >= n, offset -1 / -9 give i < -n.
        bad = shape[1] + offset if offset >= 0 else -shape[1] + offset
        indices[17, 1] = bad
        with pytest.raises(IndexError):
            add_at_mttkrp_coo(indices, values, factors, 0, shape[0])
        with pytest.raises(IndexError):
            REFERENCE.mttkrp_coo(indices, values, factors, 0, shape[0])

    def test_concurrent_threads_each_match_the_oracle(self):
        rng = np.random.default_rng(15)
        shape = (20, 15, 10)
        cases = [
            random_case(rng, shape, rank, nnz)
            for rank, nnz in [(4, 3000), (7, 1200), (4, 200), (5, 2500)]
        ]
        expected = [
            [add_at_mttkrp_coo(*case, mode, shape[mode]).tobytes() for mode in range(3)]
            for case in cases
        ]
        barrier = threading.Barrier(len(cases))
        mismatches: list[tuple[int, int]] = []

        def worker(position):
            barrier.wait()
            for _ in range(25):
                for mode in range(3):
                    actual = REFERENCE.mttkrp_coo(*cases[position], mode, shape[mode])
                    if actual.tobytes() != expected[position][mode]:
                        mismatches.append((position, mode))

        threads = [
            threading.Thread(target=worker, args=(position,))
            for position in range(len(cases))
        ]
        # More threads than cores and a short switch interval, so the
        # threads interleave inside the kernel; shared buffers would mix.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
