"""Bit-exact oracle for the numpy reference ``mttkrp_coo``.

The numpy backend scatters the MTTKRP rows with one ``np.bincount`` over
flat ``(row, component)`` cells.  The golden suites pin its output to the
bit, so it must equal the historical ``np.add.at`` scatter kept below as
the oracle: both start every cell at 0.0 and add its contributions one at
a time in entry order.  The values span many orders of magnitude, so any
change of summation order shows up in the low bits.
"""

from __future__ import annotations

import importlib

import numpy as np
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
