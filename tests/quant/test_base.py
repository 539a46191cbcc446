"""Tests for quantization primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import QuantizationError
from repro.quant.base import (
    INT8_MAX,
    QuantizedTensor,
    dequantize,
    quantize_dequantize,
    quantize_int8,
    quantize_weight_per_channel,
    quantize_weight_per_group,
    quantize_weight_per_tensor,
    symmetric_scale,
)


class TestSymmetricScale:
    def test_basic(self):
        assert symmetric_scale(127.0) == pytest.approx(1.0)

    def test_zero_absmax_safe(self):
        assert symmetric_scale(0.0) == 1.0

    def test_negative_raises(self):
        with pytest.raises(QuantizationError):
            symmetric_scale(-1.0)


class TestQuantizeInt8:
    def test_round_trip_of_exact_values(self):
        x = np.array([-127.0, 0.0, 1.0, 126.0])
        q = quantize_int8(x, 1.0)
        np.testing.assert_array_equal(dequantize(q, 1.0), x)

    def test_clipping(self):
        q = quantize_int8(np.array([1000.0, -1000.0]), 1.0)
        np.testing.assert_array_equal(q, [127, -127])

    def test_dtype(self):
        assert quantize_int8(np.zeros(3), 1.0).dtype == np.int8

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float32, (16,),
                      elements=st.floats(-100, 100, width=32)))
    @example(np.array([100.0] + [50.0] * 15, dtype=np.float32))
    def test_error_bounded_by_half_step(self, x):
        absmax = float(np.abs(x).max())
        scale = symmetric_scale(absmax)
        # Rounding to the nearest code is off by at most half a step.
        # ``dequantize`` then multiplies in float32 by the float32-rounded
        # scale.  With ``spacing`` the float32 spacing at ``absmax``:
        # the scale is off by at most half its own spacing, at most
        # spacing / 128 since absmax = 127 * scale, times |code| <= 127,
        # so under one spacing; the product, at most about absmax, is
        # rounded by at most one spacing more.  The error is taken in
        # float64, so its subtraction adds nothing.
        spacing = float(np.spacing(np.float32(absmax)))
        deq = quantize_dequantize(x, scale).astype(np.float64)
        err = np.abs(deq - x.astype(np.float64))
        assert np.all(err <= scale / 2 + 2 * spacing)


class TestWeightQuantizers:
    def test_per_tensor_reconstruction(self, rng):
        w = rng.normal(size=(8, 16)).astype(np.float32)
        qt = quantize_weight_per_tensor(w)
        err = np.abs(qt.dequantize() - w).max()
        assert err <= float(qt.scale) / 2 + 1e-6

    def test_per_channel_tighter_than_per_tensor(self, rng):
        w = rng.normal(size=(8, 16)).astype(np.float32)
        w[0] *= 50  # one loud row stretches the per-tensor scale
        pt = quantize_weight_per_tensor(w)
        pc = quantize_weight_per_channel(w)
        err_pt = np.abs(pt.dequantize() - w)[1:].mean()
        err_pc = np.abs(pc.dequantize() - w)[1:].mean()
        assert err_pc < err_pt / 5

    def test_per_group_tighter_than_per_tensor_with_outlier_col(self, rng):
        w = rng.normal(size=(4, 64)).astype(np.float32)
        w[:, 3] *= 50
        pt = quantize_weight_per_tensor(w)
        pg = quantize_weight_per_group(w, 16)
        mask = np.ones(64, bool)
        mask[0:16] = False  # ignore the group containing the outlier col
        err_pt = np.abs(pt.dequantize() - w)[:, mask].mean()
        err_pg = np.abs(pg.dequantize() - w)[:, mask].mean()
        assert err_pg < err_pt / 5

    def test_per_group_shape_metadata(self, rng):
        w = rng.normal(size=(4, 64)).astype(np.float32)
        qt = quantize_weight_per_group(w, 16)
        assert qt.group_size == 16
        assert qt.n_groups == 4
        assert qt.scale.shape == (4, 4)

    def test_per_group_indivisible_raises(self, rng):
        w = rng.normal(size=(4, 60)).astype(np.float32)
        with pytest.raises(QuantizationError):
            quantize_weight_per_group(w, 16)

    def test_zero_rows_get_unit_scale(self):
        w = np.zeros((3, 8), dtype=np.float32)
        qt = quantize_weight_per_channel(w)
        np.testing.assert_array_equal(qt.scale, 1.0)
        np.testing.assert_array_equal(qt.dequantize(), 0.0)


class TestQuantizedTensor:
    def test_rejects_non_int8(self):
        with pytest.raises(QuantizationError):
            QuantizedTensor(np.zeros((2, 2), dtype=np.int32), 1.0)

    def test_nbytes(self, rng):
        w = rng.normal(size=(8, 32)).astype(np.float32)
        qt = quantize_weight_per_group(w, 8)
        assert qt.nbytes() == 8 * 32 + qt.scale.size * 4

    def test_per_tensor_nbytes_smaller_than_per_group(self, rng):
        w = rng.normal(size=(8, 32)).astype(np.float32)
        assert (quantize_weight_per_tensor(w).nbytes()
                < quantize_weight_per_group(w, 8).nbytes())
