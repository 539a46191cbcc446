"""Property-based tests for the shadow-execution decomposition (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quant.base import quantize_int8
from repro.quant.shadow import ShadowOutlierLinear


def weights(draw, out_f, in_f):
    return draw(hnp.arrays(
        np.float32, (out_f, in_f),
        elements=st.floats(-2, 2, width=32),
    ))


@st.composite
def linear_cases(draw):
    in_f = draw(st.integers(4, 24))
    out_f = draw(st.integers(2, 16))
    rows = draw(st.integers(1, 8))
    w = weights(draw, out_f, in_f)
    x = draw(hnp.arrays(
        np.float32, (rows, in_f), elements=st.floats(-3, 3, width=32),
    ))
    scale = draw(st.floats(0.005, 0.2))
    # inject outliers into some columns
    n_out = draw(st.integers(0, min(3, in_f)))
    cols = draw(st.permutations(range(in_f)))[:n_out]
    for c in cols:
        x[:, c] *= draw(st.floats(5, 50))
    return w, x, scale


class TestEq1Decomposition:
    @settings(max_examples=50, deadline=None)
    @given(case=linear_cases())
    def test_shadow_reconstructs_outlier_columns_exactly(self, case):
        """On outlier columns, NPU half + shadow half equals the exact
        float product with the (dequantized) weights — Eq. 1's identity."""
        w, x, scale = case
        lin = ShadowOutlierLinear(w, scale, shadow_enabled=True,
                                  per_channel_weights=False)
        cols = lin.outlier_columns(x)
        main = lin.npu_half(x)
        shadow = lin.shadow_half(x, cols)
        combined = main + (shadow if shadow is not None else 0.0)

        # Eq. 1 exactly as the system computes it: the NPU half is the
        # clamped-quantized activation against the *quantized* weights;
        # the CPU half is the residual beyond the clamp against the
        # *float* weight columns kept in CPU memory.
        w_q = lin.qweight.dequantize()
        x_clamped = quantize_int8(x, scale).astype(np.float32) * scale
        expected = x_clamped @ w_q.T
        if cols.size:
            residual = (x - x_clamped)[:, cols]
            expected = expected + residual @ w[:, cols].T
        np.testing.assert_allclose(combined, expected, rtol=1e-3, atol=1e-3)

    @settings(max_examples=50, deadline=None)
    @given(case=linear_cases())
    # A large clamped activation on a near-zero weight column: the
    # clamped mass is 30% of ||x|| but only 0.8% of the output, the same
    # size as the int8 weight noise, so compensation need not win.
    @example(case=(
        np.array([[5e-05, 1, 5e-05, 5e-05], [5e-05] * 4], np.float32),
        np.array([[11.53125, 1.921875, 1.921875, 1.921875]], np.float32),
        0.0625,
    ))
    def test_shadow_improves_when_outliers_matter(self, case):
        """Compensation reduces the error whenever the clamped mass is
        significant *in the output* (``clamped @ w.T`` against
        ``x @ w.T``); otherwise the two paths may differ by at most the
        weight-quantization noise on the tiny residual (compensation
        uses float weights, the main path int8 ones — their rounding
        errors need not align)."""
        w, x, scale = case
        ref = x @ w.T
        on = ShadowOutlierLinear(w, scale, shadow_enabled=True)
        off = ShadowOutlierLinear(w, scale, shadow_enabled=False)
        err_on = float(np.linalg.norm(on(x) - ref))
        err_off = float(np.linalg.norm(off(x) - ref))
        clamped = x - np.clip(
            np.rint(x / scale), -127, 127
        ).astype(np.float32) * scale
        clamped_norm = float(np.linalg.norm(clamped))
        if (float(np.linalg.norm(clamped @ w.T))
                > 0.1 * float(np.linalg.norm(ref))):
            assert err_on <= err_off + 1e-4
        else:
            slack = clamped_norm * float(np.abs(w).max()) + 1e-4
            assert err_on <= err_off + slack

    @settings(max_examples=30, deadline=None)
    @given(case=linear_cases())
    def test_no_outliers_means_no_shadow_work(self, case):
        w, x, scale = case
        # choose a scale so nothing clamps
        big_scale = float(np.abs(x).max()) / 100.0 + 1e-6
        lin = ShadowOutlierLinear(w, big_scale, shadow_enabled=True)
        lin(x)
        assert lin.shadow_stats.outlier_channels[-1] == 0
        assert lin.stats.float_macs == 0


class TestEqualizationProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        in_f=st.integers(4, 16),
        out_f=st.integers(2, 8),
        seed=st.integers(0, 100),
    )
    def test_equalization_is_exact_in_float(self, in_f, out_f, seed):
        """x/e @ (w*e)^T == x @ w^T exactly (up to float rounding) —
        equalization only changes what the *quantizer* sees."""
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(out_f, in_f)).astype(np.float32)
        x = rng.normal(size=(5, in_f)).astype(np.float32)
        e = rng.uniform(0.1, 1.0, size=in_f).astype(np.float32)
        lhs = (x / e) @ (w * e[None, :]).T
        np.testing.assert_allclose(lhs, x @ w.T, rtol=1e-4, atol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_equalized_linear_matches_reference_closely(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 16)).astype(np.float32)
        x = rng.normal(size=(6, 16)).astype(np.float32)
        x[:, 8:] *= 0.02  # quiet half
        channel_absmax = np.abs(x).max(axis=0)
        threshold = float(channel_absmax.max())
        eq = np.minimum(channel_absmax / threshold, 1.0) ** 0.75
        lin = ShadowOutlierLinear(w, threshold / 127.0, equalize=eq)
        ref = x @ w.T
        rel = (np.linalg.norm(lin(x) - ref)
               / (np.linalg.norm(ref) + 1e-12))
        assert rel < 0.05
