"""Property and unit tests for the linalg substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    build_resample_matrix,
    conv1d_reference,
    conv_toeplitz,
    dct2,
    dct_matrix,
    direct_dct_flop_count,
    downsample_toeplitz,
    fast_dct,
    fast_dct_flop_count,
    hoppe_tiled_filter,
    idct2,
    lanczos,
    recursive_filter_serial,
    resample_2d,
    sla_decompose,
    sla_filter,
    upsample_matrix,
)


class TestToeplitz:
    @settings(max_examples=20, deadline=None)
    @given(taps=st.sampled_from([4, 8, 16]), seed=st.integers(0, 50))
    def test_property_conv_toeplitz(self, taps, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal(taps).astype(np.float32)
        outputs = 16
        signal = rng.standard_normal(outputs + taps).astype(np.float32)
        a = conv_toeplitz(kernel, outputs)
        out = signal @ a
        ref = conv1d_reference(signal, kernel)[: outputs]
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_downsample_toeplitz(self):
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal(8).astype(np.float32)
        outputs = 8
        signal = rng.standard_normal(2 * outputs + 8).astype(np.float32)
        a = downsample_toeplitz(kernel, outputs)
        out = signal @ a
        ref = np.array(
            [(signal[2 * j : 2 * j + 8] * kernel).sum() for j in range(outputs)]
        )
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-4)

    def test_upsample_matrix_phases(self):
        rng = np.random.default_rng(7)
        kernel = rng.standard_normal(8).astype(np.float32)
        in_pos = 8
        signal = rng.standard_normal(in_pos + 4).astype(np.float32)
        a = upsample_matrix(kernel, in_pos)
        out = signal @ a
        # out[2u + p] = sum_r I[u + r] * K[2r + p]
        for j in range(2 * in_pos):
            u, p = divmod(j, 2)
            ref = sum(
                signal[u + r] * kernel[2 * r + p] for r in range(4)
            )
            np.testing.assert_allclose(out[j], ref, rtol=1e-3, atol=1e-4)


class TestDCT:
    def test_orthonormal(self):
        d = dct_matrix(16)
        np.testing.assert_allclose(d @ d.T, np.eye(16), atol=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 16))
        np.testing.assert_allclose(idct2(dct2(x)), x, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.sampled_from([2, 4, 8, 16, 32]), seed=st.integers(0, 50)
    )
    def test_property_fast_dct_matches_direct(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, n))
        np.testing.assert_allclose(fast_dct(x), dct2(x), atol=1e-10)

    def test_flop_counts_match_paper_ratio(self):
        # paper §V-E: direct 16-point DCT does ~3.6x the FLOPs of fast
        ratio = direct_dct_flop_count(16) / fast_dct_flop_count(16)
        assert 2.0 < ratio < 5.0

    def test_dc_component(self):
        x = np.full((1, 16), 2.0)
        coeffs = dct2(x)
        assert abs(coeffs[0, 0] - 2.0 * np.sqrt(16)) < 1e-10
        np.testing.assert_allclose(coeffs[0, 1:], 0, atol=1e-12)


class TestLanczos:
    def test_kernel_properties(self):
        assert lanczos(np.array([0.0]))[0] == pytest.approx(1.0)
        np.testing.assert_allclose(
            lanczos(np.array([1.0, 2.0, 3.0, 4.0])), [0, 0, 0, 0], atol=1e-12
        )

    def test_constant_image_preserved(self):
        matrix = build_resample_matrix(64, 23)
        ones = np.ones((64, 5), dtype=np.float32)
        out = matrix.apply(ones)
        np.testing.assert_allclose(out, 1.0, atol=1e-4)

    def test_block_sparse_matches_dense(self):
        rng = np.random.default_rng(13)
        matrix = build_resample_matrix(64, 23)
        columns = rng.standard_normal((64, 4)).astype(np.float32)
        np.testing.assert_allclose(
            matrix.apply(columns),
            matrix.to_dense() @ columns,
            rtol=1e-4,
            atol=1e-4,
        )

    def test_band_width_rounded_to_16(self):
        matrix = build_resample_matrix(2048, 143)
        assert matrix.width % 16 == 0

    def test_2d_resize_shape_and_smoothness(self):
        rng = np.random.default_rng(17)
        image = rng.standard_normal((64, 48)).astype(np.float32)
        out = resample_2d(image, 23, 17)
        assert out.shape == (23, 17)
        smooth = resample_2d(np.ones((64, 48), np.float32), 23, 17)
        np.testing.assert_allclose(smooth, 1.0, atol=1e-3)


class TestRecursiveFilter:
    A, B = 1.2, -0.5  # stable complex-pole pair

    def signal(self, n=512, seed=19):
        return np.random.default_rng(seed).standard_normal(n)

    def test_serial_reference(self):
        y = recursive_filter_serial(np.array([1.0, 0.0, 0.0]), 0.5, 0.0)
        np.testing.assert_allclose(y, [1.0, 0.5, 0.25])

    @settings(max_examples=15, deadline=None)
    @given(d=st.sampled_from([2, 4, 8]), seed=st.integers(0, 30))
    def test_property_sla_equals_serial(self, d, seed):
        x = np.random.default_rng(seed).standard_normal(256)
        ref = recursive_filter_serial(x, self.A, self.B)
        out = sla_filter(x, self.A, self.B, d)
        np.testing.assert_allclose(out, ref, rtol=1e-8, atol=1e-8)

    def test_sla_fir_length(self):
        fir, a_d, b_d = sla_decompose(self.A, self.B, 8)
        assert len(fir) == 2 * 8 - 1
        assert fir[0] == pytest.approx(1.0)

    @settings(max_examples=15, deadline=None)
    @given(tile=st.sampled_from([32, 64, 128]), seed=st.integers(0, 30))
    def test_property_hoppe_equals_serial(self, tile, seed):
        x = np.random.default_rng(seed).standard_normal(512)
        ref = recursive_filter_serial(x, self.A, self.B)
        out = hoppe_tiled_filter(x, self.A, self.B, tile)
        np.testing.assert_allclose(out, ref, rtol=1e-8, atol=1e-8)

    def test_unstable_dilation_still_exact(self):
        # decomposition is algebraically exact even near instability
        x = self.signal(128)
        ref = recursive_filter_serial(x, 1.8, -0.81)
        out = sla_filter(x, 1.8, -0.81, 4)
        np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)
