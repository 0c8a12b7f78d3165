"""Interpreter vs. compiled-NumPy-backend parity for every application.

The compiled backend (runtime/codegen.py) mirrors the interpreter's
NumPy semantics operation for operation, so the two backends must agree
*bit for bit* on every app and both schedule variants — allclose with
zero tolerance.  These tests also pin down that real Python/NumPy
kernels were emitted (no silent interpreter fallback).
"""

import numpy as np
import pytest
from conftest import INT8_APP_IDS, INT8_APPS, SIMPLE_APP_IDS, SIMPLE_APPS

from repro.apps import (
    conv1d,
    dct_denoise,
    matmul,
    recursive_filter,
    resample,
)
from repro.runtime.kernel_cache import KernelCache


def assert_backends_agree(app):
    interpreted = app.run()
    compiled = app.run(backend="compile")
    np.testing.assert_allclose(interpreted, compiled, rtol=0, atol=0)


@pytest.mark.parametrize("module,params", SIMPLE_APPS, ids=SIMPLE_APP_IDS)
@pytest.mark.parametrize("variant", ["cuda", "tensor"])
class TestBackendParity:
    def test_backends_agree(self, module, params, variant):
        assert_backends_agree(module.build(variant, **params))


@pytest.mark.parametrize("variant", ["cuda", "tensor"])
class TestMultiStageBackendParity:
    def test_resample_pass(self, variant):
        assert_backends_agree(
            resample.build_pass(variant, in_size=256, out_size=57, columns=32)
        )

    def test_recursive_filter(self, variant):
        assert_backends_agree(recursive_filter.build(variant, samples=4096))

    def test_dct_denoise(self, variant):
        assert_backends_agree(dct_denoise.build(variant, num_tiles=8))


class TestQuantizedBackendParity:
    """The dp4a apps accumulate in exact int32: interpret, compile, and
    the numpy reference must agree bit for bit, not just allclose."""

    @pytest.mark.parametrize("builder,params", INT8_APPS, ids=INT8_APP_IDS)
    def test_int8_apps_bit_exact(self, builder, params):
        app = builder(**params)
        assert_backends_agree(app)
        np.testing.assert_array_equal(
            app.run(backend="compile"), app.reference()
        )

    def test_no_fallback_kernels(self):
        cache = KernelCache()
        app = matmul.build_int8(tiles=1)
        kernel = cache.get(app.compile().lowered)
        assert not kernel.is_fallback
        assert kernel.source is not None


class TestRealKernelsEmitted:
    """The apps must compile to real kernels, not the interpreter fallback."""

    @pytest.mark.parametrize("variant", ["cuda", "tensor"])
    def test_no_fallback(self, variant):
        cache = KernelCache()
        app = conv1d.build(variant, taps=16, rows=1)
        kernel = cache.get(app.compile().lowered)
        assert not kernel.is_fallback
        assert kernel.source is not None
        # the cuda variant is pure vector code: no interpreter at all
        if variant == "cuda":
            assert not kernel.needs_interp

    def test_compiled_output_matches_reference(self):
        # and the compiled path is still *correct*, not just self-consistent
        app = matmul.build("tensor", n=64)
        app.verify(backend="compile")


class TestInputKeyParity:
    """A request keyed by parameter *name* binds exactly like one keyed by
    the ``ImageParam``: numpy has no bfloat16, so the declared dtype has
    to come from the pipeline, not from the array (regression: the
    interpreter raised ``AMXError`` on name-keyed bf16 inputs)."""

    @pytest.mark.parametrize(
        "build",
        [
            matmul.build_amx,
            lambda: matmul.build_amx(layout="vnni"),
            lambda: matmul.build_int8(tiles=1),
        ],
        ids=["bf16", "bf16_vnni", "int8"],
    )
    def test_name_keyed_equals_param_keyed_on_both_backends(self, build):
        app = build()
        pipeline = app.compile()
        rng = np.random.default_rng(7)
        by_param = {}
        for param, array in app.inputs.items():
            if array.dtype.kind == "f":
                # not pre-rounded to bf16: ingest has to do the rounding
                fresh = rng.standard_normal(array.shape).astype(array.dtype)
            else:
                fresh = rng.integers(-128, 128, array.shape).astype(array.dtype)
            by_param[param] = fresh
        by_name = {param.name: array for param, array in by_param.items()}
        expected = pipeline.run(by_param, backend="interpret")
        for backend in ("interpret", "compile"):
            for inputs in (by_param, by_name):
                np.testing.assert_array_equal(
                    pipeline.run(inputs, backend=backend), expected
                )
                np.testing.assert_array_equal(
                    pipeline.plan(backend=backend).run(inputs), expected
                )
