"""Shared fixtures and app-suite definitions for the test suite.

The app parameter lists here are the single source of truth for "every
app" tests (backend parity, batch parity, serving): the fig-6 suite
apps at test-sized shapes, and the two quantized int8 apps.  Test
modules import the constants directly (``from conftest import ...``)
for parametrization and use the fixtures for per-test state.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import settings

from repro import frontend as hl
from repro.apps import (
    attention,
    conv1d,
    conv2d,
    conv_layer,
    downsample,
    matmul,
    upsample,
)

#: a failing generated example prints its ``@reproduce_failure`` blob, so
#: it can be replayed once the example database that held it is gone
settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")

#: (module, build kwargs) for every single-stage fig-6 app at test size;
#: build with ``module.build(variant, **params)``, variant in VARIANTS
SIMPLE_APPS = [
    (conv1d, {"taps": 16, "rows": 1}),
    (conv2d, {"taps": 16, "width": 512, "rows": 4}),
    (downsample, {"taps": 16, "width": 256, "rows": 4}),
    (upsample, {"width": 256, "rows": 2}),
    (matmul, {"n": 64}),
    (conv_layer, {"rows": 2}),
    (attention, {"length": 128}),
]

SIMPLE_APP_IDS = [m.__name__.split(".")[-1] for m, _ in SIMPLE_APPS]

#: both schedule variants every simple app supports
VARIANTS = ["cuda", "tensor"]

#: (builder, kwargs) for the quantized dp4a apps at test size
INT8_APPS = [
    (matmul.build_int8, {"tiles": 2}),
    (conv_layer.build_int8, {"width": 16, "rows": 1}),
]

INT8_APP_IDS = ["matmul_int8", "conv_layer_int8"]


@functools.lru_cache(maxsize=None)
def catalog_stores():
    """Every accelerator store of the 18-program benchmark catalog
    (``benchmarks/perf/catalog.py``), ready for saturation:
    ``(program name, TileExtractor, kind, marker-wrapped Store)``."""
    from benchmarks.perf.catalog import WORKLOADS
    from repro.hardboiled import TileExtractor
    from repro.lowering import lower

    stores = []
    for workload in WORKLOADS.values():
        for program in workload.programs:
            extractor = TileExtractor(lower(program.job.build_app().output))
            stores.extend(
                (program.name, extractor, kind, wrapped)
                for kind, wrapped in extractor.prepared_stores()
            )
    return stores


#: float16 bit patterns the type boundaries treat specially: +-0,
#: smallest and largest subnormal, smallest normal, +-65504, +-inf,
#: quiet and signalling NaNs with payloads
F16_SPECIALS = np.array(
    [0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x0400, 0x7BFF, 0xFBFF,
     0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01, 0x7D55, 0xFFFF],
    dtype=np.uint16,
)

#: float32 bit patterns: +-0, subnormals, +-inf, NaNs whose payload
#: sits wholly in the upper half-word (bf16-"exact" NaNs) or not, the
#: bf16 round-to-even ties and the carry into the exponent / into inf,
#: 65536.0 (past float16's range)
F32_SPECIALS = np.array(
    [0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x7F800000,
     0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F810000, 0xFFA50000,
     0x7F800001, 0x7FFFFFFF, 0x3F808000, 0x3F818000, 0x3F807FFF,
     0x3F808001, 0x3FFFFFFF, 0x7F7FFFFF, 0x7F7F8000, 0x00008000,
     0x47800000],
    dtype=np.uint32,
)


def assert_same_bytes(got, want):
    """Equal dtype, shape and raw bytes: NaN payloads and the sign of
    zero must survive, not just compare equal."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint8),
        np.ascontiguousarray(want).view(np.uint8),
    )


def _vanished_core():
    """Stands in for a core an older tree pickled by reference."""


def stranded_v5(payload, kernel: dict) -> bytes:
    """``payload`` pickled the way a format-5 process left it: its
    kernel dict's globals name ``repro.runtime.codegen._bv_tile_load``,
    a helper that no longer exists, so unpickling it raises
    ``AttributeError`` before any format field can be looked at."""
    kernel["format"] = 5
    kernel["globals"] = {**kernel["globals"], "_C_gone": _vanished_core}
    blob = pickle.dumps(payload, protocol=2)  # globals as module\nname\n
    marker = f"c{__name__}\n_vanished_core\n".encode()
    assert blob.count(marker) == 1
    blob = blob.replace(marker, b"crepro.runtime.codegen\n_bv_tile_load\n")
    with pytest.raises(AttributeError, match="_bv_tile_load"):
        pickle.loads(blob)
    return blob


def build_requests(app, count, rng, vary=1):
    """``count`` run_many requests for ``app``: fresh random data for
    the first ``vary`` input params, the app's own arrays — the *same
    objects* across requests, the serving idiom for weights — for the
    rest.  Keyed by param name."""
    params = list(app.inputs.items())
    requests = []
    for _ in range(count):
        request = {}
        for position, (param, array) in enumerate(params):
            if position < vary:
                if array.dtype.kind == "f":
                    fresh = rng.standard_normal(array.shape)
                    request[param.name] = fresh.astype(array.dtype)
                else:
                    request[param.name] = rng.integers(
                        -128, 128, array.shape
                    ).astype(array.dtype)
            else:
                request[param.name] = array
        requests.append(request)
    return requests


def build_vector_pipeline(width=64, split=8, vector=8):
    """A minimal pure-vector pipeline: ``out[x] = in[x] * 2 + 1``.

    Returns ``(input_param, func)``; shared by the serving and batched
    tests that need a cheap non-accelerator statement."""
    inp = hl.ImageParam(hl.Float(32), 1, name="sv_in")
    x, xi = hl.Var("x"), hl.Var("xi")
    f = hl.Func("sv_out")
    f[x] = inp[x] * 2.0 + 1.0
    f.bound(x, 0, width)
    f.split(x, x, xi, split).vectorize(xi, vector)
    return inp, f


def make_vector_input(width=64, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(width).astype(np.float32)


@pytest.fixture
def rng():
    """A per-test seeded generator — deterministic, isolated."""
    return np.random.default_rng(0xC60)


@pytest.fixture
def artifact_store(tmp_path):
    """A fresh on-disk ArtifactStore rooted in this test's tmp dir."""
    from repro.service import ArtifactStore

    return ArtifactStore(str(tmp_path / "artifacts"))


@pytest.fixture(autouse=True, scope="session")
def _no_stray_serving_state():
    """Session hygiene: the suite must not leak worker processes or
    shared-memory segments.  Runs after the last test; a failure here
    means some test tore a pool down without reclaiming its resources."""
    yield
    import multiprocessing
    import time

    from repro.service.shm import leaked_segments

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        strays = [
            process.name
            for process in multiprocessing.active_children()
            if process.name.startswith("repro-worker")
        ]
        leaked = leaked_segments()
        if not strays and not leaked:
            return
        time.sleep(0.05)
    assert not strays, f"stray worker processes survived the session: {strays}"
    assert not leaked, f"leaked /dev/shm segments survived the session: {leaked}"
