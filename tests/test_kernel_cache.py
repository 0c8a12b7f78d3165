"""The kernel cache and the one kernel resolver: memoization,
invalidation, persistence through the artifact store, and counter
routing."""

import os

import re

import numpy as np
import pytest
from conftest import stranded_v5

from repro import frontend as hl
from repro.apps.common import App
from repro.lowering import lower
from repro.runtime import Counters, codegen, executor
from repro.runtime.codegen import serialize_kernel
from repro.runtime.executor import CompiledPipeline, realize
from repro.runtime.kernel_cache import (
    KernelCache,
    batched_key,
    fingerprint_stmt,
)
from repro.service.store import ArtifactStore, frame_blob


def build_pipeline(width=64, split=8, vector=8):
    inp = hl.ImageParam(hl.Float(32), 1, name="kc_in")
    x, xi = hl.Var("x"), hl.Var("xi")
    f = hl.Func("kc_out")
    f[x] = inp[x] * 2.0 + 1.0
    f.bound(x, 0, width)
    f.split(x, x, xi, split).vectorize(xi, vector)
    return inp, f


def make_inputs(inp, width=64):
    rng = np.random.default_rng(3)
    return {inp: rng.standard_normal(width).astype(np.float32)}


class TestMemoization:
    def test_same_pipeline_compiles_once(self):
        cache = KernelCache()
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile", kernel_cache=cache)
        inputs = make_inputs(inp)
        pipe.run(inputs)
        assert (cache.misses, cache.hits) == (1, 0)
        pipe.run(inputs)
        pipe.run(inputs)
        assert (cache.misses, cache.hits) == (1, 2)
        assert len(cache) == 1

    def test_equal_lowerings_share_a_kernel(self):
        # two independent lower() runs of the same schedule hit one entry
        cache = KernelCache()
        inp, f1 = build_pipeline()
        _, f2 = build_pipeline()
        p1 = CompiledPipeline(lower(f1), "compile", kernel_cache=cache)
        p2 = CompiledPipeline(lower(f2), "compile", kernel_cache=cache)
        p1.run(make_inputs(inp))
        p2.run(make_inputs(inp))
        assert (cache.misses, cache.hits) == (1, 1)

    def test_schedule_change_invalidates_key(self):
        _, a = build_pipeline(split=8)
        _, b = build_pipeline(split=16)
        _, c = build_pipeline(split=8, vector=4)
        keys = {fingerprint_stmt(lower(g).stmt) for g in (a, b, c)}
        assert len(keys) == 3

    def test_lru_eviction(self):
        cache = KernelCache(maxsize=2)
        stmts = [lower(build_pipeline(split=s)[1]) for s in (8, 16, 32)]
        for lowered in stmts:
            cache.get(lowered)
        assert len(cache) == 2
        assert cache.misses == 3
        # oldest entry was evicted: re-requesting it recompiles
        cache.get(stmts[0])
        assert cache.misses == 4


def kernel_files(root):
    return [
        os.path.join(folder, name)
        for folder, _, names in os.walk(root)
        for name in names
        if name.endswith(".kernel")
    ]


def stored_pipeline(root, **schedule):
    """A pipeline as a fresh process sees it: a private (empty) memory
    cache and a new store object over the on-disk directory ``root``."""
    inp, f = build_pipeline(**schedule)
    pipe = CompiledPipeline(lower(f), "compile", kernel_cache=KernelCache())
    pipe.artifact_store = ArtifactStore(root)
    return inp, pipe


def no_codegen(monkeypatch):
    """Make any codegen fail the test: the store must serve."""

    def boom(*args, **kwargs):
        raise AssertionError("codegen ran; the store should have served")

    monkeypatch.setattr(codegen, "compile_stmt", boom)
    monkeypatch.setattr(codegen, "compile_batched_stmt", boom)


class TestDiskTier:
    """Kernels reach disk through one format — the pipeline's artifact
    store, consulted by ``CompiledPipeline.kernel`` between the memory
    cache and codegen: checksummed, quarantined when rejected."""

    def test_fresh_process_hits_disk_instead_of_recompiling(
        self, tmp_path, monkeypatch
    ):
        inp, p1 = stored_pipeline(tmp_path)
        inputs = make_inputs(inp)
        out1 = p1.run(inputs)
        assert p1.kernel_cache.misses == 1
        assert p1.artifact_store.stats.writes == 1
        assert len(kernel_files(tmp_path)) == 1

        _, p2 = stored_pipeline(tmp_path)
        no_codegen(monkeypatch)
        out2 = p2.run(inputs)
        assert p2.artifact_store.stats.hits == 1
        assert p2.artifact_store.stats.writes == 0
        np.testing.assert_array_equal(out1, out2)
        # after re-hydration the kernel lives in memory: next run is a hit
        p2.run(inputs)
        assert (p2.kernel_cache.misses, p2.kernel_cache.hits) == (1, 1)

    def _rejected(self, tmp_path, blob):
        """Overwrite the persisted kernel with ``blob``; a fresh process
        must reject it, recompile, and re-persist a loadable entry."""
        inp, pipe = stored_pipeline(tmp_path)
        expected = pipe.run(make_inputs(inp))
        [path] = kernel_files(tmp_path)
        with open(path, "wb") as handle:
            handle.write(blob(pipe))
        _, fresh = stored_pipeline(tmp_path)
        np.testing.assert_array_equal(fresh.run(make_inputs(inp)), expected)
        stats = fresh.artifact_store.stats
        assert (stats.hits, stats.stale, stats.quarantined) == (0, 1, 1)
        assert stats.writes == 1
        assert ArtifactStore(tmp_path).get_kernel(fresh.cache_key) is not None

    def test_unimportable_disk_entry_recompiles(self, tmp_path):
        """A payload pickled against a module that no longer exists is
        quarantined and recompiled, not raised out of run()."""
        # a GLOBAL opcode referencing a module that does not exist,
        # framed so it passes the checksum: unpickling raises
        # ModuleNotFoundError
        self._rejected(
            tmp_path, lambda _: frame_blob(b"cno_such_module_xyz\nattr\n.")
        )

    def test_v5_entry_naming_a_vanished_core_recompiles(self, tmp_path):
        """A format-5 kernel pickled a ``_bv_*`` core by reference;
        that name is gone, so the entry must demote to a recompile."""

        def stranded(pipe):
            payload = dict(
                serialize_kernel(pipe.kernel()), key=pipe.cache_key
            )
            return frame_blob(stranded_v5(payload, payload))

        self._rejected(tmp_path, stranded)

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        self._rejected(tmp_path, lambda _: b"not a pickle")

    def test_flipped_source_byte_is_quarantined_not_served(
        self, tmp_path, monkeypatch
    ):
        """Regression: one flipped byte inside the emitted source of a
        persisted kernel (``*`` -> ``+``) used to be served silently,
        with wrong outputs, by a non-tensor ``App`` with ``cache_dir``;
        its kernels now ride the checksummed store like every other."""
        inp, f = build_pipeline()
        inputs = make_inputs(inp)

        def fresh_app():
            # a new process: empty process-wide cache, new App and store
            monkeypatch.setattr(executor, "DEFAULT_CACHE", KernelCache())
            return App(
                "kc", "cuda", f, inputs, reference=lambda: None,
                backend="compile", cache_dir=str(tmp_path),
            )

        expected = fresh_app().run()
        [path] = kernel_files(tmp_path)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        at = re.search(rb" \* _C\d+\)", data).start() + 1  # ``x * 2.0``: a constant
        data[at] = ord("+")
        with open(path, "wb") as handle:
            handle.write(bytes(data))

        app = fresh_app()
        np.testing.assert_array_equal(app.run(), expected)
        stats = app.compile().artifact_store.stats
        assert (stats.stale, stats.quarantined) == (1, 1)
        assert stats.writes == 1  # recompiled and re-persisted
        app = fresh_app()
        np.testing.assert_array_equal(app.run(), expected)
        assert app.compile().artifact_store.stats.hits == 1

    def test_pipeline_exposes_cache_stats(self):
        cache = KernelCache()
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), "compile", kernel_cache=cache)
        assert pipe.cache_stats == {"hits": 0, "misses": 0, "entries": 0}
        pipe.run(make_inputs(inp))
        pipe.run(make_inputs(inp))
        stats = pipe.cache_stats
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)

    def test_seed_kernel_rejects_foreign_kernel(self):
        from repro.runtime.codegen import compile_stmt

        inp, f = build_pipeline()
        _, other = build_pipeline(split=16)
        pipe = CompiledPipeline(lower(f), "compile", kernel_cache=KernelCache())
        other_lowered = lower(other)
        foreign = compile_stmt(
            other_lowered.stmt, key=fingerprint_stmt(other_lowered.stmt)
        )
        with pytest.raises(ValueError, match="does not match"):
            pipe.seed_kernel(foreign)


class TestCounterRouting:
    def test_counters_force_interpreter(self):
        """Instrumented runs bypass the compiled backend entirely."""
        cache = KernelCache()
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile", kernel_cache=cache)
        counters = Counters()
        out = pipe.run(make_inputs(inp), counters=counters)
        # the interpreter ran (it counted) and no kernel was compiled
        assert counters.scalar_flops > 0
        assert counters.total_store_bytes() > 0
        assert len(cache) == 0 and cache.misses == 0
        # and the uncounted compiled run agrees exactly
        compiled = pipe.run(make_inputs(inp))
        np.testing.assert_allclose(out, compiled, rtol=0, atol=0)
        assert cache.misses == 1

    def test_backend_validation(self):
        _, f = build_pipeline()
        with pytest.raises(ValueError, match="unknown backend"):
            CompiledPipeline(lower(f), backend="jit")
        with pytest.raises(ValueError, match="unknown backend"):
            CompiledPipeline(lower(f)).run(backend="turbo")


class TestRealize:
    def test_realize_backend_switch(self):
        inp, f = build_pipeline()
        inputs = make_inputs(inp)
        a = realize(f, inputs)
        _, f2 = build_pipeline()
        b = realize(f2, inputs, backend="compile")
        np.testing.assert_allclose(a, b, rtol=0, atol=0)


class TestGetOrBuild:
    """``CompiledPipeline.kernel``, the one resolver: memory, then the
    store, then codegen, for the per-request and every batch split."""

    def test_builds_once_then_hits(self, tmp_path, monkeypatch):
        inp, pipe = stored_pipeline(tmp_path)
        split = frozenset([inp.name, pipe.output_name])
        calls = []
        real = codegen.compile_batched_stmt

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(codegen, "compile_batched_stmt", counted)
        variant = pipe.kernel(split)
        assert variant.key == batched_key(pipe.cache_key, split)
        assert pipe.kernel(split) is variant
        assert len(calls) == 1
        assert pipe.kernel_cache.stats()["hits"] == 1

        # the store re-hydrates a fresh process without rebuilding
        _, fresh = stored_pipeline(tmp_path)
        no_codegen(monkeypatch)
        assert fresh.kernel(split).key == variant.key
        assert fresh.artifact_store.stats.hits == 1

    def test_build_errors_are_not_cached(self, monkeypatch):
        inp, f = build_pipeline()
        pipe = CompiledPipeline(
            lower(f), "compile", kernel_cache=KernelCache()
        )
        split = frozenset([inp.name, pipe.output_name])
        real = codegen.compile_batched_stmt

        def boom(*args, **kwargs):
            raise RuntimeError("codegen failed")

        monkeypatch.setattr(codegen, "compile_batched_stmt", boom)
        with pytest.raises(RuntimeError):
            pipe.kernel(split)
        # the failure was neither memoized nor taken as "unbatchable":
        # a working codegen still runs
        monkeypatch.setattr(codegen, "compile_batched_stmt", real)
        assert pipe.kernel(split) is not None
        assert split not in pipe._unbatchable

    def test_batched_key_varies_with_split(self):
        base = "stmt-fingerprint"
        a = batched_key(base, frozenset(["I"]))
        b = batched_key(base, frozenset(["I", "K"]))
        assert a != b != base
        # order-independent: frozenset iteration order must not leak
        assert a == batched_key(base, frozenset(["I"]))
        assert b == batched_key(base, frozenset(["K", "I"]))
