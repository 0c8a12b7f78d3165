"""The kernel cache: memoization, invalidation, and counter routing."""

import numpy as np
import pytest
from conftest import stranded_v5

from repro import frontend as hl
from repro.lowering import lower
from repro.runtime import Counters
from repro.runtime.executor import CompiledPipeline, realize
from repro.runtime.kernel_cache import KernelCache, fingerprint_stmt


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


class TestDiskTier:
    def test_fresh_process_hits_disk_instead_of_recompiling(self, tmp_path):
        inp, f = build_pipeline()
        inputs = make_inputs(inp)
        hot = KernelCache(disk_dir=str(tmp_path))
        p1 = CompiledPipeline(lower(f), "compile", kernel_cache=hot)
        out1 = p1.run(inputs)
        assert (hot.misses, hot.disk_hits) == (1, 0)

        # a fresh cache over the same directory = a fresh process
        cold = KernelCache(disk_dir=str(tmp_path))
        _, f2 = build_pipeline()
        p2 = CompiledPipeline(lower(f2), "compile", kernel_cache=cold)
        out2 = p2.run(inputs)
        assert (cold.misses, cold.disk_hits, cold.hits) == (0, 1, 0)
        np.testing.assert_array_equal(out1, out2)
        # after re-hydration the kernel lives in memory: next run is a hit
        p2.run(inputs)
        assert cold.hits == 1

    def test_unimportable_disk_entry_recompiles(self, tmp_path):
        """A payload pickled against a module that no longer exists is
        dropped and recompiled, not raised out of run()."""
        inp, f = build_pipeline()
        cache = KernelCache(disk_dir=str(tmp_path))
        lowered = lower(f)
        kernel = cache.get(lowered)
        path = cache._disk_path(kernel.key)
        with open(path, "wb") as handle:
            # a GLOBAL opcode referencing a module that does not exist:
            # pickle.load raises ModuleNotFoundError
            handle.write(b"cno_such_module_xyz\nattr\n.")
        fresh = KernelCache(disk_dir=str(tmp_path))
        fresh.get(lowered)
        assert (fresh.misses, fresh.disk_hits) == (1, 0)
        # the recompile re-persisted a loadable entry
        assert fresh._disk_load(kernel.key) is not None

    def test_v5_entry_naming_a_vanished_core_recompiles(self, tmp_path):
        """A format-5 ``.kernel`` pickled a ``_bv_*`` core by reference;
        that name is gone, so the entry must demote to a recompile."""
        from repro.runtime.codegen import serialize_kernel

        inp, f = build_pipeline()
        cache = KernelCache(disk_dir=str(tmp_path))
        lowered = lower(f)
        kernel = cache.get(lowered)
        path = cache._disk_path(kernel.key)
        payload = serialize_kernel(kernel)
        with open(path, "wb") as handle:
            handle.write(stranded_v5(payload, payload))
        fresh = KernelCache(disk_dir=str(tmp_path))
        fresh.get(lowered)
        assert (fresh.misses, fresh.disk_hits) == (1, 0)
        assert fresh._disk_load(kernel.key) is not None  # re-persisted

    def test_corrupt_disk_entry_recompiles(self, tmp_path):
        inp, f = build_pipeline()
        cache = KernelCache(disk_dir=str(tmp_path))
        lowered = lower(f)
        kernel = cache.get(lowered)
        path = cache._disk_path(kernel.key)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        fresh = KernelCache(disk_dir=str(tmp_path))
        fresh.get(lowered)
        assert (fresh.misses, fresh.disk_hits) == (1, 0)

    def test_pipeline_exposes_cache_stats(self):
        cache = KernelCache()
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), "compile", kernel_cache=cache)
        assert pipe.cache_stats == {
            "hits": 0, "misses": 0, "disk_hits": 0, "entries": 0,
        }
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
    """The arbitrary-builder memoization the batch-axis variants ride."""

    def test_builds_once_then_hits(self, tmp_path):
        from repro.runtime.kernel_cache import batched_key

        cache = KernelCache(disk_dir=str(tmp_path))
        inp, f = build_pipeline()
        pipe = CompiledPipeline(lower(f), backend="compile",
                                kernel_cache=cache)
        pipe.run(make_inputs(inp))  # the scalar kernel, for a builder
        import copy

        key = batched_key(pipe.cache_key, frozenset([inp.name]))
        variant = copy.copy(cache.lookup(pipe.cache_key))
        variant.key = key  # as compile_batched_stmt stamps its kernels
        calls = []

        def build():
            calls.append(1)
            return variant

        assert cache.get_or_build(key, build) is variant
        assert cache.get_or_build(key, build) is variant
        assert len(calls) == 1

        # the disk tier re-hydrates a fresh process without rebuilding
        fresh = KernelCache(disk_dir=str(tmp_path))

        def never():
            raise AssertionError("disk tier should have served this")

        assert fresh.get_or_build(key, never).key == key
        assert fresh.disk_hits == 1

    def test_build_errors_are_not_cached(self):
        cache = KernelCache()

        def boom():
            raise RuntimeError("codegen failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", boom)
        # the failure was not memoized: a working builder still runs
        sentinel = object()
        assert cache.get_or_build("k", lambda: sentinel) is sentinel

    def test_batched_key_varies_with_split(self):
        from repro.runtime.kernel_cache import batched_key

        base = "stmt-fingerprint"
        a = batched_key(base, frozenset(["I"]))
        b = batched_key(base, frozenset(["I", "K"]))
        assert a != b != base
        # order-independent: frozenset iteration order must not leak
        assert a == batched_key(base, frozenset(["I"]))
        assert b == batched_key(base, frozenset(["K", "I"]))
