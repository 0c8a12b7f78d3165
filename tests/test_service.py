"""The warm-start compile service: artifact persistence, invalidation,
concurrency, and the batch driver."""

import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest
from conftest import build_requests, stranded_v5

from repro.apps import conv1d
from repro.hardboiled import SelectionError
from repro.ir.expr import fact
from repro.lowering import lower
from repro.service import (
    ArtifactKey,
    ArtifactStore,
    BatchCompiler,
    CompileArtifact,
    CompileJob,
    compile_lowered,
    compile_one,
    fingerprint_families,
    ruleset_fingerprint,
    warm_select,
)
from repro.service.store import ARTIFACT_FORMAT_VERSION
from repro.runtime.kernel_cache import KernelCache
from repro.service.store import frame_blob, unframe_blob


def small_app(taps=8):
    return conv1d.build("tensor", taps=taps, rows=1)


def _read_payload(path):
    """Unwrap one checksummed store payload (tests tamper semantically)."""
    with open(path, "rb") as handle:
        return pickle.loads(unframe_blob(handle.read()))


def _write_payload(path, payload):
    """Re-frame a tampered payload so only its *content* is invalid."""
    with open(path, "wb") as handle:
        handle.write(frame_blob(pickle.dumps(payload)))


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["interpret", "compile"])
    def test_restore_is_bit_exact(self, tmp_path, backend):
        """A restored pipeline produces the cold compile's exact bytes."""
        app = small_app()
        cold_pipe, cold_report = compile_lowered(
            lower(app.output), ArtifactStore(tmp_path), backend=backend
        )
        assert cold_report.artifact_cache == "miss"
        cold_out = cold_pipe.run(app.inputs, backend=backend)

        # a fresh store object stands in for a fresh process
        warm_app = small_app()
        warm_pipe, warm_report = compile_lowered(
            lower(warm_app.output), ArtifactStore(tmp_path), backend=backend
        )
        assert warm_report.artifact_cache == "hit"
        assert warm_report.all_mapped and warm_report.num_mapped == 3
        warm_out = warm_pipe.run(warm_app.inputs, backend=backend)
        np.testing.assert_array_equal(cold_out, warm_out)
        # the restored statement is structurally identical
        assert repr(warm_pipe.lowered.stmt) == repr(cold_pipe.lowered.stmt)

    def test_hit_skips_saturation_and_codegen(self, tmp_path):
        app = small_app()
        compile_lowered(
            lower(app.output), ArtifactStore(tmp_path), backend="compile"
        )
        store = ArtifactStore(tmp_path)
        pipe, report = compile_lowered(
            lower(small_app().output), store, backend="compile"
        )
        assert report.eqsat_seconds == 0.0 and not report.selections
        assert store.stats.hits == 1
        # the kernel arrived pre-seeded: the first run is a cache hit,
        # never a codegen miss
        before = pipe.kernel_cache.stats()
        pipe.run(app.inputs)
        after = pipe.kernel_cache.stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_backend_and_device_are_part_of_the_key(self, tmp_path):
        app = small_app()
        store = ArtifactStore(tmp_path)
        warm_select(lower(app.output), store, backend="interpret")
        result = warm_select(
            lower(small_app().output), store, backend="compile"
        )
        assert result.report.artifact_cache == "miss"
        result = warm_select(
            lower(small_app().output), store, backend="compile", device="A100"
        )
        assert result.report.artifact_cache == "miss"
        result = warm_select(
            lower(small_app().output), store, backend="compile", device="A100"
        )
        assert result.report.artifact_cache == "hit"

    def test_iterations_are_part_of_the_key(self, tmp_path):
        """A shallow-saturation artifact must never serve a deeper
        compile (it can legitimately have mapped fewer stores)."""
        store = ArtifactStore(tmp_path)
        warm_select(
            lower(small_app().output), store, backend="interpret",
            iterations=1, strict=False,
        )
        result = warm_select(
            lower(small_app().output), store, backend="interpret",
            iterations=14,
        )
        assert result.report.artifact_cache == "miss"
        result = warm_select(
            lower(small_app().output), store, backend="interpret",
            iterations=14,
        )
        assert result.report.artifact_cache == "hit"

    def test_app_compile_cache_dir(self, tmp_path):
        """App.compile(cache_dir=...) takes the warm path end to end."""
        cold = small_app()
        cold.backend = "compile"
        cold.compile(cache_dir=str(tmp_path))
        assert cold.report.artifact_cache == "miss"
        cold_out = cold.run()

        warm = small_app()
        warm.backend = "compile"
        warm.cache_dir = str(tmp_path)
        assert warm.report.artifact_cache == "hit"
        np.testing.assert_array_equal(cold_out, warm.run())

    def test_cached_node_facts_stay_out_of_the_artifact(self, tmp_path):
        """Selection and codegen read ``type``/``free_vars``/``size``/
        ``buffers`` on the statement they store; none of it may reach
        the disk, and a restored statement answers the same questions."""

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        def stored_facts(stmt):
            return {k for n in walk(stmt) for k in fact.names & vars(n).keys()}

        def answers(stmt):
            return [
                (n.size, n.free_vars, getattr(n, "type", None))
                for n in walk(stmt)
            ]

        store = ArtifactStore(tmp_path)
        pipe, _ = compile_lowered(
            lower(small_app().output), store, backend="compile"
        )
        live = pipe.lowered.stmt
        expected = answers(live)
        assert stored_facts(live) == {"size", "free_vars", "type", "buffers"}
        (digest,) = store.digests()
        path = store.path_for(digest)
        with open(path, "rb") as handle:
            assert b"free_vars" not in handle.read()
        assert b"free_vars" not in pickle.dumps(live)
        restored = _read_payload(path).stmt
        assert restored == live and not stored_facts(restored)
        assert answers(restored) == expected


class TestInvalidation:
    def test_rule_change_invalidates_fingerprint(self):
        """Dropping/altering any rule family changes the rule hash."""
        from repro.hardboiled.rules_axiomatic import axiomatic_rules
        from repro.hardboiled.rules_wmma import wmma_rules

        full = (("axiomatic", axiomatic_rules), ("wmma", wmma_rules))
        assert fingerprint_families(full) != fingerprint_families(full[:1])

        def doctored_wmma():
            rules, relations = wmma_rules()
            return rules[:-1], relations  # one rule removed

        doctored = (("axiomatic", axiomatic_rules), ("wmma", doctored_wmma))
        assert fingerprint_families(full) != fingerprint_families(doctored)
        # and the hash is deterministic for identical content
        assert fingerprint_families(full) == fingerprint_families(full)

    def test_stale_rules_fingerprint_misses(self, tmp_path):
        """An artifact persisted under old rules is never served."""
        app = small_app()
        store = ArtifactStore(tmp_path)
        result = warm_select(lower(app.output), store, backend="compile")
        assert result.report.artifact_cache == "miss"
        assert len(store) == 1

        stale_key = ArtifactKey(
            stmt=result.key.stmt,
            rules="0" * 64,  # a rule file changed: different fingerprint
            backend=result.key.backend,
            device=result.key.device,
        )
        assert store.get(stale_key) is None
        # the old artifact is still on disk (different address), and the
        # current-fingerprint lookup still hits
        assert len(store) == 1
        assert store.get(result.key) is not None

    def test_format_version_bump_rejects_artifact(self, tmp_path):
        app = small_app()
        store = ArtifactStore(tmp_path)
        result = warm_select(lower(app.output), store, backend="interpret")
        path = store.path_for(result.key.digest)
        artifact = _read_payload(path)
        artifact.format_version = ARTIFACT_FORMAT_VERSION + 1
        _write_payload(path, artifact)
        fresh = ArtifactStore(tmp_path)
        assert fresh.get(result.key) is None
        assert fresh.stats.stale == 1
        assert not os.path.exists(path)  # rejected artifacts are dropped

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        app = small_app()
        store = ArtifactStore(tmp_path)
        result = warm_select(lower(app.output), store, backend="interpret")
        path = store.path_for(result.key.digest)
        with open(path, "wb") as handle:
            handle.write(b"\x80\x05 torn write garbage")
        fresh = ArtifactStore(tmp_path)
        assert fresh.get(result.key) is None
        assert fresh.stats.stale == 1
        # and the compile falls through to a working cold path
        result = warm_select(lower(small_app().output), fresh, backend="interpret")
        assert result.report.artifact_cache == "miss"

    def test_strict_restored_artifact_honors_unmapped(self, tmp_path):
        """A (hypothetical) partially-mapped artifact raises under strict."""
        app = small_app()
        store = ArtifactStore(tmp_path)
        result = warm_select(lower(app.output), store, backend="interpret")
        path = store.path_for(result.key.digest)
        artifact = _read_payload(path)
        artifact.store_rows[0]["mapped"] = False
        _write_payload(path, artifact)
        fresh = ArtifactStore(tmp_path)
        with pytest.raises(SelectionError):
            warm_select(
                lower(small_app().output), fresh, backend="interpret",
                strict=True,
            )

    def test_stale_kernel_payload_falls_back_to_cold_compile(self, tmp_path):
        """A kernel-format bump (without an artifact-format bump) must
        recompile cold, not crash every warm start — whether the
        payload is from the future, a pre-lane-loop v3 kernel, a v4
        kernel (no MAC-slot literal on its loads, no ``macs`` report)
        whose source would run against today's helper globals, a v5
        kernel, a v5 kernel as it really sits on disk (its globals name
        a ``_bv_*`` core that is gone, so it does not even unpickle), or
        a v6 kernel (every MAC input converted per tile, no ``.widen``
        preamble, no exact flags on its MACs), a v7 kernel (its serial
        loops re-derive every tile and shuffle per iteration), a v8
        kernel (its stacks may be None, and it calls a ``_stack``
        helper that is gone), a v9 kernel (its batched block loops
        run one Python iteration per lane), a v10 kernel (its serial
        MAC nests and softmax loops run one Python iteration each), or a
        v11 kernel (it takes an ``_interp`` argument that kernels no
        longer get)."""
        from repro.runtime.codegen import KERNEL_FORMAT_VERSION

        assert KERNEL_FORMAT_VERSION == 12
        for stale_format in (
            KERNEL_FORMAT_VERSION + 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, "stranded",
        ):
            root = tmp_path / f"v{stale_format}"
            app = small_app()
            store = ArtifactStore(root)
            result = warm_select(lower(app.output), store, backend="compile")
            path = store.path_for(result.key.digest)
            artifact = _read_payload(path)
            assert artifact.kernel is not None
            assert "loops" in artifact.kernel
            assert "macs" in artifact.kernel
            if stale_format == "stranded":
                with open(path, "wb") as handle:
                    handle.write(
                        frame_blob(stranded_v5(artifact, artifact.kernel))
                    )
            else:
                artifact.kernel["format"] = stale_format
                _write_payload(path, artifact)

            fresh = ArtifactStore(root)
            result = warm_select(
                lower(small_app().output), fresh, backend="compile"
            )
            assert result.report.artifact_cache == "miss"
            assert result.kernel is not None
            # both telemetry surfaces agree the lookup missed
            assert fresh.stats.hits == 0
            assert fresh.stats.stale == 1
            assert fresh.stats.misses >= 1
            # the stale artifact was overwritten: the next lookup hits
            result = warm_select(
                lower(small_app().output), ArtifactStore(root),
                backend="compile",
            )
            assert result.report.artifact_cache == "hit"

    def test_custom_apps_forward_backend_to_artifact(self, tmp_path):
        """dct_denoise/recursive_filter key artifacts under their
        backend, so compiled-backend artifacts carry the kernel."""
        from repro.apps import dct_denoise

        cold = dct_denoise.build(
            "tensor", num_tiles=4, cache_dir=str(tmp_path), backend="compile"
        )
        assert cold.report.artifact_cache == "miss"
        cold_out = cold.run()

        warm = dct_denoise.build(
            "tensor", num_tiles=4, cache_dir=str(tmp_path), backend="compile"
        )
        assert warm.report.artifact_cache == "hit"
        # the kernel came from the artifact: the first compiled run is a
        # cache hit, codegen never runs in the warm process
        cache = warm.pipeline.kernel_cache
        misses_before = cache.misses
        warm_out = warm.run()
        assert cache.misses == misses_before
        np.testing.assert_array_equal(cold_out, warm_out)

    def test_ruleset_fingerprint_is_cached_and_stable(self):
        first = ruleset_fingerprint()
        assert first == ruleset_fingerprint()
        ruleset_fingerprint.cache_clear()
        assert first == ruleset_fingerprint()

    def test_fingerprint_tracks_selection_rule_registry(self, monkeypatch):
        """Registering a new accelerator family for selection changes
        the fingerprint without touching fingerprint.py."""
        from repro.hardboiled import tile_extractor
        from repro.hardboiled.rules_wmma import wmma_rules

        baseline = ruleset_fingerprint()
        monkeypatch.setattr(
            tile_extractor,
            "_APP_RULES",
            {**tile_extractor._APP_RULES, "newaccel": wmma_rules},
        )
        ruleset_fingerprint.cache_clear()
        try:
            assert ruleset_fingerprint() != baseline
        finally:
            ruleset_fingerprint.cache_clear()

    def test_unwritable_store_still_compiles(self, tmp_path, monkeypatch):
        """A read-only artifact mount degrades to 'not cached', it does
        not fail the compile."""
        from repro.service import store as store_module

        def denied(path, blob):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(store_module, "atomic_write_bytes", denied)
        store = ArtifactStore(tmp_path)
        result = warm_select(
            lower(small_app().output), store, backend="compile"
        )
        assert result.report.artifact_cache == "miss"
        assert result.kernel is not None
        assert store.stats.write_errors == 1
        assert len(store) == 0


def _kernel_files(root):
    return [
        os.path.join(dirpath, name)
        for dirpath, _, files in os.walk(root)
        for name in files
        if name.endswith(".kernel")
    ]


class TestBatchedKernelPersistence:
    """Batch-axis kernel variants ride the same artifact store as the
    scalar compile: persisted under digested batch-aware keys, restored
    bit-exactly, and stale formats recompiled — never served."""

    def _compiled(self, store):
        # a fresh KernelCache stands in for a fresh process: the shared
        # DEFAULT_CACHE would satisfy batched lookups in memory and the
        # store would never be consulted
        app = small_app()
        pipe, _ = compile_lowered(
            lower(app.output), store, backend="compile",
            kernel_cache=KernelCache(),
        )
        return app, pipe

    def test_batched_kernel_restores_across_processes(self, tmp_path):
        app, pipe = self._compiled(ArtifactStore(tmp_path))
        requests = build_requests(app, 4, np.random.default_rng(7))
        cold = pipe.run_many(requests, batch_axis=True)
        assert len(_kernel_files(tmp_path)) == 1

        # a fresh store + pipeline stands in for a fresh process: the
        # batched kernel must restore (artifact hit + kernel hit, zero
        # writes) and reproduce the cold bytes
        warm_store = ArtifactStore(tmp_path)
        _, warm_pipe = self._compiled(warm_store)
        assert warm_store.stats.hits == 1  # the .artifact
        warm = warm_pipe.run_many(requests, batch_axis=True)
        assert warm_store.stats.hits == 2  # ... and the .kernel
        assert warm_store.stats.writes == 0
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)

    def test_stale_kernel_format_recompiles_and_repersists(self, tmp_path):
        """A ``.kernel`` from another format — or a v5 one as it sits
        on disk, whose pickled ``_bv_*`` core no longer exists — is a
        stale miss, never an error."""
        from repro.runtime.codegen import KERNEL_FORMAT_VERSION

        for stranded in (False, True):
            root = tmp_path / f"stranded-{stranded}"
            app, pipe = self._compiled(ArtifactStore(root))
            requests = build_requests(app, 3, np.random.default_rng(11))
            cold = pipe.run_many(requests, batch_axis=True)
            [path] = _kernel_files(root)
            payload = _read_payload(path)
            assert payload["format"] == KERNEL_FORMAT_VERSION
            if stranded:
                with open(path, "wb") as handle:
                    handle.write(frame_blob(stranded_v5(payload, payload)))
            else:
                payload["format"] = KERNEL_FORMAT_VERSION + 1
                _write_payload(path, payload)

            fresh_store = ArtifactStore(root)
            _, fresh_pipe = self._compiled(fresh_store)
            out = fresh_pipe.run_many(requests, batch_axis=True)
            for a, b in zip(cold, out):
                np.testing.assert_array_equal(a, b)
            assert fresh_store.stats.stale == 1
            assert fresh_store.stats.writes == 1  # re-persisted, current

            # the rewritten kernel serves the next process: no staleness
            final_store = ArtifactStore(root)
            _, final_pipe = self._compiled(final_store)
            final_pipe.run_many(requests, batch_axis=True)
            assert final_store.stats.stale == 0
            assert final_store.stats.writes == 0

    def test_embedded_key_mismatch_is_stale(self, tmp_path):
        app, pipe = self._compiled(ArtifactStore(tmp_path))
        requests = build_requests(app, 2, np.random.default_rng(3))
        pipe.run_many(requests, batch_axis=True)
        [path] = _kernel_files(tmp_path)
        payload = _read_payload(path)
        payload["key"] = payload["key"] + "-moved"
        _write_payload(path, payload)
        store = ArtifactStore(tmp_path)
        _, fresh_pipe = self._compiled(store)
        fresh_pipe.run_many(requests, batch_axis=True)
        assert store.stats.stale == 1


class TestConcurrency:
    def test_concurrent_writers_leave_store_consistent(self, tmp_path):
        """Many processes hammering one store: no torn artifacts, no
        leftover temp files, every artifact loads."""
        jobs = [
            CompileJob.make("conv1d", taps=taps, rows=1)
            for taps in (8, 16)
            for _ in range(3)  # duplicates race on the same digest
        ]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=4) as pool:
            results = pool.starmap(
                compile_one, [(job, str(tmp_path), "host") for job in jobs]
            )
        assert all(r.ok for r in results), [r.error for r in results]
        store = ArtifactStore(tmp_path)
        digests = set(store.digests())
        assert len(digests) == 2  # one artifact per distinct key
        for digest in digests:
            with open(store.path_for(digest), "rb") as handle:
                artifact = pickle.loads(unframe_blob(handle.read()))
            assert isinstance(artifact, CompileArtifact)
            assert artifact.key_digest == digest
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_concurrent_kernel_writers_stay_atomic(self, tmp_path):
        """Threads hammering one batched-kernel key: readers see a full
        payload or a miss, never a torn one; no temp files survive."""
        app = small_app()
        pipe, _ = compile_lowered(
            lower(app.output), ArtifactStore(tmp_path), backend="compile",
            kernel_cache=KernelCache(),
        )
        requests = build_requests(app, 2, np.random.default_rng(5))
        pipe.run_many(requests, batch_axis=True)
        kernel = pipe._default_plan._stacked.kernel

        store = ArtifactStore(tmp_path)
        failures = []

        def writer():
            for _ in range(12):
                if store.put_kernel("contended-key", kernel) is None:
                    failures.append("write skipped")

        def reader():
            for _ in range(24):
                got = store.get_kernel("contended-key")
                if got is not None and not hasattr(got, "fn"):
                    failures.append("torn read")

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert store.stats.stale == 0  # a torn payload would count here
        assert store.get_kernel("contended-key") is not None
        leftovers = [
            name
            for _, _, files in os.walk(tmp_path)
            for name in files
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_batch_compiler_populates_then_hits(self, tmp_path):
        jobs = [
            CompileJob.make("conv1d", taps=8, rows=1),
            CompileJob.make("matmul", builder="build_amx", variant=None,
                            tiles=1),
        ]
        compiler = BatchCompiler(str(tmp_path), max_workers=2)
        first = compiler.compile_many(jobs)
        assert [r.error for r in first.results] == [None, None]
        assert first.misses == 2 and first.hits == 0
        second = compiler.compile_many(jobs)
        assert second.hits == 2 and second.misses == 0
        assert second.summary()["eqsat_seconds"] == 0.0

    def test_batch_compiler_serial_mode_and_errors(self, tmp_path):
        jobs = [
            CompileJob.make("conv1d", taps=8, rows=1),
            CompileJob.make("conv1d", taps=7, rows=1),  # invalid: not %8
        ]
        report = BatchCompiler(str(tmp_path), max_workers=1).compile_many(jobs)
        ok, bad = report.results
        assert ok.ok and ok.cache == "miss"
        assert not bad.ok and "ValueError" in bad.error
        assert len(report.errors) == 1


class TestBatchJobSpecs:
    def test_job_label_and_build(self):
        job = CompileJob.make("matmul", variant="tensor", n=16)
        assert "matmul.build" in job.label and "n=16" in job.label
        app = job.build_app()
        assert app.name.startswith("matmul")

    def test_jobs_are_picklable(self):
        job = CompileJob.make("conv1d", taps=8, rows=1)
        assert pickle.loads(pickle.dumps(job)) == job
