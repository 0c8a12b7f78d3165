"""``exec_inproc``: the selected code, run in this process.

Per program on the compiled backend, inputs keyed by ``ImageParam``:
steady-state ``ExecutionPlan.run`` (B=1), ``run_many(batch_axis=True)``
at B=32 and one interpreter run per round; then ``run_and_measure`` +
``PerfModel(A100)`` over the workload's cuda/tensor pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.perfmodel import PerfModel
from repro.runtime.codegen import compile_batched_stmt
from repro.runtime.executor import CompiledPipeline
from repro.runtime.kernel_cache import KernelCache
from repro.runtime.plan import bind_inputs
from repro.targets import amx, dp4a, wmma
from repro.targets.device import A100

from .catalog import KINDS, PAIR_NAMES, Program, Workload
from .compile_phases import compile_program
from .phase import PERF, Phase, PhaseResult
from .stats import geomean, low, median, share

BATCH = 32
#: B=1 calls per program per round (one B=32 call and one interpreter
#: run ride along)
B1_PER_ROUND = 8


def fresh_like(rng: np.random.Generator, array: np.ndarray) -> np.ndarray:
    """Seeded data of ``array``'s shape and dtype."""
    if array.dtype.kind == "f":
        return rng.standard_normal(array.shape).astype(array.dtype)
    return rng.integers(-16, 16, array.shape).astype(array.dtype)


def make_requests(rng, inputs: dict, count: int, by_name: bool) -> List[dict]:
    """``count`` same-shaped requests: fresh data for the first input,
    the *same* array object for every other input (the serving idiom
    for weights).  Request 0 is the app's own bundled input set."""
    items = list(inputs.items())
    data_key = items[0][0]
    requests = []
    for index in range(count):
        requests.append(
            {
                (key.name if by_name else key): (
                    fresh_like(rng, value)
                    if key is data_key and index
                    else value
                )
                for key, value in items
            }
        )
    return requests


@dataclass
class ExecItem:
    program: Program
    app: object
    pipeline: CompiledPipeline
    plan: object
    requests: List[dict]
    #: in-process single-request output per request (plan.run)
    expected: List[np.ndarray]


def prepare(workload: Workload, rng, rec, result: PhaseResult):
    """Compile every program, bind a plan, warm the batch-axis kernel
    and check interpreter == compiled == batched bitwise and compiled
    vs the app's reference.  Returns ``(items, warm-up seconds)``: the
    warm-up (compile + first run + batched codegen) is set-up a user
    pays; the checks are the benchmark's own work and are not billed."""
    cache = KernelCache()
    items: List[ExecItem] = []
    warmup_s = 0.0
    for program in workload.programs:
        result.attempted += 1
        start = PERF()
        try:
            app, _, tensorized, _, _ = compile_program(
                program, cache, rec, f"{program.name}#prepare"
            )
            pipeline = CompiledPipeline(
                tensorized, backend="compile", kernel_cache=cache
            )
            plan = pipeline.plan()
            requests = make_requests(rng, app.inputs, BATCH, by_name=False)
            first = plan.run(requests[0])
            batched = pipeline.run_many(requests, batch_axis=True)
        except Exception as exc:
            result.fail(f"exec prepare {program.name}: {exc!r}")
            continue
        warmup_s += PERF() - start
        expected = [first] + [plan.run(r) for r in requests[1:]]
        interp = pipeline.run(requests[0], backend="interpret")
        if not np.array_equal(interp, first):
            result.fail(f"{program.name}: interpreter != compiled (B=1)")
        for index, (got, want) in enumerate(zip(batched, expected)):
            if not np.array_equal(got, want):
                result.fail(
                    f"{program.name}: batched request {index} != compiled"
                )
                break
        reference = app.reference()
        if program.tol is None:
            ok = np.array_equal(first, reference)
        else:
            ok = np.allclose(
                first, reference, rtol=program.tol, atol=program.tol
            )
        if not ok:
            result.fail(f"{program.name}: compiled output != reference")
        items.append(
            ExecItem(program, app, pipeline, plan, requests, expected)
        )
    return items, warmup_s


def _check(result, item, got, index, what) -> None:
    result.attempted += 1
    if not np.array_equal(got, item.expected[index]):
        result.fail(f"exec {item.program.name}: {what} output {index} differs")


class Exec(Phase):
    """``exec_inproc``: the unit is one round over the programs."""

    def __init__(self, workload: Workload, items: List[ExecItem]) -> None:
        super().__init__()
        self.workload = workload
        self.items = items
        #: program -> (B=1, B=32, interpreter) call times in ms
        self.samples = {item.program.name: ([], [], []) for item in items}
        self.first_run_ms: List[float] = []
        self.cursor = 0

    def unit(self, rec, values) -> None:
        result = self.result
        round_first = 0.0
        for item in self.items:
            name = item.program.name
            b1_ms, b32_ms, interp_ms = self.samples[name]
            if rec.enabled:
                start = PERF()
                fresh = item.pipeline.plan()
                fresh.run(item.requests[0])
                round_first += (PERF() - start) * 1e3
            for step in range(B1_PER_ROUND):
                index = (self.cursor + step) % BATCH
                request = item.requests[index]
                with rec.span("plan.run", shared=name):
                    start = PERF()
                    out = item.plan.run(request)
                    b1_ms.append((PERF() - start) * 1e3)
                _check(result, item, out, index, "B=1")
            with rec.span("run_many", shared=name):
                start = PERF()
                outs = item.pipeline.run_many(item.requests, batch_axis=True)
                b32_ms.append((PERF() - start) * 1e3)
            for index, out in enumerate(outs):
                _check(result, item, out, index, "B=32")
            with rec.span("interpreter.run", shared=name):
                start = PERF()
                out = item.pipeline.run(item.requests[0], backend="interpret")
                interp_ms.append((PERF() - start) * 1e3)
            _check(result, item, out, 0, "interpreter")
        self.cursor += B1_PER_ROUND
        self.first_run_ms.append(round_first)

    def rows(self) -> Dict[str, dict]:
        return {
            item.program.name: {
                "kind": item.program.kind,
                "b1_ms": low(self.samples[item.program.name][0]),
                "b32_ms": low(self.samples[item.program.name][1]),
                "interp_ms": low(self.samples[item.program.name][2]),
                "b1_ms_median": median(self.samples[item.program.name][0]),
                "samples": [len(s) for s in self.samples[item.program.name]],
            }
            for item in self.items
        }

    def primary_value(self) -> float:
        return geomean(r["b1_ms"] for r in self.rows().values())

    def finish(self, traced: bool) -> PhaseResult:
        result = self.result
        rows = self.rows()
        result.detail["exec_by_program"] = rows
        calls = lambda which: sum(len(s[which]) for s in self.samples.values())
        result.e2e["exec_b1_ms_geomean"] = (
            geomean(r["b1_ms"] for r in rows.values()), calls(0),
        )
        result.e2e["exec_b32_ms_per_req_geomean"] = (
            geomean(r["b32_ms"] / BATCH for r in rows.values()), calls(1),
        )
        result.e2e["interp_ms_geomean"] = (
            geomean(r["interp_ms"] for r in rows.values()), calls(2),
        )
        speedups, counters = modelled_speedups(self.workload, result)
        result.e2e["modeled_speedup_geomean"] = (
            geomean(speedups.values()), len(speedups),
        )
        result.detail["modeled_speedup_by_pair"] = speedups
        if traced:
            result.layer.update(
                exec_layers(
                    self.items, rows, self.first_run_ms, speedups, counters
                )
            )
        return result


def modelled_speedups(workload: Workload, result: PhaseResult):
    """Modelled A100 time cuda / tensor per pair, from interpreter
    counters (exact: the counters do not depend on the data)."""
    model = PerfModel(A100)
    speedups: Dict[str, float] = {}
    totals = {"tensor_macs": 0, "bytes_moved": 0}
    for pair in workload.pairs:
        result.attempted += 1
        try:
            times = {}
            for variant, job in (("cuda", pair.cuda), ("tensor", pair.tensor)):
                app = job.build_app()
                _, counters = app.run_and_measure()
                times[variant] = model.estimate(
                    counters, kernels=app.kernels
                ).total_s
            totals["tensor_macs"] += counters.tensor_macs
            totals["bytes_moved"] += sum(
                nbytes
                for table in (counters.load_bytes, counters.store_bytes)
                for level, nbytes in table.items()
                if not level.endswith("_unique")
            )
            speedups[pair.name] = times["cuda"] / times["tensor"]
        except Exception as exc:
            result.fail(f"perfmodel {pair.name}: {exc!r}")
    return speedups, totals


def _stacked_names(item: ExecItem) -> frozenset:
    """Buffer names that carry the batch axis for ``item.requests``."""
    buffers, entries = bind_inputs(item.requests[0])
    names = {item.pipeline.output_name}
    for key, buf, array in entries:
        if any(r[key] is not array for r in item.requests[1:]):
            names.add(buf.name)
    return frozenset(names)


def exec_layers(items, rows, first_run_ms, speedups, counters) -> dict:
    layer: Dict[str, float] = {}
    for kind in KINDS:
        of_kind = [r for r in rows.values() if r["kind"] == kind]
        layer[f"plan.run_ms.{kind}"] = geomean(r["b1_ms"] for r in of_kind)
        layer[f"plan.batched_run_ms.{kind}"] = geomean(
            r["b32_ms"] for r in of_kind
        )
        layer[f"interpreter.run_ms.{kind}"] = geomean(
            r["interp_ms"] for r in of_kind
        )
    stats = [item.plan.stats() for item in items]
    total = lambda key: sum(s[key] for s in stats)
    layer["plan.first_run_ms"] = low(first_run_ms)
    layer["plan.buffer_reuse_share"] = share(
        total("buffer_reuses"), total("buffer_reuses") + total("buffer_allocs")
    )
    layer["plan.memo_hit_share"] = share(
        total("memo_hits"), total("memo_hits") + total("memo_misses")
    )
    layer["plan.rebinds"] = total("rebinds")
    batched_ms = 0.0
    batched_bytes = 0
    for item in items:
        start = PERF()
        kernel = compile_batched_stmt(
            item.pipeline.lowered.stmt, _stacked_names(item)
        )
        batched_ms += (PERF() - start) * 1e3
        batched_bytes += len(kernel.source or "")
    layer["codegen.compile_batched_stmt_ms"] = batched_ms
    layer["codegen.batched_source_bytes"] = batched_bytes
    layer["interpreter.tensor_macs"] = counters["tensor_macs"]
    layer["interpreter.bytes_moved"] = counters["bytes_moved"]
    for name in PAIR_NAMES:
        layer[f"perfmodel.speedup.{name}"] = speedups.get(name, 0.0)
    layer.update(target_probes())
    return layer


def _time_us(call, repeats: int = 200) -> float:
    samples = []
    for _ in range(repeats):
        start = PERF()
        call()
        samples.append((PERF() - start) * 1e6)
    return median(samples)


def target_probes() -> Dict[str, float]:
    """One fixed tile through each simulator's MAC, called directly."""
    rng = np.random.default_rng(0)
    c32 = np.zeros((16, 16), dtype=np.float32)
    a_bf = rng.standard_normal((16, 32)).astype(np.float32)
    b_vnni = amx.vnni_pack(rng.standard_normal((32, 16)).astype(np.float32))
    a16 = rng.standard_normal((16, 16)).astype(np.float16)
    b16 = rng.standard_normal((16, 16)).astype(np.float16)
    ci = np.zeros((16, 16), dtype=np.int32)
    a8 = rng.integers(-128, 128, (16, 64)).astype(np.int8)
    b_vnni4 = dp4a.vnni4_pack(rng.integers(-128, 128, (64, 16)).astype(np.int8))
    return {
        "targets.amx_tdpbf16ps_us": _time_us(
            lambda: amx.tdpbf16ps(c32, a_bf, b_vnni)
        ),
        "targets.wmma_mma_sync_us": _time_us(
            lambda: wmma.mma_sync(c32, a16, b16)
        ),
        "targets.dp4a_mac_us": _time_us(
            lambda: dp4a.dp4a_mac(ci, a8, b_vnni4)
        ),
    }
