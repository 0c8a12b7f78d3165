"""Shared scaffolding for the case-study applications.

Every application exposes ``build(variant, **params) -> App`` where
``variant`` is ``"cuda"`` (best-effort vectorized schedule without tensor
accelerators) or ``"tensor"`` (the accelerator schedule).  An :class:`App`
bundles the scheduled output Func with its inputs, a numpy reference, and
the scale factor relating the interpreted (reduced) problem to the
paper's full-size problem — counters scale linearly with the iteration
domain, so reduced runs extrapolate exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from ..frontend.func import Func, ImageParam
from ..hardboiled import SelectionReport, select_instructions
from ..lowering import lower
from ..runtime import Counters
from ..runtime.executor import CompiledPipeline, _check_backend


@dataclass
class App:
    """A compiled-ready workload instance."""

    name: str
    variant: str
    output: Func
    inputs: Dict[ImageParam, np.ndarray]
    reference: Callable[[], np.ndarray]
    #: full-size problem is `scale_factor` x the interpreted one
    scale_factor: float = 1.0
    #: GPU kernel launches per full-size run (for launch overhead)
    kernels: int = 1
    description: str = ""
    #: default execution backend: "interpret" (instrumented) or
    #: "compile" (fast NumPy kernels); see repro.runtime.executor
    backend: str = "interpret"
    #: warm-start artifact directory (see repro.service); None compiles
    #: from scratch every process
    cache_dir: Optional[str] = None
    _pipeline: Optional[CompiledPipeline] = None
    _report: Optional[SelectionReport] = None

    def compile(self, cache_dir: Optional[str] = None) -> CompiledPipeline:
        if cache_dir is not None:
            if self._pipeline is not None and cache_dir != self.cache_dir:
                self._pipeline = None  # recompile through the store
            self.cache_dir = cache_dir
        if (
            self._pipeline is not None
            and self._pipeline.backend != self.backend
        ):
            # the backend was mutated after the first compile():
            # retarget the existing pipeline (validating the name)
            # instead of silently keeping the stale backend
            self._pipeline.backend = _check_backend(self.backend)
        if self._pipeline is None:
            lowered = lower(self.output)
            if self.variant == "tensor":
                if self.cache_dir is not None:
                    # warm start: a matching on-disk artifact skips
                    # saturation and codegen entirely
                    from ..service import warm_compile

                    self._pipeline, self._report = warm_compile(
                        lowered, self.cache_dir, backend=self.backend
                    )
                    return self._pipeline
                lowered, self._report = select_instructions(
                    lowered, strict=True
                )
            self._pipeline = CompiledPipeline(lowered, backend=self.backend)
            if self.cache_dir is not None:
                # no selection to cache, but compiled kernels still
                # persist, in the same checksummed store
                from ..service import ArtifactStore

                self._pipeline.artifact_store = ArtifactStore(self.cache_dir)
        return self._pipeline

    @property
    def report(self) -> Optional[SelectionReport]:
        self.compile()
        return self._report

    def run(
        self,
        counters: Optional[Counters] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Run once.  Counters force the interpreter backend."""
        return self.compile().run(
            self.inputs, counters=counters, backend=backend
        )

    def run_many(
        self,
        requests: Optional[list] = None,
        workers: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> list:
        """Serve a batch of requests through reusable execution plans.

        Each request is an input map like :attr:`inputs` (same keys and
        shapes, different data); ``None`` entries — or ``requests=None``
        itself, meaning a single-request batch — reuse the app's bundled
        inputs.  Fanned over ``workers`` threads with one plan + arena
        per worker; see :meth:`CompiledPipeline.run_many
        <repro.runtime.executor.CompiledPipeline.run_many>`.
        """
        if requests is None:
            requests = [self.inputs]
        requests = [
            self.inputs if request is None else request
            for request in requests
        ]
        return self.compile().run_many(
            requests, workers=workers, backend=backend
        )

    def run_and_measure(self):
        """Run once; returns (output, counters scaled to full size)."""
        counters = Counters()
        out = self.run(counters)
        return out, counters.scaled(self.scale_factor)

    def verify(
        self,
        rtol: float = 2e-2,
        atol: float = 2e-2,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        out = self.run(backend=backend)
        ref = self.reference()
        np.testing.assert_allclose(out, ref, rtol=rtol, atol=atol)
        return out


def f16_random(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float16)


def f32_random(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)
