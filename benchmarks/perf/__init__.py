"""The repo's traced benchmark: compile -> select -> execute -> serve.

One command measures the whole stack end to end (tracing off) and layer
by layer (``--trace 1``); ``BENCHMARK.json`` at the repo root names the
workloads and metrics.  See ``benchmarks/perf/README.md``.

    python3 benchmarks/perf/run.py --workload apps --seed 0 --seconds 40 --trace 0
    PYTHONPATH=src python -m benchmarks.perf --smoke
"""
