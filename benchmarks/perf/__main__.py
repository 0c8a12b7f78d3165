"""``PYTHONPATH=src python -m benchmarks.perf ...``"""

import sys
import time

STARTED = time.perf_counter()

from .cli import main, pin_hash_seed  # noqa: E402  (the clock starts first)

pin_hash_seed(sys.argv[1:], ["-m", "benchmarks.perf"])
raise SystemExit(main(sys.argv[1:], STARTED))
