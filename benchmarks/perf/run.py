"""Script entry point: ``python3 benchmarks/perf/run.py ...``.

Puts the repo root and ``src/`` on ``sys.path`` (the driver runs the
command without ``PYTHONPATH``) and hands over to ``cli.main``.  The
clock starts here, before any import of the program, so set-up time
includes the imports.
"""

import os
import sys
import time

STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

if __name__ == "__main__":
    from benchmarks.perf.cli import main, pin_hash_seed

    pin_hash_seed(sys.argv[1:], [os.path.abspath(__file__)])
    raise SystemExit(main(sys.argv[1:], STARTED))
