"""Entry point of the benchmark; see ``bench.py`` for what it measures.

Pins BLAS to one thread before numpy loads, and imports ``hoicomp`` from the
``src`` directory next to this one, so the code measured is the checkout's.
"""

import os
import sys
from pathlib import Path

# one thread measured faster than two on the 2-core reference machine, and it
# keeps the training step steady; at most os.cpu_count() in any case
BLAS_THREADS = "1"

if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "hoicomp" / "__init__.py").is_file():
        print(f"error: no hoicomp sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bench

    sys.exit(bench.main())
