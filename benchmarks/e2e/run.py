"""Script entry point: ``python3 benchmarks/e2e/run.py --workload <name> ...``.

Same interface as ``python -m benchmarks.e2e``; usable from a checkout
without ``PYTHONPATH`` set.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
