"""Entry point: ``python -m benchmarks.perf`` or ``python3 benchmarks/perf/__main__.py``."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: make the repository root importable.
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
