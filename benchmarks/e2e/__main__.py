"""Entry point: ``python3 benchmarks/e2e/__main__.py ...`` from the
repository root, or ``python -m benchmarks.e2e ...``."""

import sys

if __package__:
    from .cli import main
else:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
