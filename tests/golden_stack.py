"""The stack the byte goldens were recorded on, named in their failure messages.

The design digests depend on numpy's Generator.choice stream, which
numpy does not promise across versions, and the fit and study digests
on the LAPACK build behind eigh and on numpy's bincount sums.  The
numpy and scipy pins are read from the constraints file CI installs.
"""

import platform
from importlib.metadata import version
from pathlib import Path

RECORDED_PYTHON = "3.11.7"
CONSTRAINTS = Path(__file__).resolve().parent.parent / ".github" / "golden-stack.txt"


def stack_note() -> str:
    """Where a golden was recorded and what is running now."""
    pins = dict(
        line.split("==") for line in CONSTRAINTS.read_text().splitlines() if line and not line.startswith("#")
    )
    recorded = f"Python {RECORDED_PYTHON}, numpy {pins['numpy']}, scipy {pins['scipy']}"
    running = f"Python {platform.python_version()}, numpy {version('numpy')}, scipy {version('scipy')}"
    return f"golden recorded on {recorded}; this run is on {running}"
