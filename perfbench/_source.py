"""Locate the library source of the checkout the benchmark runs in."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_checkout_source() -> Path:
    """Put the checkout's ``src/`` first on ``sys.path``; fail if it is missing.

    The benchmark must time the library of its own checkout, never an
    installed copy, so a checkout without ``src/opcov`` is an error.
    """
    if not (SRC / "opcov" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'opcov'}")
    sys.path.insert(0, str(SRC))
    return ROOT
