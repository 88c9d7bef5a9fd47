"""Locate the package source of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> None:
    """Put the checkout's `src` first on the import path, so the code under
    test is the code beside the benchmark and never an installed copy.
    Exits with status 2 when the checkout holds no package source."""
    if not (SRC / "ringtasep" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'ringtasep'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
