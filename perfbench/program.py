"""Locate and import the infospread package from the checkout's source tree.

The benchmark runs against ``<root>/src`` only: an installed copy elsewhere
would measure the wrong code, so a missing source tree is an error.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ProgramMissing(RuntimeError):
    """The checkout holds no infospread source tree."""


def load():
    """Put ``<root>/src`` first on the path and import ``infospread.cli``."""
    src = ROOT / "src"
    if not (src / "infospread" / "__init__.py").is_file():
        raise ProgramMissing(f"no infospread package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("infospread.cli")
    package = Path(sys.modules["infospread"].__file__).resolve()
    if src.resolve() not in package.parents:
        raise ProgramMissing(f"infospread was imported from {package}, not {src}")
    return cli
