"""The repo's standing benchmark (see bench/README.md).

``bench`` is a *client* of ``src/repro``: it drives the production path
through public calls with default arguments only, and every clock and
span lives on this side of the boundary.  The package is runnable from a
bare checkout (``python3 -m bench run``), so it puts ``src/`` on the import
path itself instead of relying on ``PYTHONPATH``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
