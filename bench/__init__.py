"""E0: absolute end-to-end and per-layer benchmark of the advisor pipeline.

Run with ``python3 -m bench`` from the repository root; see ``README.md``
in this directory.  The package measures the program from outside, by
timing calls into ``repro``'s public functions; it changes nothing under
``src/``.
"""

import sys
from pathlib import Path

# The program is measured where it lies: no install, no PYTHONPATH needed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
