"""``python3 -m bench`` (or this file run as a script)."""

import sys
from pathlib import Path

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

import bench  # noqa: E402 -- puts src/ on sys.path

if __name__ == "__main__":
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit("bench: the program's source (src/repro) is not here")
    from bench.run import main

    sys.exit(main())
