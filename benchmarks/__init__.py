"""Benchmark suite for the reproduction.

Importable as a package so individual benchmarks can be run as modules,
e.g. ``python -m benchmarks.bench_streaming --quick``.  Importing the
package adds the repository's ``src/`` to ``sys.path`` when ``repro`` is
not importable, so the scripts need no installed package.
"""

import sys
from pathlib import Path

try:  # pragma: no cover - import plumbing
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
