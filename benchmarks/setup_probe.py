"""One cold set-up of the benchmark in a fresh process.

    python3 benchmarks/setup_probe.py STAMP [INPUT]

Imports ``matrixhmm`` from ``src/`` and, when INPUT is given, reads it
with ``panel.load_panel``, as ``run.py`` does before its first round.
Prints the seconds from STAMP, the parent's ``CLOCK_MONOTONIC`` reading
taken just before this process was started, to the end of the set-up.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from matrixhmm import panel  # noqa: E402

if len(sys.argv) > 2:
    panel.load_panel(sys.argv[2])
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC) - float(sys.argv[1])))
