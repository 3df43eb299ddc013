"""Set-up time of a fresh process: import kzfox and its numeric modules, then
parse the workload's input files.  Then times units of the benchmark's
reference work (``reference.py``), which gauges the host's current speed.
Prints the set-up seconds and the median reference seconds on one line.

Usage: python3 setup_probe.py SRC_DIR [PATH_FILE ...]
"""

import os
import statistics
import sys
import time

REFERENCE_UNITS = 25

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kzfox.cli  # noqa: E402
import kzfox.kz_holonomy  # noqa: E402,F401
import kzfox.rep_space  # noqa: E402,F401

for filename in sys.argv[2:]:
    kzfox.cli.load_path_file(filename)
setup = time.perf_counter() - t0

# numpy is loaded by now, so importing the reference adds no set-up work.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from reference import reference_seconds  # noqa: E402

reference = statistics.median(reference_seconds() for _ in range(REFERENCE_UNITS))
print(repr(setup), repr(reference))
