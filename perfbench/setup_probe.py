"""Print the reference seconds (see ``pace``) a fresh interpreter takes to
import repcur and set up one workload.  ``run.py`` starts it with ``src``
on PYTHONPATH:

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time

import pace  # imports no module that repcur imports, so those stay cold

t0 = time.perf_counter()
import workloads  # noqa: E402  (imports repcur: part of the time measured)

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
elapsed = time.perf_counter() - t0
print(elapsed / pace.Pace().factor_now(40))
