"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SRC_DIR

Set-up is what a user pays before the first step: importing flocklab and
building the workload's configs and initial states.  Prints the seconds it
took as the last line.  ``run.py`` starts this script several times and
reports the median as ``setup_s``.
"""

import os
import sys
import time


def main():
    name, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path[0:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    t0 = time.perf_counter()
    import flocklab  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.WORKLOADS[name](seed).setup()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
