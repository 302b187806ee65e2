"""Time one fresh set-up of a workload and print the seconds.

    python3 perfbench/setup_probe.py line_denoise 1

A set-up is what a new process pays before its first call: importing ``gib``
(and numpy with it) and building the workload's inputs from the seed.
``run.py`` starts this several times and reports the median as ``setup_s``.
The time is printed at reference speed, scaled by the reference kernel's
time taken right after the set-up (``reference.py``).
"""

from __future__ import annotations

import os
import statistics
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import spans

    spans.load_package()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    seconds = time.perf_counter() - t0
    import reference

    reference.measure()  # a first, cold reading is left out
    ref = statistics.median(reference.measure() for _ in range(3))
    print(repr(seconds * reference.REF_SECONDS / ref))


if __name__ == "__main__":
    main()
