"""One fresh-process set-up of a workload, timed against a reference kernel.

    python3 bench/fresh_setup.py WORKLOAD SEED

Runs ``reference_kernel`` before anything else is imported, imports the
package and sets the workload up as ``run.py`` does, runs the kernel again
and prints the two kernel times in seconds. ``run.py`` times the whole
process; its wall time minus the kernel times is the set-up time, and
dividing that by their mean cancels how fast the host happened to run this
process.
"""

import time


def reference_kernel():
    """Interpreter, allocation and class-creation work, as in an import."""
    total = 0
    for i in range(400_000):
        total += i
    table = {}
    for i in range(60_000):
        table[str(i)] = (i, [i] * 3)
    for _ in range(20):
        class Probe:
            def method(self):
                return total

    return total


def timed_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


if __name__ == "__main__":
    before_s = timed_kernel()

    import os
    import shutil
    import sys

    import run

    workload, seed = sys.argv[1], int(sys.argv[2])
    run.import_package()
    import studies

    workdir = run.WORK / f"setup-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        studies.build(workload, seed, workdir, run.ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(before_s, timed_kernel())
