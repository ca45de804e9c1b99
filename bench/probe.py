"""Set-up probe: in a fresh interpreter, time ``import digtopo`` plus
generating and writing one workload's input files.

Usage: python3 bench/probe.py <workload> <seed> <work dir>
Prints the elapsed seconds; run.py starts several and reports the median.
"""

import os
import shutil
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


def main() -> int:
    workload, seed, wd = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    shutil.rmtree(wd, ignore_errors=True)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import digtopo

    inputs, requests = workloads.generate(workload, seed, wd)
    workloads.write_inputs(wd, inputs, requests)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(wd)
    if not os.path.abspath(digtopo.__file__).startswith(SRC + os.sep):
        print(f"probe: imported digtopo from {digtopo.__file__}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
