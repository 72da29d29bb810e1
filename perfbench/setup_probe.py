"""Print the seconds a fresh interpreter takes to import asymtop and run one
warm-up operation of a workload, then the host's reference-loop time
measured in the same process right after.

    python3 perfbench/setup_probe.py <workload> <seed>

Run from the repository root; the package is imported from ./src.
"""

import statistics
import sys
import time


def main(workload: str, seed: int) -> None:
    start = time.perf_counter()
    sys.path.insert(0, "src")
    import workloads  # imports asymtop and numpy

    op = workloads.make_warmup(workload, seed)
    reason = op.check(op.execute())
    if reason is not None:
        raise SystemExit(f"warm-up operation failed: {reason}")
    elapsed = time.perf_counter() - start

    from run import HostSpeed

    speed = HostSpeed()
    print(elapsed, statistics.median(speed.reference() for _ in range(5)))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
