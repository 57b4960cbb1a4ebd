"""Time, inside a fresh interpreter, importing doublealg and building one
workload's inputs; prints the wall seconds and the host-normalised seconds
(see hostclock).

    python3 perfbench/setup_probe.py <workload> <seed>
    python3 perfbench/setup_probe.py import-cli 0
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    import hostclock

    which, seed = sys.argv[1], int(sys.argv[2])
    with hostclock.HostClock() as host:
        if which == "import-cli":
            sys.path.insert(0, sys.path[0] + "/../src")
            import doublealg.cli  # noqa: F401
        else:
            import workloads

            workloads.WORKLOADS[which].inputs(seed)
        t1 = time.perf_counter()
    print(repr(t1 - t0 - host.probe_seconds(t0, t1)), repr(host.normalised(t0, t1)))


if __name__ == "__main__":
    main()
