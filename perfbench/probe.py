"""Set-up probe: a fresh interpreter runs one job up to the point it starts.

Usage: ``python probe.py <command> --config FILE --out DIR ...`` with the
checkout's ``src`` on ``PYTHONPATH``. It imports ionramsey and lets
``cli.main`` parse the arguments and the config. Instead of running the
subcommand it prints three numbers:

* the CLOCK_MONOTONIC time at which the subcommand would have started,
  less the time the first reference pass took;
* the pure-Python reference kernel's time before the import;
* the same kernel's time after the stop.

The parent subtracts its own clock reading taken just before the spawn and
rescales the difference to the kernel's nominal speed, ``NOMINAL_S``. The
kernel is pure Python so it can run before numpy is imported, and it runs
in this process so that it measures the speed this process got.
"""

import sys
import time

NOMINAL_S = 0.004  # fast-state time on a 2-core Intel Xeon sandbox, CPython 3.11


def reference_time() -> float:
    """Best of three passes over a fixed dict-and-integer loop."""
    best = float("inf")
    for _ in range(3):
        start, acc = time.perf_counter(), {}
        for i in range(20_000):
            acc[i % 97] = acc.get(i % 97, 0) + (i * i) % 7
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    clock = time.CLOCK_MONOTONIC
    spent = time.clock_gettime(clock)
    before = reference_time()
    spent = time.clock_gettime(clock) - spent
    import ionramsey.cli as cli

    started: list[float] = []

    def stop(manifest, parser) -> int:
        started.append(time.clock_gettime(clock) - spent)  # minus the kernel's own time
        return 0

    cli._COMMANDS[sys.argv[1]] = stop
    code = cli.main(sys.argv[1:])
    if code != 0 or not started:
        sys.exit(f"probe: cli.main returned {code} before the command started")
    print(repr(started[0]), repr(before), repr(reference_time()))


if __name__ == "__main__":
    main()
