"""Reference probe: a fixed piece of work whose time tracks the machine's speed.

    python3 bench/probe.py

Reads one thread count per line on standard input, runs the probe's work
once in that many threads at the same time, and prints the elapsed
seconds on one line.  It exits at the end of its input.

The work imports nothing from the program: a pure-Python integer and dict
loop, which holds the GIL, then a sort and a cumulative sum of a fixed
array, which release it.  So at two threads it feels what a two-thread
batch feels on a shared host: how fast a core runs, how quickly a thread
waiting for the GIL gets its core back, and whether the second core is
there at all.  ``run.py`` keeps one probe process for a whole run and times
the probe just before and just after every batch, outside the program's
own process state.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

LOOP_STEPS = 120_000
ARRAY = np.random.default_rng(0).random(1_000_000)


def work() -> float:
    acc, table = 0, {}
    for i in range(LOOP_STEPS):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return float(np.cumsum(np.sort(ARRAY))[-1]) + acc


def timed(threads: int) -> float:
    """Seconds for ``threads`` threads to each run ``work`` once, together."""
    workers = [threading.Thread(target=work) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


def main() -> int:
    timed(1)
    for line in sys.stdin:
        print(repr(timed(int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
