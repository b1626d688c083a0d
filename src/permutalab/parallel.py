"""Chunked map with thread-count-independent results.

Work is split into fixed chunks of ``CHUNK`` sample indices, the unit that
threads share; results are concatenated in chunk order.  A chunk whose rows
are wide (one Monte Carlo sample drawing hundreds of columns) is computed
in row blocks through :func:`row_blocks`, about ``BLOCK_ELEMENTS`` values
at a time, so that each block's arrays stay near a core's L2 cache.  Chunk
and block sizes depend only on the sample count and the row width, never
on ``threads``, and every sample is computed from seeds derived from its
own index, so outputs are bit-identical for any ``threads`` value and any
block size.  :func:`map_chunks` rejects a total below 1 (``bad-count``) or
above ``MAX_TOTAL`` (``too-large``) before any chunk runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import LabError

CHUNK = 4096

# the most samples or points of one map: clt --N 4 --M m peaks at 124 MB of RSS
# at m = 10**6 and 882 MB at 10**7 (x86-64, numpy 2.4), so about 1.4 GB here
MAX_TOTAL = 2**24

# Elements per block, one budget for the row blocks of row_blocks (256 rows
# of 400 columns) and the blocks of the n*x mod 1 kernel (the lacunary
# module docstring says how it applies there).  A block's arrays (0.8 MB
# each) then stay near a 2 MiB L2.  On 2-vCPU x86-64 (2 MiB L2 per core,
# numpy 2.4), k = 400 and M = 8192 at one thread, medians of 20 runs:
# simulate_fk 26 ms at 256 rows, 33 at 512, 35 at 1,024 and 54 at 4,096;
# permuted_statistic 35, 32, 42 and 64 ms.
BLOCK_ELEMENTS = 256 * 400


def map_chunks(
    total: int, fn: Callable[[int, int], np.ndarray], threads: int = 1
) -> np.ndarray:
    """Concatenate fn(start, count) over fixed chunks of the index range [0, total)."""
    if total < 1:
        raise LabError("bad-count", f"need a count >= 1, not {total}")
    if total > MAX_TOTAL:
        raise LabError("too-large", f"a count of {total} is above {MAX_TOTAL}")
    tasks = [(start, min(CHUNK, total - start)) for start in range(0, total, CHUNK)]
    if threads <= 1 or len(tasks) <= 1:
        parts = [fn(s, c) for s, c in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda t: fn(*t), tasks))
    return np.concatenate(parts)


def row_blocks(
    fn: Callable[[int, int], np.ndarray], width: int
) -> Callable[[int, int], np.ndarray]:
    """A chunk function that concatenates fn over blocks of rows of ``width`` elements.

    Each block has ``max(1, min(CHUNK, BLOCK_ELEMENTS // width))`` rows,
    but for the last of a chunk, which has the rest.
    """
    rows = max(1, min(CHUNK, BLOCK_ELEMENTS // width))

    def chunk(start: int, count: int) -> np.ndarray:
        stop = start + count
        return np.concatenate([fn(s, min(rows, stop - s)) for s in range(start, stop, rows)])

    return chunk
