"""Chunked map: chunk and row-block boundaries, and the memory of wide draws."""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest

from permutalab import (
    DiscreteMeasure,
    ExchangeableModel,
    RegularLimitTheorem,
    permuted_statistic,
    random_permutation,
    simulate_fk,
)
from permutalab.errors import LabError
from permutalab import parallel
from permutalab.parallel import BLOCK_ELEMENTS, CHUNK, MAX_TOTAL, map_chunks, row_blocks


def _recorded(total: int, threads: int, width: int | None):
    """map_chunks over ``total`` indices, with the (start, count) of each call."""
    calls = []
    lock = threading.Lock()

    def fn(start: int, count: int) -> np.ndarray:
        with lock:
            calls.append((start, count))
        return np.arange(start, start + count)

    chunk_fn = fn if width is None else row_blocks(fn, width)
    return map_chunks(total, chunk_fn, threads), sorted(calls)


class TestChunks:
    @pytest.mark.parametrize("width", [None, 1, 397, 1191, BLOCK_ELEMENTS, 10**9])
    @pytest.mark.parametrize("total", [1, 255, 4096, 4097, 9000])
    def test_cover_the_range_in_order_for_any_threads(self, total, width):
        runs = {threads: _recorded(total, threads, width) for threads in (1, 2, 3)}
        rows = CHUNK if width is None else max(1, min(CHUNK, BLOCK_ELEMENTS // width))
        for values, calls in runs.values():
            assert values.tolist() == list(range(total))
            # contiguous calls from 0 to total; a call ends at a chunk end
            # or has exactly ``rows`` rows
            assert [s for s, _ in calls] == [0] + [s + c for s, c in calls[:-1]]
            assert sum(c for _, c in calls) == total
            for s, c in calls:
                end = s + c
                assert 1 <= c <= rows
                assert s // CHUNK == (end - 1) // CHUNK
                assert c == rows or end % CHUNK == 0 or end == total
        assert runs[1][1] == runs[2][1] == runs[3][1]

    def test_block_rows_follow_the_row_width(self):
        for width, rows in ((1, CHUNK), (400, BLOCK_ELEMENTS // 400),
                            (BLOCK_ELEMENTS, 1), (10 * BLOCK_ELEMENTS, 1)):
            _, calls = _recorded(CHUNK, 1, width)
            assert calls[0] == (0, rows)
        assert 1 < BLOCK_ELEMENTS // 400 < CHUNK

    @pytest.mark.parametrize("total", [0, -3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_total_below_one_is_bad_count(self, total, threads):
        calls = []
        with pytest.raises(LabError) as err:
            map_chunks(total, lambda s, c: calls.append((s, c)), threads)
        assert err.value.token == "bad-count"
        assert str(err.value) == f"need a count >= 1, not {total}"
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_total_past_the_cap_is_too_large_before_any_chunk(self, threads, monkeypatch):
        assert MAX_TOTAL >= 100_000  # the README's --M 100000 runs
        calls = []
        for total in (MAX_TOTAL + 1, 10**12):
            with pytest.raises(LabError) as err:
                map_chunks(total, lambda s, c: calls.append((s, c)), threads)
            assert err.value.token == "too-large"
        assert calls == []
        monkeypatch.setattr(parallel, "MAX_TOTAL", CHUNK + 1)
        assert _recorded(CHUNK + 1, threads, None)[0].tolist() == list(range(CHUNK + 1))
        with pytest.raises(LabError) as err:
            _recorded(CHUNK + 2, threads, None)
        assert err.value.token == "too-large"


RADEMACHER = DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)))
WIDE = DiscreteMeasure(((-2.0, 0.5), (2.0, 0.5)))

# Python-heap peak of one call at k = 400, M = 8192 and one thread.  Drawing
# a 4,096-run chunk at once peaks near 45 MB (permuted_statistic) and 40 MB
# (simulate_fk); row blocks keep it to a few MB.
PEAK_BOUND_MB = 10.0


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestWideDrawMemory:
    def test_permuted_statistic(self):
        model = ExchangeableModel(((0.5, RADEMACHER), (0.5, WIDE)))
        T, perm = RegularLimitTheorem("trimmed-clt"), random_permutation(400, 3)
        peak = _peak_mb(lambda: permuted_statistic(model, T, 400, perm, 8192, 1, threads=1))
        assert peak < PEAK_BOUND_MB

    def test_simulate_fk(self):
        T = RegularLimitTheorem("clt")
        peak = _peak_mb(lambda: simulate_fk(T, 400, RADEMACHER, 8192, 2, threads=1))
        assert peak < PEAK_BOUND_MB
