"""Counter-based streams: bounded integers and the column view of a stream."""

from __future__ import annotations

import numpy as np
import pytest

from permutalab.rng import Stream, uniform_columns


class TestBelow:
    def test_full_word_range_returns_the_word(self):
        stream, ref = Stream(5), Stream(5)
        assert stream.below(2**64) == ref.u64()
        assert stream._count == 1

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1, 2**400])
    def test_out_of_range_raises_without_drawing(self, n):
        stream = Stream(5)
        with pytest.raises(ValueError):
            stream.below(n)
        assert stream._count == 0


def test_uniform_columns_match_stream_draws():
    # the t-th uniform of Stream(s) is column t - 1 of uniform_columns([s], ...)
    seeds = np.array([0, 1, 2**63 + 7], dtype=np.uint64)
    cols = np.arange(40)
    u = uniform_columns(seeds, cols)
    for row, seed in zip(u, seeds.tolist()):
        stream = Stream(seed)
        want = [stream.uniform()] + stream.uniform_block(39).tolist()
        assert row.tobytes() == np.array(want).tobytes()
