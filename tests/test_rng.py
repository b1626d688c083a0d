"""Counter-based streams: bounded integers and the column view of a stream."""

from __future__ import annotations

import numpy as np
import pytest

from permutalab.rng import _counter_words, derive_seed, derive_seed_vec, uniform_columns

from stream import Stream


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
        want = [stream.uniform() for _ in cols]
        assert row.tobytes() == np.array(want).tobytes()


def test_uniform_block_continues_the_scalar_draws():
    stream, ref = Stream(2**64 - 3), Stream(2**64 - 3)
    got = [stream.uniform()] + stream.uniform_block(5).tolist() + [stream.uniform()]
    assert got == [ref.uniform() for _ in range(7)]
    assert stream._count == ref._count == 7


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 3])
def test_counter_words_are_the_scalar_words_across_blocks(seed):
    # the reader takes 4,096 words at a time: three blocks are read here
    words, ref = _counter_words(seed), Stream(seed)
    for _ in range(2 * 4096 + 3):
        assert next(words) == ref.u64()


@pytest.mark.parametrize("master", [0, 7, -1, -(2**70), 2**64, 2**64 + 5, 2**90])
@pytest.mark.parametrize("prefix", [(), ("perm-stat",), (3,), ("fk", 2**64 - 1, -4)])
def test_derive_seed_vec_equals_the_scalar_fold(master, prefix):
    idx = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    want = [derive_seed(master, *prefix, i) for i in idx.tolist()]
    assert derive_seed_vec(master, idx, *prefix).tolist() == want
