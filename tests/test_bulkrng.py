"""``random_draws`` replays ``random.Random.random`` exactly, in bulk."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulkrng import random_draws


def _assert_replays(seed: int, n: int, warmup: int = 0) -> None:
    bulk = random.Random(seed)
    scalar = random.Random(seed)
    for _ in range(warmup):
        bulk.random()
        scalar.random()
    draws = random_draws(bulk, n)
    assert draws.shape == (n,)
    assert draws.tolist() == [scalar.random() for _ in range(n)]
    assert bulk.getstate() == scalar.getstate()
    assert bulk.random() == scalar.random()


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 2])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1_000, 60_000])
def test_random_draws_replay_random(seed, n):
    _assert_replays(seed, n)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    n=st.integers(min_value=0, max_value=2_000),
    warmup=st.integers(min_value=0, max_value=700),
)
def test_random_draws_replay_random_mid_stream(seed, n, warmup):
    # A warm-up that is not a multiple of the MT19937 state size (624
    # words) starts the bulk draw part-way through a twist.
    _assert_replays(seed, n, warmup)
