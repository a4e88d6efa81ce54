"""The pure-Python control draw against numpy's Philox stream, bit for bit."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stylegroup.grouping import split_control
from stylegroup.rng import STREAM_CONTROL, choice_set, philox_key, philox_rng, philox_uint64s

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, random.Random(70).getrandbits(70)]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_outputs_equal_numpys_philox(seed):
    for stream in range(4):
        expected = np.random.Philox(np.random.SeedSequence([seed, stream])).random_raw(64)
        got = list(itertools.islice(philox_uint64s(philox_key(seed, stream)), 64))
        assert got == expected.tolist(), stream


def _draw(seed, stream, n, k):
    return set(philox_rng(seed, stream).choice(n, size=k, replace=False).tolist())


@st.composite
def _choices(draw):
    # numpy takes Floyd's algorithm when n <= 10000 or k <= n // 50, and the
    # tail shuffle otherwise: above 10000, the larger k take the tail.
    n = draw(st.one_of(st.integers(1, 10000), st.integers(10001, 30000)))
    k = draw(st.one_of(st.integers(0, max(n // 50, 1)), st.integers(0, n)))
    return draw(st.integers(0, 2**70)), draw(st.integers(0, 3)), n, k


@settings(max_examples=200, deadline=None)
@given(_choices())
@example((3, STREAM_CONTROL, 10000, 200))
@example((3, STREAM_CONTROL, 10000, 201))
@example((3, STREAM_CONTROL, 10001, 200))
@example((3, STREAM_CONTROL, 10001, 201))
@example((2**64 + 5, STREAM_CONTROL, 20000, 2000))
@example((7, 0, 1, 1))
def test_choice_set_equals_numpys_choice(case):
    seed, stream, n, k = case
    assert choice_set(seed, stream, n, k) == _draw(seed, stream, n, k)


def test_split_control_takes_numpys_members_on_both_branches():
    for n in (466, 20000):
        ids = [f"L{i}" for i in range(n)]
        _, control = split_control(ids, 0.1, seed=3)
        assert set(control) == {ids[i] for i in _draw(3, STREAM_CONTROL, n, round(0.1 * n))}


def test_bad_arguments_raise_value_error():
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        split_control(["L1", "L2", "L3"], 0.5, seed=-1)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        choice_set(1, STREAM_CONTROL, 2**32, 1)
    with pytest.raises(ValueError, match="cannot choose"):
        choice_set(1, STREAM_CONTROL, 3, 4)
