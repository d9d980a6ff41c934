"""Byte-equality oracle for the lane encoder's word-level bit assembly.

Per step and lane the encoder records what it emitted — the top ``count``
bits of ``word``, the first of them followed by ``owed`` opposite bits — and
``_pack`` lays the records out as the payload's bytes, a 64-bit word at a
time.  It must write exactly what the bit-level assembly kept in
:mod:`scalar_coder` (``pack_bits``, one ``int64`` per output bit) writes: on
any records, on the records of real encodes, and on the owed runs that cross
32 and 64 bits, where a record no longer fits one word.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
25 in tier-1, 250 in CI's ``codec-fuzz`` step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scalar_coder import pack_bits

import repro.core.arithmetic_coder as arithmetic_coder
from repro.core import CacheGenEncoder
from repro.core.arithmetic_coder import ArithmeticEncoder

#: Owed runs by kind: none, the usual few bits, and runs that push a record
#: past one 32-bit word and past one 64-bit word.
OWED = {"none": (0, 0), "short": (0, 3), "past 32": (0, 64), "past 64": (33, 300)}


def random_records(rng, steps: int, lanes: int, owed: str, silent: float):
    """``(word, count, owed)`` as the encoder hands them over: the last row is zeros."""
    shape = (steps + 2, lanes)
    word = rng.integers(0, 2**32, size=shape)
    count = rng.integers(1, 33, size=shape) * (rng.random(shape) >= silent)
    low, high = OWED[owed]
    debt = rng.integers(0, 4, size=shape)
    long = rng.random(shape) < 0.2
    debt[long] = rng.integers(low, high + 1, size=int(long.sum()))
    # A few lanes emit nothing at all.
    count[:, rng.random(lanes) < 0.1] = 0
    for part in (word, count, debt):
        part[-1] = 0
    return word, count, debt


@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(0, 40),
    lanes=st.one_of(st.sampled_from([1, 1024]), st.integers(1, 300)),
    owed=st.sampled_from(sorted(OWED)),
    silent=st.sampled_from([0.0, 0.5, 0.95, 1.0]),
)
def test_word_level_equals_bit_level(seed, steps, lanes, owed, silent):
    word, count, debt = random_records(np.random.default_rng(seed), steps, lanes, owed, silent)
    assert arithmetic_coder._pack(word, count, debt) == pack_bits(word, count, debt)


def test_records_past_64_bits_are_both_kinds():
    """A long record's first bit is 1 or 0: one one-bit run, or a run after it."""
    word = np.array([[0x80000000, 0x7FFFFFFF], [0x12345678, 0xFFFFFFFF], [0, 0]])
    count = np.array([[32, 1], [7, 32], [0, 0]])
    for debt in ([[64, 200], [0, 65], [0, 0]], [[33, 33], [130, 64], [0, 0]]):
        debt = np.array(debt)
        assert arithmetic_coder._pack(word, count, debt) == pack_bits(word, count, debt)


@pytest.fixture
def checked_pack(monkeypatch):
    """Hold every ``_pack`` an encode makes to the bit-level assembly; count them."""
    packed = []

    def check(word, count, debt):
        data = pack(word, count, debt)
        assert data == pack_bits(word, count, debt)
        packed.append(int(np.where(count > 0, count + debt, 0).max(initial=0)))
        return data

    pack = arithmetic_coder._pack
    monkeypatch.setattr(arithmetic_coder, "_pack", check)
    return packed


@pytest.mark.parametrize("lanes", [1, 7, 1024])
def test_real_records_of_pending_runs(checked_pack, lanes):
    """The middle symbol of ``[0, 1, 3, 4]`` turns the whole interval into its
    middle half, one E3 shift back to the whole: a pending bit a step, no bit
    emitted, so a run of it owes more than a word's worth."""
    cum = np.array([0, 1, 3, 4])
    rng = np.random.default_rng(lanes)
    symbols = np.where(rng.random(100 * lanes) < 0.99, 1, rng.integers(0, 3, 100 * lanes))
    ArithmeticEncoder(cum, lanes).encode(symbols)
    assert checked_pack and max(checked_pack) > 64


def test_real_records_of_every_level(checked_pack, encoder, kv):
    """A fitted profile's batches: each of a chunk's payloads at every level."""
    config = encoder.config.replace(exact_entropy_coding=True)
    exact = CacheGenEncoder(config, codec=encoder.codec)
    chunk = kv.slice_tokens(0, 23)
    for level in exact.config.levels:
        exact.encode(chunk, level)
    assert len(checked_pack) >= 2 * len(exact.config.levels)
