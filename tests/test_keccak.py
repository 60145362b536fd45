"""Keccak-256 conformance against an independent reference implementation."""
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from keccak_reference import ABC_DIGEST, EMPTY_DIGEST, keccak256_reference

from fedchain import keccak
from fedchain.keccak import (
    _MASK, _PACKED_MAX, _STRIDE, _packing, _permute, keccak256, keccak256_many,
)


def test_reference_is_pinned_by_known_vectors():
    assert keccak256_reference(b"").hex() == EMPTY_DIGEST
    assert keccak256_reference(b"abc").hex() == ABC_DIGEST


def test_empty_input():
    assert keccak256(b"").hex() == EMPTY_DIGEST


def test_abc():
    assert keccak256(b"abc").hex() == ABC_DIGEST


def test_not_nist_sha3():
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_matches_reference_on_random_inputs():
    rng = random.Random(0xFEDC)
    for _ in range(100):
        data = rng.randbytes(rng.randrange(0, 1025))
        assert keccak256(data) == keccak256_reference(data)


def test_block_boundary_lengths():
    # 0..409 bytes: the one-byte 0x81 pad at 135, 271 and 407, and 1 to 4 absorbed blocks
    for n in range(410):
        data = (bytes(range(256)) * (n // 256 + 1))[:n]
        assert keccak256(data) == keccak256_reference(data)


def test_collision_smoke():
    rng = random.Random(1)
    messages = [rng.randbytes(16) for _ in range(10**5)]
    digests = keccak256_many(messages)
    assert len(set(digests)) == len(messages)
    # the scalar path agrees with the batch on a sample
    for i in range(0, len(messages), 100):
        assert keccak256(messages[i]) == digests[i]


def boundary_message(n: int) -> bytes:
    return (bytes(range(256)) * (n // 256 + 1))[:n]


class TestKeccakMany:
    def test_block_boundary_lengths_in_one_shuffled_batch(self):
        messages = [boundary_message(n) for n in range(410)]
        random.Random(7).shuffle(messages)
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    def test_empty_batch(self):
        assert keccak256_many([]) == []

    def test_batch_of_one(self):
        assert keccak256_many([b"abc"]) == [bytes.fromhex(ABC_DIGEST)]

    def test_duplicate_messages(self):
        messages = [b"", b"abc", b"", b"x" * 300, b"abc", b"x" * 300] * 3
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    def test_one_byte_pad_lengths(self):
        # 135 and 271 pad with the single byte 0x81; 136 and 272 add a whole block
        messages = [boundary_message(n) for n in (135, 136, 271, 272)] * 3
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    def test_long_message_absorbs_alone_after_the_rest(self):
        rng = random.Random(40)
        messages = [rng.randbytes(rng.randrange(0, 136)) for _ in range(30)]
        messages.insert(11, rng.randbytes(40 * 136 - 1))  # 40 blocks, alone after block 1
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=700), max_size=24))
    def test_equals_scalar_keccak(self, messages):
        assert keccak256_many(messages) == [keccak256(m) for m in messages]


class TestPackedPhase:
    """The numpy phase hands the last ``_PACKED_MAX`` or fewer absorbing
    messages to ``_permute`` on packed lane ints."""

    @pytest.mark.parametrize(
        "count", [_PACKED_MAX - 1, _PACKED_MAX, _PACKED_MAX + 1, 2 * _PACKED_MAX + 3]
    )
    def test_batch_widths_around_the_handoff(self, count):
        lengths = (0, 135, 136, 271, 272)
        rng = random.Random(count)
        messages = [rng.randbytes(lengths[i % len(lengths)]) for i in range(count)]
        rng.shuffle(messages)
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    def test_messages_end_before_at_and_after_the_handoff_step(self, monkeypatch):
        # 3 messages end at step 1 (numpy), 3 at step 2, which leaves _PACKED_MAX
        # absorbing, so the handoff comes at step 2; the rest end on packed ints
        rng = random.Random(3)
        blocks = [1] * 3 + [2] * 3 + [3] * 4 + [4] * 8
        blocks += [5 + i % 7 for i in range(_PACKED_MAX - 12)]
        messages = [rng.randbytes(rng.randrange(136 * (b - 1), 136 * b)) for b in blocks]
        rng.shuffle(messages)
        handoffs = []

        def spy(state, *rest):
            handoffs.append((state.shape[1], rest[-1]))  # columns, step
            return finish(state, *rest)

        finish = keccak._finish_packed
        monkeypatch.setattr(keccak, "_finish_packed", spy)
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]
        assert handoffs == [(_PACKED_MAX, 2)]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(max_size=420), max_size=3 * _PACKED_MAX))
    def test_equals_reference(self, messages):
        assert keccak256_many(messages) == [keccak256_reference(m) for m in messages]

    def test_permute_on_packed_lanes_equals_each_message_alone(self):
        rng = random.Random(9)
        states = [[rng.getrandbits(64) for _ in range(25)] for _ in range(4)]
        states[1:1] = [[_MASK] * 25, [0] * 25, [_MASK] * 25]  # chi's NOT meets the gap bits
        packed = [
            sum(state[i] << _STRIDE * r for r, state in enumerate(states)) for i in range(25)
        ]
        mask, round_constants = _packing(len(states))
        out = _permute(packed, mask, round_constants)
        for r, state in enumerate(states):
            assert [lane >> _STRIDE * r & _MASK for lane in out] == _permute(state)
        assert all(0 <= lane and lane & ~mask == 0 for lane in out)  # every gap still clear

    def test_permute_at_full_width_with_extreme_complemented_lanes(self):
        # the lanes the round body holds complemented, x + 5y in (1, 2, 8, 12,
        # 17, 20), all ones or all zero in each slot; the other lanes random
        rng = random.Random(20)
        patterns = [0, 63] + [rng.getrandbits(6) for _ in range(_PACKED_MAX - 2)]
        states = []
        for pattern in patterns:
            state = [rng.getrandbits(64) for _ in range(25)]
            for bit, i in enumerate((1, 2, 8, 12, 17, 20)):
                state[i] = _MASK if pattern >> bit & 1 else 0
            states.append(state)
        packed = [
            sum(state[i] << _STRIDE * r for r, state in enumerate(states)) for i in range(25)
        ]
        mask, round_constants = _packing(_PACKED_MAX)
        out = _permute(packed, mask, round_constants)
        for r, state in enumerate(states):
            assert [lane >> _STRIDE * r & _MASK for lane in out] == _permute(state)
        assert all(0 <= lane and lane & ~mask == 0 for lane in out)  # every gap still clear
