"""Keccak-256 conformance against an independent reference implementation."""
import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from keccak_reference import ABC_DIGEST, EMPTY_DIGEST, keccak256_reference

from fedchain.keccak import keccak256, keccak256_many


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
