"""Keccak-256 conformance against an independent reference implementation."""
import hashlib
import random

from keccak_reference import ABC_DIGEST, EMPTY_DIGEST, keccak256_reference

from fedchain.keccak import keccak256


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
    seen = set()
    for _ in range(10**5):
        digest = keccak256(rng.randbytes(16))
        assert digest not in seen
        seen.add(digest)
