"""Keccak-256 as used by Ethereum.

This is the original Keccak sponge (multi-rate padding, domain byte 0x01),
not NIST SHA3-256 (domain byte 0x06): rate 1088 bits, capacity 512, 24
rounds, 256-bit digest. State is kept as a flat list of 25 lanes indexed
x + 5*y. It is pure Python because ``hashlib.sha3_256`` pads with the NIST
domain byte, so it cannot compute this digest.

``_permute`` writes one round of Keccak-f[1600] out in full and loops it
over the 24 round constants, with the 25 lanes and the theta and rho-pi
temporaries in local variables, after the Keccak team's *Keccak
implementation overview*: a local is much cheaper to read and write than a
list slot, and the rho rotation offsets and pi positions become constants in
the source. It also applies the overview's lane-complementing transform
(section 2.2): lanes x + 5*y in {1, 2, 8, 12, 17, 20} are held complemented
from entry to exit, so chi takes an AND/OR form that complements one lane per
plane, 5 complements a round instead of 25 NOTs. That one round body serves
one message (``keccak256``) and k messages packed into each lane int, the
overview's multi-instance form done on Python ints instead of SIMD registers:
message r holds bits [128r, 128r + 64) of every lane, and ``_permute`` takes
the 64-bit mask and the round constants repeated in each slot. XOR, AND and
OR act bit by bit, so they never mix slots, and a complement is an XOR with
the mask, never ``~``, so it sets no gap bit. Only a rotation reaches across
a slot: its left shift carries up to 63 bits out of the top of a lane, and
its right shift brings up to 63 low bits of the next message down below that
message. A stride of at least 127 bits leaves both in the gap above the lane,
where the mask clears them; 128 keeps each slot a whole 16 bytes.

``keccak256_many`` hashes a batch of independent messages at once. Messages
are sorted by padded block count, longest first, and packed into one flat
buffer; block ``b`` is absorbed by the prefix of the batch that still has a
block ``b``. While more than ``_PACKED_MAX`` messages absorb, the permutation
runs in numpy on a (25, k) uint64 array, one column per message, so each
operation acts on one lane of every message; its cost is mostly fixed
overhead per call, whatever k. Once ``_PACKED_MAX`` or fewer remain, their
columns are packed into lane ints and finished on ``_permute``, each digest
read out when its message ends. Its digests equal ``keccak256`` on each
message.
"""
from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

_MASK = (1 << 64) - 1
_RATE = 136  # bytes
_BLOCK = struct.Struct("<17Q")  # one rate-sized block as 17 little-endian lanes
_DIGEST = struct.Struct("<4Q")

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _permute(
    lanes: list[int], mask: int = _MASK, round_constants: Sequence[int] = _ROUND_CONSTANTS
) -> list[int]:
    """Keccak-f[1600] on 25 lanes indexed x + 5*y.

    Lane (x, y) is the local ``a<x><y>``; ``c<x>`` and ``d<x>`` are theta's
    column parities and their mix, and ``b<x><y>`` is the state after rho and pi.
    For k packed messages (``_packing``), ``mask`` and ``round_constants``
    are the 64-bit mask and constants repeated in each message's slot.
    """
    (
        a00, a10, a20, a30, a40,
        a01, a11, a21, a31, a41,
        a02, a12, a22, a32, a42,
        a03, a13, a23, a33, a43,
        a04, a14, a24, a34, a44,
    ) = lanes
    # enter the lane-complemented representation (module docstring)
    a10, a20, a31 = a10 ^ mask, a20 ^ mask, a31 ^ mask
    a22, a23, a04 = a22 ^ mask, a23 ^ mask, a04 ^ mask
    for rc in round_constants:
        # theta
        c0 = a00 ^ a01 ^ a02 ^ a03 ^ a04
        c1 = a10 ^ a11 ^ a12 ^ a13 ^ a14
        c2 = a20 ^ a21 ^ a22 ^ a23 ^ a24
        c3 = a30 ^ a31 ^ a32 ^ a33 ^ a34
        c4 = a40 ^ a41 ^ a42 ^ a43 ^ a44
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & mask)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & mask)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & mask)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & mask)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & mask)
        # rho and pi: b(y, 2x + 3y) = a(x, y) rotated left by its rho offset
        b00 = a00 ^ d0
        a10 ^= d1
        b02 = (a10 << 1 | a10 >> 63) & mask
        a20 ^= d2
        b04 = (a20 << 62 | a20 >> 2) & mask
        a30 ^= d3
        b01 = (a30 << 28 | a30 >> 36) & mask
        a40 ^= d4
        b03 = (a40 << 27 | a40 >> 37) & mask
        a01 ^= d0
        b13 = (a01 << 36 | a01 >> 28) & mask
        a11 ^= d1
        b10 = (a11 << 44 | a11 >> 20) & mask
        a21 ^= d2
        b12 = (a21 << 6 | a21 >> 58) & mask
        a31 ^= d3
        b14 = (a31 << 55 | a31 >> 9) & mask
        a41 ^= d4
        b11 = (a41 << 20 | a41 >> 44) & mask
        a02 ^= d0
        b21 = (a02 << 3 | a02 >> 61) & mask
        a12 ^= d1
        b23 = (a12 << 10 | a12 >> 54) & mask
        a22 ^= d2
        b20 = (a22 << 43 | a22 >> 21) & mask
        a32 ^= d3
        b22 = (a32 << 25 | a32 >> 39) & mask
        a42 ^= d4
        b24 = (a42 << 39 | a42 >> 25) & mask
        a03 ^= d0
        b34 = (a03 << 41 | a03 >> 23) & mask
        a13 ^= d1
        b31 = (a13 << 45 | a13 >> 19) & mask
        a23 ^= d2
        b33 = (a23 << 15 | a23 >> 49) & mask
        a33 ^= d3
        b30 = (a33 << 21 | a33 >> 43) & mask
        a43 ^= d4
        b32 = (a43 << 8 | a43 >> 56) & mask
        a04 ^= d0
        b42 = (a04 << 18 | a04 >> 46) & mask
        a14 ^= d1
        b44 = (a14 << 2 | a14 >> 62) & mask
        a24 ^= d2
        b41 = (a24 << 61 | a24 >> 3) & mask
        a34 ^= d3
        b43 = (a34 << 56 | a34 >> 8) & mask
        a44 ^= d4
        b40 = (a44 << 14 | a44 >> 50) & mask
        # chi, complemented: each plane NOTs one lane, as ``^ mask``
        a00 = b00 ^ (b10 | b20)
        a10 = b10 ^ ((b20 ^ mask) | b30)
        a20 = b20 ^ (b30 & b40)
        a30 = b30 ^ (b40 | b00)
        a40 = b40 ^ (b00 & b10)
        a01 = b01 ^ (b11 | b21)
        a11 = b11 ^ (b21 & b31)
        a21 = b21 ^ (b31 | (b41 ^ mask))
        a31 = b31 ^ (b41 | b01)
        a41 = b41 ^ (b01 & b11)
        n32 = b32 ^ mask
        a02 = b02 ^ (b12 | b22)
        a12 = b12 ^ (b22 & b32)
        a22 = b22 ^ (n32 & b42)
        a32 = n32 ^ (b42 | b02)
        a42 = b42 ^ (b02 & b12)
        n33 = b33 ^ mask
        a03 = b03 ^ (b13 & b23)
        a13 = b13 ^ (b23 | b33)
        a23 = b23 ^ (n33 | b43)
        a33 = n33 ^ (b43 & b03)
        a43 = b43 ^ (b03 | b13)
        n14 = b14 ^ mask
        a04 = b04 ^ (n14 & b24)
        a14 = n14 ^ (b24 | b34)
        a24 = b24 ^ (b34 & b44)
        a34 = b34 ^ (b44 | b04)
        a44 = b44 ^ (b04 & b14)
        # iota
        a00 ^= rc
    return [  # and leave it
        a00, a10 ^ mask, a20 ^ mask, a30, a40,
        a01, a11, a21, a31 ^ mask, a41,
        a02, a12, a22 ^ mask, a32, a42,
        a03, a13, a23 ^ mask, a33, a43,
        a04 ^ mask, a14, a24, a34, a44,
    ]


def _padding(length: int) -> bytes:
    """Multi-rate padding (domain byte 0x01) for a message of ``length`` bytes."""
    padlen = _RATE - length % _RATE
    if padlen == 1:
        return b"\x81"
    return b"\x01" + b"\x00" * (padlen - 2) + b"\x80"


def keccak256(data: bytes) -> bytes:
    """32-byte Keccak-256 digest of ``data``."""
    padded = data + _padding(len(data))
    lanes = [0] * 25
    for offset in range(0, len(padded), _RATE):
        for i, word in enumerate(_BLOCK.unpack_from(padded, offset)):
            lanes[i] ^= word
        lanes = _permute(lanes)
    return _DIGEST.pack(*lanes[:4])


# -- many messages at once ---------------------------------------------------------

_WORDS = _RATE // 8
_ROUND_CONSTANTS_NP = np.array(_ROUND_CONSTANTS, dtype=np.uint64)
# lane i = x + 5*y; theta mixes column x with columns x - 1 and x + 1
_LEFT = np.array([4, 0, 1, 2, 3])
_RIGHT = np.array([1, 2, 3, 4, 0])
_RHO = np.array(
    [0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39,
     41, 45, 15, 21, 8, 18, 2, 61, 56, 14],
    dtype=np.uint64,
)[:, None]
_RHO_BACK = (np.uint64(64) - _RHO) % np.uint64(64)
# pi moves lane (x, y) to (y, 2x + 3y); _PI[x + 5*y] is the lane that lands there
_PI = np.array([(3 * (y - 3 * x)) % 5 + 5 * x for y in range(5) for x in range(5)])
# chi: lane (x, y) ^= ~(x + 1, y) & (x + 2, y), read through pi
_CHI_NEXT = _PI[[(x + 1) % 5 + 5 * y for y in range(5) for x in range(5)]]
_CHI_AFTER = _PI[[(x + 2) % 5 + 5 * y for y in range(5) for x in range(5)]]
_WORD_INDEX = np.arange(_WORDS)[:, None]  # a block's word offsets, one row each


def _permute_many(state: np.ndarray) -> np.ndarray:
    """Keccak-f[1600] on each column of a (25, k) uint64 lane array."""
    for rc in _ROUND_CONSTANTS_NP:
        # theta
        parity = state[0:5] ^ state[5:10]
        parity ^= state[10:15]
        parity ^= state[15:20]
        parity ^= state[20:25]
        right = parity[_RIGHT]
        mix = parity[_LEFT] ^ ((right << np.uint64(1)) | (right >> np.uint64(63)))
        state = (state.reshape(5, 5, -1) ^ mix).reshape(25, -1)
        # rho, then pi and chi read together through _PI
        rotated = (state << _RHO) | (state >> _RHO_BACK)
        state = rotated[_PI] ^ (~rotated[_CHI_NEXT] & rotated[_CHI_AFTER])
        # iota
        state[0] ^= rc
    return state


# -- the narrow phase: k messages packed into each lane int ----------------------

# With this many absorbing messages or fewer, a packed-int step beats a numpy one,
# whose cost is mostly fixed per call; on 40-block messages they meet at k = 40-48.
_PACKED_MAX = 40
# Message r holds bits [128r, 128r + 64) of each lane int (module docstring).
_STRIDE = 128


def _packing(k: int) -> tuple[int, tuple[int, ...]]:
    """``_permute``'s mask and round constants for k packed messages."""
    ones = sum(1 << _STRIDE * r for r in range(k))
    return _MASK * ones, tuple(rc * ones for rc in _ROUND_CONSTANTS)


def _pack(columns: np.ndarray) -> list[int]:
    """Each row of a (rows, k) uint64 array as one int, column r in slot r."""
    slots = np.zeros(columns.shape + (2,), dtype="<u8")
    slots[..., 0] = columns
    return [int.from_bytes(row, "little") for row in slots]


def _finish_packed(state, words, starts, blocks, step) -> list[bytes]:
    """Digests of the k messages whose states are the columns of the (25, k)
    ``state``, absorbing their blocks from ``step`` on: one ``_permute`` per
    block for all k, each message's digest read out as it ends."""
    active = state.shape[1]
    lanes = _pack(state)
    mask, round_constants = _packing(active)
    digests: list[bytes] = [b""] * active
    while active:
        block = _pack(words[starts[:active] + step * _WORDS + _WORD_INDEX])
        for i, word in enumerate(block):
            lanes[i] ^= word
        lanes = _permute(lanes, mask, round_constants)
        step += 1
        if blocks[active - 1] == step:
            while active and blocks[active - 1] == step:
                active -= 1
                shift = _STRIDE * active
                digests[active] = _DIGEST.pack(*(lane >> shift & _MASK for lane in lanes[:4]))
            mask, round_constants = _packing(active)
            lanes = [lane & mask for lane in lanes]  # drop the ended messages
    return digests


def keccak256_many(messages: Sequence[bytes]) -> list[bytes]:
    """Keccak-256 digest of each message, equal to ``keccak256`` on each."""
    n = len(messages)
    order = sorted(range(n), key=lambda i: len(messages[i]), reverse=True)
    # one flat buffer of every padded message, longest first
    padded = b"".join(
        part for i in order for part in (messages[i], _padding(len(messages[i])))
    )
    words = np.frombuffer(padded, dtype="<u8").astype(np.uint64, copy=False)
    blocks = [len(messages[i]) // _RATE + 1 for i in order]
    starts = np.cumsum([0] + blocks[:-1], dtype=np.intp) * _WORDS

    state = np.zeros((25, n), dtype=np.uint64)
    active, step = n, 0
    while active > _PACKED_MAX:
        lanes = words[starts[:active] + step * _WORDS + _WORD_INDEX]
        state[:_WORDS, :active] ^= lanes
        state[:, :active] = _permute_many(state[:, :active])
        step += 1
        while active and blocks[active - 1] == step:
            active -= 1

    ended = state[:4, active:].T.astype("<u8").tobytes()
    ranked = _finish_packed(state[:, :active], words, starts, blocks, step)
    ranked += [ended[32 * rank:32 * rank + 32] for rank in range(n - active)]
    out: list[bytes] = [b""] * n
    for rank, i in enumerate(order):
        out[i] = ranked[rank]
    return out
