"""Off-chain fairness worker: content-addressed storage and integrity hashing.

The store is an in-process IPFS stand-in: blobs are addressed by the
Keccak-256 of their bytes (a deliberate simplification of real CIDs, which
are multihashes). Cumulative-score checkpoints are serialized canonically,
stored as blobs, and anchored on-chain by (CID, integrity hash); a run's
anchors are re-verified together, their blobs hashed in one batch.
"""
from __future__ import annotations

import hashlib
import json
from typing import Mapping, Optional, Sequence

from .keccak import keccak256, keccak256_many
from .numerics import Fixed, GradientVector


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON encoding: sorted keys, no whitespace, ASCII only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def vector_commit(vector: GradientVector) -> str:
    """Short hex commitment to a vector, for state documents and tx digests.

    SHA-256 (not Keccak) on purpose: vectors can run to 10^5 components and
    this digest is internal plumbing, recomputable from the stored vector.
    """
    header = vector.dim.to_bytes(4, "big")
    return hashlib.sha256(header + vector.encode()).hexdigest()


def canonical_serialize(cumulative: Mapping[bytes, Fixed]) -> bytes:
    """Canonical byte form of a client id -> cumulative score mapping.

    Entries sorted ascending by 20-byte client id, each encoded as
    id || raw score as signed 128-bit big-endian. No separators, so the
    encoding is injective for distinct mappings of this shape.
    """
    parts = []
    for client_id, value in sorted(cumulative.items()):
        if len(client_id) != 20:
            raise ValueError(f"client id must be 20 bytes, got {len(client_id)}")
        parts.append(client_id + value.raw.to_bytes(16, "big", signed=True))
    return b"".join(parts)


class ContentStore:
    """Append-only content-addressed blob store; CID == keccak256(blob).

    ``blobs`` seeds the store as found on disk: each blob is keyed by the CID
    it claims, unchecked, so that ``verify_checkpoints`` can detect tampering.
    """

    def __init__(self, blobs: Optional[Mapping[bytes, bytes]] = None) -> None:
        self._blobs: dict[bytes, bytes] = dict(blobs or {})

    def put(self, blob: bytes) -> bytes:
        cid = keccak256(blob)
        self._blobs.setdefault(cid, blob)
        return cid

    def get(self, cid: bytes) -> Optional[bytes]:
        return self._blobs.get(cid)

    def cids(self) -> list[bytes]:
        return sorted(self._blobs)


def publish_checkpoint(store: ContentStore, cumulative: Mapping[bytes, Fixed]) -> bytes:
    """Serialize cumulative scores and store the blob; returns its CID.

    The CID is keccak256(blob), which is also the integrity hash: the caller
    records (cid, cid) on-chain as a system transaction, and the contract
    decides which rounds may anchor one.
    """
    return store.put(canonical_serialize(cumulative))


def verify_checkpoints(
    store: ContentStore, anchors: Sequence[tuple[bytes, bytes, Optional[Mapping[bytes, Fixed]]]]
) -> list[Optional[str]]:
    """Re-verify (cid, integrity hash, cumulative) anchors, every blob found
    hashed in one ``keccak256_many`` batch: the CID resolves, the hashes agree,
    and the blob holds ``cumulative`` (None: unknown, matches no blob). One
    verdict per anchor, in order: None when intact, else NotFound, CidMismatch,
    HashMismatch or ContentMismatch."""
    blobs = [store.get(cid) for cid, _, _ in anchors]
    digests = iter(keccak256_many([blob for blob in blobs if blob is not None]))
    verdicts: list[Optional[str]] = []
    for (cid, integrity_hash, cumulative), blob in zip(anchors, blobs):
        digest = None if blob is None else next(digests)
        verdicts.append(
            "NotFound" if blob is None
            else "CidMismatch" if digest != cid
            else "HashMismatch" if digest != integrity_hash
            else "ContentMismatch" if cumulative is None or blob != canonical_serialize(cumulative)
            else None
        )
    return verdicts
