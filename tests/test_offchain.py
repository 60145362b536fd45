"""Content store, canonical serialization, and checkpoint integrity."""

import pytest
from hypothesis import given, strategies as st

from fedchain import offchain
from fedchain.keccak import keccak256
from fedchain.numerics import Fixed
from fedchain.offchain import (
    ContentStore,
    canonical_json_bytes,
    canonical_serialize,
    publish_checkpoint,
    verify_checkpoints,
)


def cid_of(index: int) -> bytes:
    return bytes([index]) * 20


class TestCanonicalSerialize:
    def test_empty(self):
        assert canonical_serialize({}) == b""

    def test_single_zero_entry_is_36_bytes(self):
        blob = canonical_serialize({cid_of(1): Fixed(0)})
        assert len(blob) == 36
        assert blob[:20] == cid_of(1)
        assert blob[20:] == b"\x00" * 16

    def test_permutation_invariant(self):
        entries = [(cid_of(3), Fixed(5)), (cid_of(1), Fixed(-7)), (cid_of(2), Fixed(0))]
        assert canonical_serialize(dict(entries)) == canonical_serialize(dict(reversed(entries)))

    def test_negative_values_round_trip(self):
        entries = {cid_of(9): Fixed(-123456789), cid_of(4): Fixed(42)}
        assert canonical_serialize(entries) == (
            cid_of(4) + (42).to_bytes(16, "big", signed=True)
            + cid_of(9) + (-123456789).to_bytes(16, "big", signed=True)
        )

    @given(
        st.dictionaries(
            st.binary(min_size=20, max_size=20),
            st.integers(-(10**15), 10**15),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_and_order_independence(self, mapping, rng):
        # the layout: ids ascending, each id || raw as signed 128-bit big-endian
        entries = [(cid, Fixed(raw)) for cid, raw in mapping.items()]
        expected = b"".join(
            cid + raw.to_bytes(16, "big", signed=True) for cid, raw in sorted(mapping.items())
        )
        shuffled = list(entries)
        rng.shuffle(shuffled)
        assert canonical_serialize(dict(entries)) == expected
        assert canonical_serialize(dict(shuffled)) == expected


class TestContentStore:
    def test_put_get_round_trip(self):
        store = ContentStore()
        cid = store.put(b"hello")
        assert cid == keccak256(b"hello")
        assert store.get(cid) == b"hello"

    def test_missing_blob(self):
        assert ContentStore().get(b"\x00" * 32) is None

    def test_idempotent_append_only(self):
        store = ContentStore()
        cid = store.put(b"x")
        assert store.put(b"x") == cid
        assert store.cids() == [cid]


class TestCheckpoints:
    CUMULATIVE = {cid_of(1): Fixed(100), cid_of(2): Fixed(-50)}

    def make(self):
        store = ContentStore()
        return store, publish_checkpoint(store, self.CUMULATIVE)

    def test_round_trip_verifies(self):
        store, cid = self.make()
        assert verify_checkpoints(store, [(cid, cid, self.CUMULATIVE)])[0] is None

    def test_cid_equals_hash_of_blob(self):
        store, cid = self.make()
        assert cid == keccak256(store.get(cid))
        assert store.get(cid) == canonical_serialize(self.CUMULATIVE)

    def test_tampered_blob_detected(self):
        store, cid = self.make()
        blob = bytearray(store.get(cid))
        blob[25] ^= 0x01
        tampered = ContentStore({cid: bytes(blob)})
        assert verify_checkpoints(tampered, [(cid, cid, self.CUMULATIVE)])[0] == "CidMismatch"

    def test_missing_blob_detected(self):
        _, cid = self.make()
        other = ContentStore({keccak256(b"other"): b"other"})
        assert verify_checkpoints(other, [(cid, cid, self.CUMULATIVE)])[0] == "NotFound"

    def test_onchain_hash_mismatch_detected(self):
        store, cid = self.make()
        anchor = (cid, b"\xff" * 32, self.CUMULATIVE)
        assert verify_checkpoints(store, [anchor])[0] == "HashMismatch"

    @pytest.mark.parametrize("cumulative", [{cid_of(1): Fixed(100)}, {}],
                             ids=["other_scores", "no_scores"])
    def test_content_mismatch_detected(self, cumulative):
        store, cid = self.make()
        assert verify_checkpoints(store, [(cid, cid, cumulative)])[0] == "ContentMismatch"


    def test_many_anchors_take_one_batch_and_the_verdicts_one_at_a_time(self, monkeypatch):
        store, cid = self.make()
        other_cid = publish_checkpoint(store, {cid_of(1): Fixed(7)})
        forged_cid = keccak256(b"forged")
        store = ContentStore({
            cid: store.get(cid), other_cid: store.get(other_cid), forged_cid: b"tampered",
        })
        anchors = [
            (cid, cid, self.CUMULATIVE),
            (keccak256(b"absent"), keccak256(b"absent"), self.CUMULATIVE),
            (forged_cid, forged_cid, self.CUMULATIVE),
            (cid, b"\xff" * 32, self.CUMULATIVE),
            (other_cid, other_cid, self.CUMULATIVE),
        ]
        one_at_a_time = [verify_checkpoints(store, [anchor])[0] for anchor in anchors]
        assert one_at_a_time == [None, "NotFound", "CidMismatch", "HashMismatch", "ContentMismatch"]
        batches = []
        keccak256_many = offchain.keccak256_many

        def recording(messages):
            batches.append(list(messages))
            return keccak256_many(messages)

        monkeypatch.setattr(offchain, "keccak256_many", recording)
        assert verify_checkpoints(store, anchors) == one_at_a_time
        assert batches == [[store.get(cid), b"tampered", store.get(cid), store.get(other_cid)]]


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json_bytes({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_deterministic(self):
        doc = {"x": 3, "y": {"k": None, "a": True}}
        assert canonical_json_bytes(doc) == canonical_json_bytes(dict(reversed(doc.items())))
