"""Unit and property tests for the bloom filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.bloom import BloomFilter


class TestBasics:
    def test_added_keys_are_members(self):
        bloom = BloomFilter.with_capacity(100)
        bloom.add("key1")
        bloom.add(("tuple", 2))
        assert "key1" in bloom
        assert ("tuple", 2) in bloom

    def test_empty_filter_has_no_members(self):
        bloom = BloomFilter.with_capacity(100)
        assert "anything" not in bloom
        assert not bloom.contains_any(f"absent{i}" for i in range(1000))

    def test_contains_any(self):
        bloom = BloomFilter.from_keys(["a", "b"])
        assert bloom.contains_any(["zzz", "b"])
        assert not bloom.contains_any(["x", "y", "z"])
        assert not bloom.contains_any([])

    def test_sizing_from_capacity(self):
        small = BloomFilter.with_capacity(10, fp_rate=0.01)
        large = BloomFilter.with_capacity(1000, fp_rate=0.01)
        assert large.num_bits > small.num_bits

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)
        with pytest.raises(ValueError):
            BloomFilter.with_capacity(10, fp_rate=1.5)

    def test_observed_fp_rate_near_target(self):
        bloom = BloomFilter.from_keys([f"member{i}" for i in range(500)], fp_rate=0.01)
        false_positives = sum(1 for i in range(5000) if f"absent{i}" in bloom)
        assert false_positives / 5000 < 0.05  # generous bound around 1%

    def test_estimate_tracks_fill(self):
        """Filled to capacity one add at a time, the filter lets through
        about its target rate of absent keys: some, but not many."""
        bloom = BloomFilter.with_capacity(100, fp_rate=0.01)
        for i in range(100):
            bloom.add(i)
        false_positives = sum(1 for i in range(20_000) if f"absent{i}" in bloom)
        assert 0.001 < false_positives / 20_000 < 0.1


class TestSerialization:
    def test_roundtrip_preserves_membership(self):
        bloom = BloomFilter.from_keys(["x", "y", "z"], fp_rate=0.001)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert "x" in restored and "y" in restored and "z" in restored
        assert restored.num_bits == bloom.num_bits
        assert restored.num_hashes == bloom.num_hashes
        assert restored.count == bloom.count

    def test_truncated_bytes_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"\x00\x01")

    def test_size_mismatch_rejected(self):
        bloom = BloomFilter.from_keys(["x"])
        data = bloom.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(data[:-1])

    def test_deterministic_across_instances(self):
        """Same keys -> identical wire bytes (no process-randomized hashing)."""
        a = BloomFilter.from_keys(["k1", "k2", "k3"], fp_rate=0.01)
        b = BloomFilter.from_keys(["k1", "k2", "k3"], fp_rate=0.01)
        assert a.to_bytes() == b.to_bytes()


class TestProperties:
    @given(st.lists(st.text(max_size=20), max_size=100))
    def test_no_false_negatives(self, keys):
        """The defining bloom-filter property: members are always found."""
        bloom = BloomFilter.from_keys(keys, fp_rate=0.01)
        for key in keys:
            assert key in bloom

    @given(st.lists(st.text(max_size=16), min_size=1, max_size=50))
    def test_roundtrip_is_lossless(self, keys):
        bloom = BloomFilter.from_keys(keys)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        for key in keys:
            assert key in restored
