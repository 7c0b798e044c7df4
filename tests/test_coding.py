"""Codec-layer tests.

Frozen oracle values:
  - split lengths: 4096-byte page, k=3 -> ceil(4096/3) = 1366 bytes/split, 2 pad bytes
  - recovery thresholds for (k=8, r=2, delta=1):
      failure  -> 8 splits,  overhead 5/4
      detect   -> 9 splits,  overhead 9/8
      correct  -> 11 splits, overhead 11/8
"""

import hashlib
import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from codedmem import coding, gf256
from codedmem.errors import (
    InsufficientSplits,
    InvalidParams,
    LengthMismatch,
    UncorrectableCorruption,
)


def random_page(rng, size=4096):
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def corrupt_split(split, offset, delta_byte):
    raw = bytearray(split.data)
    raw[offset] ^= delta_byte
    return coding.Split(split.index, bytes(raw))


class TestParams:
    def test_valid(self):
        p = coding.CodecParams(k=8, r=2, delta=1)
        assert (p.k, p.r, p.delta) == (8, 2, 1)

    def test_invalid_rejected(self):
        with pytest.raises(InvalidParams):
            coding.CodecParams(k=0, r=2)
        with pytest.raises(InvalidParams):
            coding.CodecParams(k=8, r=-1)
        with pytest.raises(InvalidParams):
            coding.CodecParams(k=250, r=10)  # k + r > 255
        with pytest.raises(InvalidParams):
            coding.CodecParams(k=8, r=2, delta=3)  # delta > r

    @pytest.mark.parametrize(
        "fields", [{"k": 8.0}, {"k": True}, {"k": "8"}, {"r": 1.0}, {"r": False}, {"delta": 1.5}]
    )
    def test_non_integer_fields_rejected(self, fields):
        values = dict(dict(k=8, r=2, delta=1), **fields)
        with pytest.raises(InvalidParams, match=f"{next(iter(fields))} must be an integer"):
            coding.CodecParams(**values)

    def test_numpy_integers_accepted(self):
        p = coding.CodecParams(k=np.int64(4), r=np.int32(2), delta=np.int8(1))
        assert (p.k, p.r, p.delta) == (4, 2, 1)


class TestSplitJoin:
    def test_split_lengths_k3(self):
        rng = np.random.default_rng(0)
        page = random_page(rng)
        splits = coding.split_page(page, 3)
        assert len(splits) == 3
        assert all(len(s.data) == 1366 for s in splits)
        assert [s.index for s in splits] == [0, 1, 2]
        # zero padding on the tail split only
        assert splits[2].data[-2:] == b"\x00\x00"

    def test_even_division_no_padding(self):
        rng = np.random.default_rng(2)
        page = random_page(rng)
        splits = coding.split_page(page, 8)
        assert all(len(s.data) == 512 for s in splits)
        assert b"".join(s.data for s in splits) == page


class TestEncode:
    def test_single_parity_is_xor(self):
        # r=1 parity row is all ones, so parity = xor of the data splits
        rng = np.random.default_rng(3)
        for k in (2, 5, 8):
            codec = coding.make_codec(coding.CodecParams(k=k, r=1))
            page = random_page(rng)
            data = coding.split_page(page, k)
            parity = coding.encode(codec, data)
            assert len(parity) == 1
            assert parity[0].index == k
            expect = np.zeros(len(data[0].data), dtype=np.uint8)
            for s in data:
                expect ^= np.frombuffer(s.data, dtype=np.uint8)
            assert parity[0].data == expect.tobytes()

    def test_r_zero_no_parity(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=0))
        page = random_page(np.random.default_rng(4))
        assert coding.encode(codec, coding.split_page(page, 4)) == []

    def test_encode_deterministic(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(5))
        data = coding.split_page(page, 4)
        p1 = coding.encode(codec, data)
        p2 = coding.encode(codec, data)
        assert [s.data for s in p1] == [s.data for s in p2]

    @pytest.mark.parametrize(
        "k, r, seed, digest",
        [
            (8, 2, 12, "1d9fdbe2bff41ddc6d1b0ce458c92577d7fa5efa7aca9d74600b11195f15c499"),
            (4, 3, 43, "fd5277b73bd2446b7e564f5defb1ff660471eb218ebb9dc0eb8981c3a1e5ac0b"),
        ],
    )
    def test_parity_matches_golden_digest(self, k, r, seed, digest):
        # digests of the joined parity splits, frozen from the numpy product-table kernel
        codec = coding.make_codec(coding.CodecParams(k=k, r=r))
        page = random_page(np.random.default_rng(seed))
        parity = coding.encode(codec, coding.split_page(page, k))
        assert [len(s.data) for s in parity] == [4096 // k] * r
        assert hashlib.sha256(b"".join(s.data for s in parity)).hexdigest() == digest

    def test_length_mismatch_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=2, r=1))
        bad = [
            coding.Split(0, b"\x01" * 8),
            coding.Split(1, b"\x02" * 9),
        ]
        with pytest.raises(LengthMismatch):
            coding.encode(codec, bad)


class TestDecode:
    def test_all_subsets_roundtrip_small(self):
        # every k-subset of the k+r splits reconstructs the page byte-exactly
        params = coding.CodecParams(k=4, r=2)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(6)
        page = random_page(rng)
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        for subset in itertools.combinations(splits, 4):
            assert coding.decode(codec, list(subset)) == page

    def test_uses_first_k_by_arrival(self):
        params = coding.CodecParams(k=2, r=2)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(7))
        data = coding.split_page(page, 2)
        splits = data + coding.encode(codec, data)
        # corrupt the last-arriving split; decode must ignore it
        tampered = corrupt_split(splits[3], 0, 0xFF)
        assert coding.decode(codec, [splits[1], splits[2], tampered]) == page

    def test_insufficient_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(8))
        data = coding.split_page(page, 4)
        with pytest.raises(InsufficientSplits):
            coding.decode(codec, data[:3])

    def test_every_arrival_order_decodes_from_a_bounded_cache(self):
        # the decode plan is keyed on the index set, not the arrival order,
        # and the all-data set takes the systematic path without one
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(17))
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        for subset in itertools.combinations(splits, 4):
            for arrival in itertools.permutations(subset):
                assert coding.decode(codec, list(arrival)) == page
        assert len(codec._decode_cache) <= comb(6, 4) - 1

    def test_k1_replication(self):
        codec = coding.make_codec(coding.CodecParams(k=1, r=2))
        page = random_page(np.random.default_rng(9))
        data = coding.split_page(page, 1)
        parity = coding.encode(codec, data)
        for s in data + parity:
            assert coding.decode(codec, [s]) == page


# products from the scalar gf_mul, not the kernel's translate tables
_PRODUCT = np.array([[gf256.gf_mul(a, b) for b in range(256)] for a in range(256)], np.uint8)


def reference_decode(codec, splits):
    """The page solved from the first k splits alone: the inverse of their
    generator submatrix, applied one data row at a time."""
    k = codec.params.k
    used = sorted(splits[:k], key=lambda s: s[0])
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    generator = [identity[i] if i < k else codec.parity_matrix[i - k] for i, _ in used]
    rows = [np.frombuffer(data, np.uint8) for _, data in used]
    page = b""
    for coefs in gf256.mat_inv(generator):
        row = np.zeros_like(rows[0])
        for c, split in zip(coefs, rows):
            row ^= _PRODUCT[c][split]
        page += row.tobytes()
    return page[: codec.page_size]


class TestDecodeOracle:
    @pytest.mark.parametrize("k, r", [(8, 2), (4, 3), (3, 1)])
    def test_every_index_set_matches_the_reference_solve(self, k, r):
        # the plan rebuilds the last erasure by xor when parity row k is
        # used; the solution is unique, so even a corrupted split among the
        # k gives the reference solve's bytes
        codec = coding.make_codec(coding.CodecParams(k=k, r=r))
        rng = np.random.default_rng(100 * k + r)
        page = random_page(rng)
        data = coding.split_page(page, k)
        splits = data + coding.encode(codec, data)
        for subset in itertools.combinations(range(k + r), k):
            arrival = [splits[i] for i in rng.permutation(list(subset))]
            later = [splits[i] for i in range(k + r) if i not in subset]
            victim = int(rng.integers(k))
            bad = corrupt_split(arrival[victim], int(rng.integers(codec.split_size)), 0x5A)
            tampered = arrival[:victim] + [bad] + arrival[victim + 1 :]
            for used, clean in ((arrival, True), (tampered, False)):
                expected = reference_decode(codec, used)
                assert (expected == page) is clean
                for given in (used + later, [tuple(s) for s in used + later]):
                    assert coding.decode(codec, given) == expected
        assert len(codec._decode_cache) == comb(k + r, k) - 1


class TestDetect:
    def test_clean_sets_never_alarm(self):
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(10)
        for _ in range(25):
            page = random_page(rng)
            data = coding.split_page(page, 4)
            splits = data + coding.encode(codec, data)
            idx = rng.permutation(6)[:5]
            subset = [splits[i] for i in idx]
            assert coding.detect_corruption(codec, subset, 1) is False

    def test_single_corruption_always_detected(self):
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(11)
        for _ in range(50):
            page = random_page(rng)
            data = coding.split_page(page, 4)
            splits = data + coding.encode(codec, data)
            idx = rng.permutation(6)[:5].tolist()
            subset = [splits[i] for i in idx]
            victim = int(rng.integers(0, 5))
            offset = int(rng.integers(0, len(subset[victim].data)))
            flip = int(rng.integers(1, 256))
            subset[victim] = corrupt_split(subset[victim], offset, flip)
            assert coding.detect_corruption(codec, subset, 1) is True

    def test_second_split_with_a_used_index_is_checked(self):
        # the first k distinct splits rebuild the page; a later split that
        # repeats one of their indices with other bytes must still alarm
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(18))
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        for victim in (0, 4):
            twin = corrupt_split(splits[victim], 3, 0x41)
            subset = [splits[0], splits[4], splits[2], splits[3], twin]
            assert coding.detect_corruption(codec, subset, 1) is True
        assert coding.detect_corruption(codec, subset[:4] + [splits[4]], 1) is False

    def test_requires_k_plus_delta(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2, delta=1))
        page = random_page(np.random.default_rng(12))
        data = coding.split_page(page, 4)
        with pytest.raises(InsufficientSplits):
            coding.detect_corruption(codec, data, 1)


class TestCorrect:
    def test_single_corruption_located_and_fixed(self):
        # k + 2*delta + 1 = 7 = k + r
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(13)
        for _ in range(30):
            page = random_page(rng)
            data = coding.split_page(page, 4)
            splits = data + coding.encode(codec, data)
            victim = int(rng.integers(0, 7))
            offset = int(rng.integers(0, len(splits[victim].data)))
            flip = int(rng.integers(1, 256))
            tampered = list(splits)
            tampered[victim] = corrupt_split(splits[victim], offset, flip)
            decoded, bad = coding.correct_corruption(codec, tampered, 1)
            assert decoded == page
            assert bad == {splits[victim].index}

    def test_clean_set_reports_no_corruption(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(14))
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        decoded, bad = coding.correct_corruption(codec, splits, 1)
        assert decoded == page
        assert bad == set()

    def test_excess_corruption_uncorrectable(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(15)
        page = random_page(rng)
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        tampered = list(splits)
        # two corruptions exceed delta=1 capacity
        tampered[0] = corrupt_split(splits[0], 0, 0x5A)
        tampered[3] = corrupt_split(splits[3], 1, 0xA5)
        with pytest.raises(UncorrectableCorruption):
            coding.correct_corruption(codec, tampered, 1)

    def test_requires_threshold_count(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=3, delta=1))
        page = random_page(np.random.default_rng(16))
        data = coding.split_page(page, 4)
        splits = data + coding.encode(codec, data)
        with pytest.raises(InsufficientSplits):
            coding.correct_corruption(codec, splits[:6], 1)


class TestArrivalOrder:
    def test_detect_and_correct_ignore_split_order(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(18)
        for trial in range(16):
            page = random_page(rng)
            data = coding.split_page(page, 4)
            splits = data + coding.encode(codec, data)
            if trial % 4:  # one clean set in four
                victim = int(rng.integers(0, 7))
                offset = int(rng.integers(0, len(splits[victim].data)))
                splits[victim] = corrupt_split(splits[victim], offset, int(rng.integers(1, 256)))
            subset = [splits[i] for i in sorted(rng.permutation(7)[:5].tolist())]
            verdict = coding.detect_corruption(codec, subset, 1)
            repaired = coding.correct_corruption(codec, splits, 1)
            assert repaired[0] == page
            for _ in range(6):
                shuffled = [subset[i] for i in rng.permutation(5)]
                assert coding.detect_corruption(codec, shuffled, 1) is verdict
                shuffled = [splits[i] for i in rng.permutation(7)]
                assert coding.correct_corruption(codec, shuffled, 1) == repaired


class TestThresholds:
    def test_frozen_values_default_config(self):
        params = coding.CodecParams(k=8, r=2, delta=1)
        assert coding.min_splits("failure", params) == (8, Fraction(5, 4))
        assert coding.min_splits("detect", params) == (9, Fraction(9, 8))
        assert coding.min_splits("correct", params) == (11, Fraction(11, 8))

    def test_overheads_are_exact_rationals(self):
        params = coding.CodecParams(k=8, r=2, delta=1)
        for mode in ("failure", "detect", "correct"):
            _, overhead = coding.min_splits(mode, params)
            assert isinstance(overhead, Fraction)

    def test_general_formulas(self):
        params = coding.CodecParams(k=4, r=3, delta=2)
        assert coding.min_splits("failure", params) == (4, Fraction(7, 4))
        assert coding.min_splits("detect", params) == (6, Fraction(6, 4))
        assert coding.min_splits("correct", params) == (9, Fraction(9, 4))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            coding.min_splits("bogus", coding.CodecParams(k=2, r=1))


def test_random_roundtrip_property():
    # randomized sweep over geometries: any k-subset decodes
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(1, 10))
        r = int(rng.integers(0, 5))
        page = random_page(rng, size=int(rng.integers(1, 2048)))
        codec = coding.make_codec(coding.CodecParams(k=k, r=r), len(page))
        data = coding.split_page(page, k)
        splits = data + coding.encode(codec, data)
        pick = rng.permutation(k + r)[:k]
        subset = [splits[i] for i in pick]
        assert coding.decode(codec, subset) == page
