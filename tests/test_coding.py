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
    index, data = split
    raw = bytearray(data)
    raw[offset] ^= delta_byte
    return index, bytes(raw)


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

    def test_zero_page_size_rejected(self):
        with pytest.raises(InvalidParams, match="page_size must be >= 1"):
            coding.make_codec(coding.CodecParams(k=2, r=1), page_size=0)

    def test_numpy_integers_accepted(self):
        p = coding.CodecParams(k=np.int64(4), r=np.int32(2), delta=np.int8(1))
        assert (p.k, p.r, p.delta) == (4, 2, 1)


class TestSplitJoin:
    """A codeword's first k rows are the page cut in k, the tail zero-padded."""

    def test_split_lengths_k3(self):
        rng = np.random.default_rng(0)
        page = random_page(rng)
        codec = coding.make_codec(coding.CodecParams(k=3, r=1))
        word = coding.codeword(codec, page)
        assert len(word) == 4
        assert all(len(row) == 1366 for row in word)
        # the data rows in page order, zero padding on the tail row only
        assert [word[0], word[1], word[2][:-2]] == [page[:1366], page[1366:2732], page[2732:]]
        assert word[2][-2:] == b"\x00\x00"

    def test_even_division_no_padding(self):
        rng = np.random.default_rng(2)
        page = random_page(rng)
        codec = coding.make_codec(coding.CodecParams(k=8, r=2))
        data = coding.codeword(codec, page)[:8]
        assert all(len(row) == 512 for row in data)
        assert b"".join(data) == page


class TestEncode:
    def test_single_parity_is_xor(self):
        # r=1 parity row is all ones, so parity = xor of the data splits
        rng = np.random.default_rng(3)
        for k in (2, 5, 8):
            codec = coding.make_codec(coding.CodecParams(k=k, r=1))
            page = random_page(rng)
            word = coding.codeword(codec, page)
            parity = coding.encode(codec, list(word[:k]))
            assert len(parity) == 1
            assert word[k] == parity[0]  # the parity row is role k
            expect = np.zeros(len(word[0]), dtype=np.uint8)
            for row in word[:k]:
                expect ^= np.frombuffer(row, dtype=np.uint8)
            assert parity[0] == expect.tobytes()

    def test_r_zero_no_parity(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=0))
        page = random_page(np.random.default_rng(4))
        word = coding.codeword(codec, page)
        assert len(word) == 4
        assert coding.encode(codec, list(word)) == []

    def test_encode_deterministic(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(5))
        data = list(coding.codeword(codec, page)[:4])
        p1 = coding.encode(codec, data)
        p2 = coding.encode(codec, data)
        assert p1 == p2

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
        size = 4096 // k
        parity = coding.encode(codec, [page[i * size : (i + 1) * size] for i in range(k)])
        assert [len(row) for row in parity] == [size] * r
        assert hashlib.sha256(b"".join(parity)).hexdigest() == digest
        assert coding.codeword(codec, page)[k:] == tuple(parity)

    @pytest.mark.parametrize("k, r", [(8, 2), (4, 3), (3, 1), (1, 2)])
    def test_codeword_is_the_data_splits_then_their_parity(self, k, r, monkeypatch):
        codec = coding.make_codec(coding.CodecParams(k=k, r=r))
        page = random_page(np.random.default_rng(10 * k + r))
        # k = 3 does not divide 4096: the tail row is zero-padded
        size = -(-4096 // k)
        padded = page + bytes(size * k - 4096)
        data = [padded[i * size : (i + 1) * size] for i in range(k)]
        expect = tuple(data + coding.encode(codec, data))
        calls = []
        real = coding.encode
        monkeypatch.setattr(coding, "encode", lambda *a: calls.append(a) or real(*a))
        assert coding.codeword(codec, page) == expect
        assert len(calls) == 1  # through the module's name, where a tracer wraps it

    def test_length_mismatch_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=2, r=1))
        with pytest.raises(LengthMismatch):
            coding.encode(codec, [b"\x01" * 8, b"\x02" * 9])

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_row_count_rejected(self, count):
        codec = coding.make_codec(coding.CodecParams(k=2, r=1))
        with pytest.raises(InsufficientSplits, match="exactly 2 data rows"):
            coding.encode(codec, [b"\x01" * 8] * count)


class TestDecode:
    def test_all_subsets_roundtrip_small(self):
        # every k-subset of the k+r splits reconstructs the page byte-exactly
        params = coding.CodecParams(k=4, r=2)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(6)
        page = random_page(rng)
        splits = list(enumerate(coding.codeword(codec, page)))
        for subset in itertools.combinations(splits, 4):
            assert coding.decode(codec, list(subset)) == page

    def test_uses_first_k_by_arrival(self):
        params = coding.CodecParams(k=2, r=2)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(7))
        splits = list(enumerate(coding.codeword(codec, page)))
        # corrupt the last-arriving split; decode must ignore it
        tampered = corrupt_split(splits[3], 0, 0xFF)
        assert coding.decode(codec, [splits[1], splits[2], tampered]) == page

    def test_insufficient_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(8))
        splits = list(enumerate(coding.codeword(codec, page)))
        with pytest.raises(InsufficientSplits):
            coding.decode(codec, splits[:3])

    def test_every_arrival_order_decodes_from_a_bounded_cache(self):
        # the inverse rows are cached per index set, not per arrival order,
        # and the all-data set takes the systematic path without any
        codec = coding.make_codec(coding.CodecParams(k=4, r=2))
        page = random_page(np.random.default_rng(17))
        splits = list(enumerate(coding.codeword(codec, page)))
        for subset in itertools.combinations(splits, 4):
            for arrival in itertools.permutations(subset):
                assert coding.decode(codec, list(arrival)) == page
        assert len(codec._decode_cache) <= comb(6, 4) - 1

    def test_index_past_k_plus_r_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=2, r=1))
        splits = list(enumerate(coding.codeword(codec, bytes(range(8)))))
        with pytest.raises(InvalidParams, match="split index 3 out of range"):
            coding.decode(codec, [splits[0], (3, splits[1][1])])

    def test_splits_of_unequal_length_rejected(self):
        codec = coding.make_codec(coding.CodecParams(k=2, r=1))
        with pytest.raises(LengthMismatch, match="splits differ in length"):
            coding.decode(codec, [(0, b"\x01" * 4), (2, b"\x02" * 5)])

    def test_k1_replication(self):
        codec = coding.make_codec(coding.CodecParams(k=1, r=2))
        page = random_page(np.random.default_rng(9))
        for s in enumerate(coding.codeword(codec, page)):
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
        # only the missing data rows are solved, but the solution is unique,
        # so even a corrupted split among the k gives the reference solve's
        # bytes
        codec = coding.make_codec(coding.CodecParams(k=k, r=r))
        rng = np.random.default_rng(100 * k + r)
        page = random_page(rng)
        splits = list(enumerate(coding.codeword(codec, page)))
        for subset in itertools.combinations(range(k + r), k):
            arrival = [splits[i] for i in rng.permutation(list(subset))]
            later = [splits[i] for i in range(k + r) if i not in subset]
            victim = int(rng.integers(k))
            bad = corrupt_split(arrival[victim], int(rng.integers(codec.split_size)), 0x5A)
            tampered = arrival[:victim] + [bad] + arrival[victim + 1 :]
            for used, clean in ((arrival, True), (tampered, False)):
                expected = reference_decode(codec, used)
                assert (expected == page) is clean
                assert coding.decode(codec, used + later) == expected
        assert len(codec._decode_cache) == comb(k + r, k) - 1


class TestDetect:
    def test_clean_sets_never_alarm(self):
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(10)
        for _ in range(25):
            page = random_page(rng)
            splits = list(enumerate(coding.codeword(codec, page)))
            idx = rng.permutation(6)[:5]
            subset = [splits[i] for i in idx]
            assert coding.detect_corruption(codec, subset, 1) is False

    def test_single_corruption_always_detected(self):
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(11)
        for _ in range(50):
            page = random_page(rng)
            splits = list(enumerate(coding.codeword(codec, page)))
            idx = rng.permutation(6)[:5].tolist()
            subset = [splits[i] for i in idx]
            victim = int(rng.integers(0, 5))
            offset = int(rng.integers(0, len(subset[victim][1])))
            flip = int(rng.integers(1, 256))
            subset[victim] = corrupt_split(subset[victim], offset, flip)
            assert coding.detect_corruption(codec, subset, 1) is True

    def test_second_split_with_a_used_index_is_checked(self):
        # the first k distinct splits rebuild the page; a later split that
        # repeats one of their indices with other bytes must still alarm
        params = coding.CodecParams(k=4, r=2, delta=1)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(18))
        splits = list(enumerate(coding.codeword(codec, page)))
        for victim in (0, 4):
            twin = corrupt_split(splits[victim], 3, 0x41)
            subset = [splits[0], splits[4], splits[2], splits[3], twin]
            assert coding.detect_corruption(codec, subset, 1) is True
        assert coding.detect_corruption(codec, subset[:4] + [splits[4]], 1) is False

    def test_requires_k_plus_delta(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=2, delta=1))
        page = random_page(np.random.default_rng(12))
        splits = list(enumerate(coding.codeword(codec, page)))
        with pytest.raises(InsufficientSplits):
            coding.detect_corruption(codec, splits[:4], 1)


class TestCorrect:
    def test_single_corruption_located_and_fixed(self):
        # k + 2*delta + 1 = 7 = k + r
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(13)
        for _ in range(30):
            page = random_page(rng)
            splits = list(enumerate(coding.codeword(codec, page)))
            victim = int(rng.integers(0, 7))
            offset = int(rng.integers(0, len(splits[victim][1])))
            flip = int(rng.integers(1, 256))
            tampered = list(splits)
            tampered[victim] = corrupt_split(splits[victim], offset, flip)
            decoded, bad = coding.correct_corruption(codec, tampered, 1)
            assert decoded == page
            assert bad == {splits[victim][0]}

    def test_clean_set_reports_no_corruption(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        page = random_page(np.random.default_rng(14))
        splits = list(enumerate(coding.codeword(codec, page)))
        decoded, bad = coding.correct_corruption(codec, splits, 1)
        assert decoded == page
        assert bad == set()

    def test_excess_corruption_uncorrectable(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(15)
        page = random_page(rng)
        splits = list(enumerate(coding.codeword(codec, page)))
        tampered = list(splits)
        # two corruptions exceed delta=1 capacity
        tampered[0] = corrupt_split(splits[0], 0, 0x5A)
        tampered[3] = corrupt_split(splits[3], 1, 0xA5)
        with pytest.raises(UncorrectableCorruption):
            coding.correct_corruption(codec, tampered, 1)

    def test_requires_threshold_count(self):
        codec = coding.make_codec(coding.CodecParams(k=4, r=3, delta=1))
        page = random_page(np.random.default_rng(16))
        splits = list(enumerate(coding.codeword(codec, page)))
        with pytest.raises(InsufficientSplits):
            coding.correct_corruption(codec, splits[:6], 1)


class TestArrivalOrder:
    def test_detect_and_correct_ignore_split_order(self):
        params = coding.CodecParams(k=4, r=3, delta=1)
        codec = coding.make_codec(params)
        rng = np.random.default_rng(18)
        for trial in range(16):
            page = random_page(rng)
            splits = list(enumerate(coding.codeword(codec, page)))
            if trial % 4:  # one clean set in four
                victim = int(rng.integers(0, 7))
                offset = int(rng.integers(0, len(splits[victim][1])))
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
        splits = list(enumerate(coding.codeword(codec, page)))
        pick = rng.permutation(k + r)[:k]
        subset = [splits[i] for i in pick]
        assert coding.decode(codec, subset) == page
