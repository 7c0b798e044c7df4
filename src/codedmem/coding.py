"""Systematic Reed-Solomon page coding over GF(2^8).

A page is cut into k equal data splits (zero-padded); r parity splits are
produced by a Cauchy-derived generator whose first parity row is all ones,
so the single-parity configuration degenerates to plain xor. Any k of the
k+r splits reconstruct the page; k+delta splits detect up to delta
corruptions and k+2*delta+1 locate and repair them.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import gf256
from .errors import InsufficientSplits, InvalidParams, LengthMismatch, UncorrectableCorruption

PAGE_SIZE = 4096

DATA = "data"
PARITY = "parity"

# recovery modes for min_splits
MODES = ("failure", "detect", "correct")


@dataclass(frozen=True)
class CodecParams:
    """Code geometry: k data splits, r parity splits, delta corruption budget."""

    k: int
    r: int = 0
    delta: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParams(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise InvalidParams(f"r must be >= 0, got {self.r}")
        if self.k + self.r > 255:
            raise InvalidParams(f"k + r must be <= 255, got {self.k + self.r}")
        if not 0 <= self.delta <= self.r:
            raise InvalidParams(f"delta must be in [0, r], got {self.delta}")


@dataclass(frozen=True)
class Split:
    """One coded fragment of a page. Indices 0..k-1 are data, k..k+r-1 parity."""

    index: int
    kind: str
    data: bytes


def _build_parity_matrix(k, r):
    # Cauchy block: rows indexed by k..k+r-1, columns by 0..k-1. Every square
    # submatrix is nonsingular, and that survives scaling each column so the
    # first parity row becomes all ones.
    p = [[gf256.gf_inv((k + i) ^ j) for j in range(k)] for i in range(r)]
    scale = [gf256.gf_inv(p[0][j]) for j in range(k)] if r else []
    return [[gf256.gf_mul(v, s) for v, s in zip(row, scale)] for row in p]


@dataclass
class Codec:
    params: CodecParams
    page_size: int
    split_size: int
    parity_matrix: list
    _decode_cache: dict = field(default_factory=dict, repr=False)

    @property
    def k(self):
        return self.params.k

    @property
    def r(self):
        return self.params.r


def make_codec(params, page_size=PAGE_SIZE):
    if page_size < 1:
        raise InvalidParams(f"page_size must be >= 1, got {page_size}")
    split_size = -(-page_size // params.k)
    return Codec(
        params=params,
        page_size=page_size,
        split_size=split_size,
        parity_matrix=_build_parity_matrix(params.k, params.r),
    )


def split_page(page, k):
    """Cut a page into k data splits of ceil(len/k) bytes, zero-padding the tail."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    size = -(-len(page) // k)
    padded = page + b"\x00" * (size * k - len(page))
    return [Split(i, DATA, padded[i * size : (i + 1) * size]) for i in range(k)]


def join_splits(data_splits, page_size):
    """Concatenate data splits in index order and drop the padding."""
    ordered = sorted(data_splits, key=lambda s: s.index)
    return b"".join(s.data for s in ordered)[:page_size]


def _stack(splits):
    # one read-only (len(splits) x split size) view over the joined bytes
    joined = b"".join(s.data for s in splits)
    return np.frombuffer(joined, dtype=np.uint8).reshape(len(splits), -1)


def encode(codec, data_splits):
    """Produce the r parity splits for k data splits."""
    k, r = codec.k, codec.r
    if len(data_splits) != k:
        raise InsufficientSplits(f"encode needs exactly {k} data splits, got {len(data_splits)}")
    size = len(data_splits[0].data)
    if any(len(s.data) != size for s in data_splits):
        raise LengthMismatch("data splits differ in length")
    if r == 0:
        return []
    ordered = sorted(data_splits, key=lambda s: s.index)
    parity = gf256.apply_matrix(codec.parity_matrix, _stack(ordered))
    return [Split(k + i, PARITY, parity[i].tobytes()) for i in range(r)]


def _generator_row(codec, index):
    k = codec.k
    if index < k:
        return [1 if j == index else 0 for j in range(k)]
    return codec.parity_matrix[index - k]


def _decode_matrix(codec, indices):
    # inverted generator submatrix for this index set (sorted), cached per
    # codec; at most C(k+r, k) sets exist
    inv = codec._decode_cache.get(indices)
    if inv is None:
        rows = [_generator_row(codec, i) for i in indices]
        inv = gf256.mat_inv(rows)
        codec._decode_cache[indices] = inv
    return inv


def _first_k(codec, available):
    k = codec.k
    seen = set()
    use = []
    for s in available:
        if not 0 <= s.index < k + codec.r:
            raise InvalidParams(f"split index {s.index} out of range")
        if s.index in seen:
            continue
        seen.add(s.index)
        use.append(s)
        if len(use) == k:
            return use
    raise InsufficientSplits(f"decode needs {k} distinct splits, got {len(use)}")


def _reconstruct_data(codec, use):
    size = len(use[0].data)
    if any(len(s.data) != size for s in use):
        raise LengthMismatch("splits differ in length")
    k = codec.k
    use = sorted(use, key=lambda s: s.index)
    indices = tuple(s.index for s in use)
    stacked = _stack(use)
    if indices[-1] < k:  # k distinct indices below k: all data splits
        return stacked
    # erasure-only decode: keep the data rows that arrived and rebuild just
    # the missing ones from their rows of the inverse
    missing = [i for i in range(k) if i not in indices]
    present = k - len(missing)
    inv = _decode_matrix(codec, indices)
    data = np.empty((k, size), dtype=np.uint8)
    data[list(indices[:present])] = stacked[:present]
    data[missing] = gf256.apply_matrix([inv[i] for i in missing], stacked)
    return data


def decode(codec, available, page_size=None):
    """Rebuild the page from the first k distinct splits by arrival order."""
    use = _first_k(codec, available)
    data = _reconstruct_data(codec, use)
    page_size = codec.page_size if page_size is None else page_size
    return data.tobytes()[: codec.k * len(use[0].data)][:page_size]


def _codeword_rows(codec, data):
    # full k+r codeword from reconstructed data rows
    if codec.r == 0:
        return data
    parity = gf256.apply_matrix(codec.parity_matrix, data)
    return np.concatenate([data, parity])


def _consistent_codeword(codec, splits, decode_from):
    """Codeword rows if every split matches the codeword decoded from
    ``decode_from``, else None."""
    data = _reconstruct_data(codec, decode_from)
    word = _codeword_rows(codec, data)
    for s in splits:
        if not np.array_equal(word[s.index], np.frombuffer(s.data, dtype=np.uint8)):
            return None
    return word


def detect_corruption(codec, splits, delta):
    """True iff the splits are inconsistent with every single codeword.

    With at most ``delta`` corrupted splits among >= k+delta supplied,
    inconsistency is always detected and clean sets never alarm: two
    codewords agreeing on k positions are identical, so a corrupted set
    cannot masquerade as a different valid codeword.
    """
    splits = list(splits)
    if len(splits) < codec.k + delta:
        raise InsufficientSplits(
            f"detection needs {codec.k + delta} splits, got {len(splits)}"
        )
    use = _first_k(codec, splits)
    return _consistent_codeword(codec, splits, use) is None


def correct_corruption(codec, splits, delta):
    """Locate and repair up to ``delta`` corrupted splits.

    Needs k + 2*delta + 1 splits: any candidate exclusion set of size
    <= delta that leaves the rest consistent pins a unique codeword.
    Returns (page bytes, set of corrupted split indices).
    """
    splits = list(splits)
    threshold = codec.k + 2 * delta + 1
    if len(splits) < threshold:
        raise InsufficientSplits(
            f"correction needs {threshold} splits, got {len(splits)}"
        )
    order = range(len(splits))
    for excluded in itertools.chain.from_iterable(
        itertools.combinations(order, size) for size in range(delta + 1)
    ):
        kept = [s for pos, s in enumerate(splits) if pos not in excluded]
        try:
            use = _first_k(codec, kept)
        except InsufficientSplits:
            continue
        word = _consistent_codeword(codec, kept, use)
        if word is None:
            continue
        corrupted = {
            s.index
            for s in splits
            if not np.array_equal(word[s.index], np.frombuffer(s.data, dtype=np.uint8))
        }
        page = word[: codec.k].tobytes()[: codec.page_size]
        return page, corrupted
    raise UncorrectableCorruption(
        f"no codeword within {delta} corruptions of the supplied splits"
    )


def min_splits(mode, params):
    """Split count and storage/bandwidth overhead needed for a recovery mode.

    failure: any k of k+r survive machine loss      -> (k,            1 + r/k)
    detect:  spot up to delta corruptions            -> (k+delta,      1 + delta/k)
    correct: locate and repair up to delta           -> (k+2*delta+1,  1 + (2*delta+1)/k)
    """
    k, r, delta = params.k, params.r, params.delta
    if mode == "failure":
        return k, 1 + Fraction(r, k)
    if mode == "detect":
        return k + delta, 1 + Fraction(delta, k)
    if mode == "correct":
        return k + 2 * delta + 1, 1 + Fraction(2 * delta + 1, k)
    raise ValueError(f"unknown recovery mode {mode!r}; expected one of {MODES}")
