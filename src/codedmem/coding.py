"""Systematic Reed-Solomon page coding over GF(2^8).

A page is cut into k equal data splits (zero-padded); r parity splits are
produced by a Cauchy-derived generator whose first parity row is all ones,
so the single-parity configuration degenerates to plain xor. Any k of the
k+r splits reconstruct the page; k+delta splits detect up to delta
corruptions and k+2*delta+1 locate and repair them.

A row is ``bytes`` throughout. ``codeword`` is the one place a page
becomes its k+r rows, a tuple indexed by role: the page's k data rows,
then the r parity rows ``encode`` makes from them with
``gf256.apply_matrix``. A ``Parity`` record holds a page's parity until
something reads it: its first ``row`` call makes all r rows through
``codeword`` and keeps them, so a page whose parity no one reads is never
encoded. A split is an (index, row) pair only where its index carries
meaning, in what ``decode``, ``detect_corruption`` and
``correct_corruption`` take.

A decode inverts the generator rows of the k splits it uses, keeps the
data rows that arrived and rebuilds only the missing ones, from their
inverse rows cached per sorted index set. A check of a set of splits is that
one reconstruction, then only the other splits' rows, each compared with it.

The manager decodes no read whose splits all equal the page's
last-written codeword: the code is MDS, so any k splits of one
codeword decode to its page and every extra split checks against it, and
the codeword's own data splits are the page.
"""

import itertools
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

from . import gf256
from .errors import InsufficientSplits, InvalidParams, LengthMismatch, UncorrectableCorruption

PAGE_SIZE = 4096

# recovery modes for min_splits
MODES = ("failure", "detect", "correct")


@dataclass(frozen=True)
class CodecParams:
    """Code geometry: k data splits, r parity splits, delta corruption budget."""

    k: int
    r: int = 0
    delta: int = 0

    def __post_init__(self):
        for name in ("k", "r", "delta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParams(f"{name} must be an integer, got {value!r}")
        if self.k < 1:
            raise InvalidParams(f"k must be >= 1, got {self.k}")
        if self.r < 0:
            raise InvalidParams(f"r must be >= 0, got {self.r}")
        if self.k + self.r > 255:
            raise InvalidParams(f"k + r must be <= 255, got {self.k + self.r}")
        if not 0 <= self.delta <= self.r:
            raise InvalidParams(f"delta must be in [0, r], got {self.delta}")


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
    # sorted index set -> inverse rows of the data rows it lacks
    _decode_cache: dict = field(default_factory=dict, repr=False)


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


def _rows(codec, data, indices):
    """Codeword rows ``indices`` of the k data rows: a data row as it is, a
    parity row from its own ``parity_matrix`` row, never the whole codeword."""
    k = codec.params.k
    parity = [codec.parity_matrix[i - k] for i in indices if i >= k]
    computed = iter(gf256.apply_matrix(parity, data) if parity else ())
    return [data[i] if i < k else next(computed) for i in indices]


def encode(codec, data):
    """The r parity rows of the k data rows."""
    k = codec.params.k
    if len(data) != k:
        raise InsufficientSplits(f"encode needs exactly {k} data rows, got {len(data)}")
    if len(set(map(len, data))) > 1:
        raise LengthMismatch("data rows differ in length")
    return gf256.apply_matrix(codec.parity_matrix, data)


def codeword(codec, page):
    """The k+r rows of a page, indexed by role: k data rows of ceil(len/k)
    bytes, the last zero-padded, then their r parity rows."""
    k = codec.params.k
    size = -(-len(page) // k)
    padded = page.ljust(size * k, b"\x00")
    data = [padded[i * size : (i + 1) * size] for i in range(k)]
    return tuple(data + encode(codec, data))


class Parity:
    """The r parity rows of a page, made on first use.

    ``row(role)`` makes every row once through ``codeword``, keeps them and
    returns the one of that role. Two records of one codec are equal when
    their pages are, as their rows then are.
    """

    __slots__ = ("codec", "page", "rows")

    def __init__(self, codec, page):
        self.codec = codec
        self.page = page
        self.rows = None  # the r parity rows, once made

    def row(self, role):
        rows = self.rows
        if rows is None:
            rows = self.rows = codeword(self.codec, self.page)[self.codec.params.k :]
        return rows[role - self.codec.params.k]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Parity):
            return NotImplemented
        return self.codec is other.codec and self.page == other.page


def _generator_row(codec, index):
    k = codec.params.k
    if index < k:
        return [1 if j == index else 0 for j in range(k)]
    return codec.parity_matrix[index - k]


def _first_k(codec, splits):
    """The first k splits with distinct indices, by arrival, and the others."""
    k = codec.params.k
    width = k + codec.params.r
    seen = set()
    use, others = [], []
    for s in splits:
        index = s[0]
        if not 0 <= index < width:
            raise InvalidParams(f"split index {index} out of range")
        if len(use) < k and index not in seen:
            seen.add(index)
            use.append(s)
        else:
            others.append(s)
    if len(use) < k:
        raise InsufficientSplits(f"decode needs {k} distinct splits, got {len(use)}")
    return use, others


def _reconstruct_data(codec, use):
    k = codec.params.k
    # the indices in `use` are distinct, so the pairs sort by index alone
    indices, rows = zip(*sorted(use))
    if len(set(map(len, rows))) > 1:
        raise LengthMismatch("splits differ in length")
    if indices[-1] < k:  # k distinct indices below k: all data splits
        return list(rows)
    # keep the data rows that arrived and rebuild the missing ones from their
    # inverse rows, cached per sorted index set; at most C(k+r, k) sets exist
    inverse = codec._decode_cache.get(indices)
    if inverse is None:
        inv = gf256.mat_inv([_generator_row(codec, i) for i in indices])
        inverse = codec._decode_cache[indices] = [inv[i] for i in range(k) if i not in indices]
    arrived = dict(zip(indices, rows))
    rebuilt = iter(gf256.apply_matrix(inverse, rows))
    return [arrived[i] if i in arrived else next(rebuilt) for i in range(k)]


def _verified_decode(codec, splits):
    """The page rebuilt once from the first k distinct splits by arrival, or
    None when another split disagrees with its own codeword row.

    The rebuilt codeword matches the k splits used by construction, so only
    the others are compared, a second split with a used index among them.
    """
    use, others = _first_k(codec, splits)
    data = _reconstruct_data(codec, use)
    rows = _rows(codec, data, [s[0] for s in others])
    if any(s[1] != row for s, row in zip(others, rows)):
        return None
    return b"".join(data)[: codec.page_size]


def decode(codec, available):
    """Rebuild the page from the first k distinct splits by arrival order;
    the later splits are not compared."""
    data = _reconstruct_data(codec, _first_k(codec, available)[0])
    return b"".join(data)[: codec.page_size]


def detect_corruption(codec, splits, delta):
    """True iff the splits are inconsistent with every single codeword.

    With at most ``delta`` corrupted splits among >= k+delta supplied,
    inconsistency is always detected and clean sets never alarm: two
    codewords agreeing on k positions are identical, so a corrupted set
    cannot masquerade as a different valid codeword.
    """
    splits = list(splits)
    floor = codec.params.k + delta
    if len(splits) < floor:
        raise InsufficientSplits(f"detection needs {floor} splits, got {len(splits)}")
    return _verified_decode(codec, splits) is None


def correct_corruption(codec, splits, delta):
    """Locate and repair up to ``delta`` corrupted splits.

    Needs k + 2*delta + 1 splits: any candidate exclusion set of size
    <= delta that leaves the rest consistent pins a unique codeword.
    Exclusion sets are tried smallest first, so every split of the first
    one that works disagrees with that codeword.
    Returns (page bytes, set of corrupted split indices).
    """
    splits = list(splits)
    threshold = codec.params.k + 2 * delta + 1
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
            page = _verified_decode(codec, kept)
        except InsufficientSplits:
            continue
        if page is not None:
            return page, {splits[pos][0] for pos in excluded}
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
