"""Arithmetic over GF(2^8) with primitive polynomial 0x11d.

Scalar ops use exp/log tables. A byte row is ``bytes``: multiplying it by a
coefficient is one ``bytes.translate`` through that coefficient's 256-byte
product table, and adding rows is a word-wide xor: ``apply_matrix`` joins
every product into one buffer and xor-reduces it with numpy in 64-bit words
(bytes when the width is not a multiple of 8), the scheme of Plank, Greenan
& Miller, "Screaming Fast Galois Field Arithmetic Using Intel SIMD
Instructions", FAST 2013: multiply by table lookup, add by wide xor.
"""

import numpy as np

PRIMITIVE_POLY = 0x11D

# exp table doubled so products of two logs never need a modulo
_EXP = [0] * 512
_LOG = [0] * 256

_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]


def gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


# _MUL_TABLES[c][b] = c * b, one translate table per coefficient
_MUL_TABLES = [bytes(gf_mul(c, b) for b in range(256)) for c in range(256)]


def gf_inv(a):
    if a == 0:
        raise ZeroDivisionError("no inverse for 0 in GF(2^8)")
    return _EXP[255 - _LOG[a]]


def mat_inv(m):
    """Invert a square GF(2^8) matrix by Gauss-Jordan elimination.

    Raises ValueError when the matrix is singular.
    """
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(v, inv_p) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def apply_matrix(matrix, rows):
    """Multiply a coefficient matrix by a list of equal-length ``bytes`` rows;
    returns one ``bytes`` row of that length per matrix row."""
    width = len(rows[0])
    # 1 adds the row as it is; 0 translates to a zero row
    terms = bytearray().join([
        row if c == 1 else row.translate(_MUL_TABLES[c])
        for coefs in matrix
        for c, row in zip(coefs, rows, strict=True)
    ])
    wide = width % 8 == 0
    words = np.frombuffer(terms, np.uint64 if wide else np.uint8).reshape(
        len(matrix), len(rows), width // 8 if wide else width
    )
    # each sum overwrites its row's first term (numpy resolves the overlap),
    # so the output rows are made while no block but the terms is live and
    # the next call's terms reuse the block these free; a separate block of
    # sums left heap holes that cost `write_fault_soak` 1.3 MB of peak RSS
    sums = words[:, 0]
    np.bitwise_xor.reduce(words, axis=1, out=sums)
    return [row.tobytes() for row in sums]
