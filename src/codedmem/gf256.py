"""Arithmetic over GF(2^8) with primitive polynomial 0x11d.

Scalar ops use exp/log tables; bulk byte transforms go through a full
256x256 product table so numpy can apply a coding matrix to whole splits
with pure table lookups and xors.
"""

import numpy as np

PRIMITIVE_POLY = 0x11D

# exp table doubled so products of two logs never need a modulo
_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int64)

_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= PRIMITIVE_POLY
for _i in range(255, 512):
    _EXP[_i] = _EXP[_i - 255]

# GF_MUL[a, b] = a * b
GF_MUL = np.zeros((256, 256), dtype=np.uint8)
GF_MUL[1:, 1:] = _EXP[(_LOG[1:, None] + _LOG[None, 1:]) % 255]
_GF_MUL_FLAT = GF_MUL.ravel()  # a * b at index a << 8 | b


def gf_mul(a, b):
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a):
    if a == 0:
        raise ZeroDivisionError("no inverse for 0 in GF(2^8)")
    return int(_EXP[255 - _LOG[a]])


def gf_div(a, b):
    if b == 0:
        raise ZeroDivisionError("division by 0 in GF(2^8)")
    if a == 0:
        return 0
    return int(_EXP[_LOG[a] - _LOG[b] + 255])


def mat_mul(a, b):
    """Product of two GF(2^8) matrices given as nested lists."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= gf_mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


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


def apply_matrix(matrix, data):
    """Multiply a coefficient matrix by stacked byte rows.

    matrix: (rows x inner) nested list of field elements
    data:   (inner x width) uint8 array; returns (rows x width) uint8.
    """
    data = np.asarray(data, dtype=np.uint8)
    coefs = np.asarray(matrix, dtype=np.intp).reshape(len(matrix), data.shape[0])
    # one gather of every coefficient-byte product, then xor over the inner axis
    products = _GF_MUL_FLAT.take((coefs[:, :, None] << 8) | data)
    return np.bitwise_xor.reduce(products, axis=1)
