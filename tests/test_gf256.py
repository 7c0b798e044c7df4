"""Field arithmetic checks for GF(2^8) with primitive polynomial 0x11d.

Frozen values below were computed by hand from the table construction:
2^8 mod 0x11d = 0x11d xor 0x100 = 0x1d = 29, and inv(2) = 2^254 = 142.
"""

import numpy as np
import pytest

from codedmem import gf256


def gf_div(a, b):
    return gf256.gf_mul(a, gf256.gf_inv(b))


def mat_mul(a, b):
    """Product of two GF(2^8) matrices given as nested lists: the oracle
    that `mat_inv` is checked against."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= gf256.gf_mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


def test_exp_table_known_values():
    assert gf256.gf_mul(1, 1) == 1
    assert gf256.gf_mul(2, 2) == 4
    # 2^7 * 2 = 2^8 reduces by 0x11d
    assert gf256.gf_mul(128, 2) == 29
    assert gf256.gf_inv(2) == 142
    assert gf256.gf_mul(2, 142) == 1


def test_zero_and_identity():
    for a in range(256):
        assert gf256.gf_mul(a, 0) == 0
        assert gf256.gf_mul(0, a) == 0
        assert gf256.gf_mul(a, 1) == a


def test_inverse_roundtrip_all_nonzero():
    for a in range(1, 256):
        inv = gf256.gf_inv(a)
        assert gf256.gf_mul(a, inv) == 1
        assert gf_div(a, a) == 1


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf256.gf_inv(0)
    with pytest.raises(ZeroDivisionError):
        gf_div(5, 0)


def test_field_axioms_sampled():
    rng = np.random.default_rng(7)
    trip = rng.integers(0, 256, size=(200, 3))
    for a, b, c in trip.tolist():
        assert gf256.gf_mul(a, b) == gf256.gf_mul(b, a)
        assert gf256.gf_mul(gf256.gf_mul(a, b), c) == gf256.gf_mul(a, gf256.gf_mul(b, c))
        # distributivity over xor (field addition)
        assert gf256.gf_mul(a, b ^ c) == gf256.gf_mul(a, b) ^ gf256.gf_mul(a, c)


def test_mul_table_matches_scalar():
    # a row of one coefficient against every byte value: only the product table is read
    every_byte = [bytes(range(256))]
    for a in range(256):
        products = bytes(gf256.gf_mul(a, b) for b in range(256))
        assert gf256.apply_matrix([[a]], every_byte) == [products]


def test_mat_inv_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        while True:
            m = rng.integers(0, 256, size=(n, n)).tolist()
            try:
                inv = gf256.mat_inv(m)
            except ValueError:
                continue
            break
        prod = mat_mul(m, inv)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert prod == ident


def test_mat_inv_singular_rejected():
    with pytest.raises(ValueError):
        gf256.mat_inv([[1, 2], [1, 2]])


def test_apply_matrix_matches_rowwise_scalar():
    rng = np.random.default_rng(5)
    coefficients = set()

    def check(mat, rows, width):
        out = gf256.apply_matrix(mat, rows)
        assert len(out) == len(mat)
        for coefs, got in zip(mat, out):
            assert type(got) is bytes and len(got) == width
            for col in range(width):
                acc = 0
                for c, row in zip(coefs, rows):
                    acc ^= gf256.gf_mul(c, row[col])
                assert got[col] == acc
        return out

    # widths that are and are not a multiple of 8 take the 64-bit and byte views
    for width in [1, 3, 17, 32, 255, 8, 24, 1024, 1366] * 8:
        out_rows, inner = (int(v) for v in rng.integers(1, 6, size=2))
        # draw half the coefficients from {0, 1} so both shortcuts run
        mat = np.where(
            rng.random((out_rows, inner)) < 0.5,
            rng.integers(0, 2, size=(out_rows, inner)),
            rng.integers(0, 256, size=(out_rows, inner)),
        ).tolist()
        rows = [rng.integers(0, 256, size=width, dtype=np.uint8).tobytes() for _ in range(inner)]
        coefficients.update(c for coefs in mat for c in coefs)
        check(mat, rows, width)
    assert {0, 1} <= coefficients
    # an all-zero coefficient row makes a zero row, beside rows that do not
    for width in (8, 1366):
        rows = [rng.integers(0, 256, size=width, dtype=np.uint8).tobytes() for _ in range(3)]
        out = check([[0, 0, 0], [1, 7, 0], [0, 0, 0]], rows, width)
        assert out[0] == out[2] == bytes(width) != out[1]
