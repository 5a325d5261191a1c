import pickle
import random

import numpy as np
import pytest

from codedpir.errors import (BadParams, CodedPirError, DegreeOutOfRange, DimensionMismatch,
                             FieldMismatch, NonPrime, RankDeficient)
from codedpir.fields import (Matrix, canonical_modulus, field_make, mat_mul, mat_rank,
                             mat_rref, mat_solve)
from conftest import FIELDS, column, lifted, transposed


def _irreducible_by_roots(coeffs, p):
    """Degree <= 3 oracle: irreducible iff no root in GF(p)."""
    def ev(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc
    return all(ev(x) != 0 for x in range(p))


def test_field_pickles_to_its_cached_instance():
    """A field unpickles as `field_make`'s cached instance, so identity
    comparison of fields survives a round trip."""
    for p, alpha in [(2, 1), (2, 3), (3, 2), (17, 1)]:
        f = field_make(p, alpha)
        assert pickle.loads(pickle.dumps(f)) is f


def test_canonical_modulus_gf8_matches_enumeration_oracle():
    # enumerate monic degree-3 polynomials over GF(2) in canonical order and
    # take the first irreducible one (degree 3: root check suffices)
    first = None
    for v in range(8):
        coeffs = [v & 1, (v >> 1) & 1, (v >> 2) & 1, 1]
        if _irreducible_by_roots(coeffs, 2):
            first = tuple(coeffs)
            break
    assert first == (1, 1, 0, 1)  # x^3 + x + 1
    assert field_make(2, 3).modulus == first


@pytest.mark.parametrize("p,alpha", [f for f in FIELDS if f[1] > 1] + [(3, 4), (2, 8)])
def test_canonical_modulus_is_first_irreducible_by_sympy(p, alpha):
    """The canonical modulus is the first monic degree-alpha polynomial, in
    `canonical_modulus`'s order (the base-p digits of v = 0, 1, ... as the
    coefficients below the leading one, low to high), that sympy's
    gf_irreducible_p accepts."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    for v in range(p ** alpha):
        coeffs = [v // p ** i % p for i in range(alpha)] + [1]
        if gf_irreducible_p(coeffs[::-1], p, ZZ):  # sympy lists high to low
            break
    assert canonical_modulus(p, alpha) == tuple(coeffs)
    assert field_make(p, alpha).modulus == tuple(coeffs)


def test_field_make_rejects_bad_parameters():
    with pytest.raises(NonPrime):
        field_make(4, 1)
    with pytest.raises(DegreeOutOfRange):
        field_make(2, 9)
    assert field_make(2, 1).order == 2


@pytest.mark.parametrize("args", [(2.9,), ("7",), (2, 1.0), (None,)])
def test_field_make_refuses_parameters_that_are_not_integers(args):
    """p and alpha are taken through `operator.index`: GF(2.9) is not
    GF(2), and "7" is not 7."""
    with pytest.raises(BadParams, match=r"GF\("):
        field_make(*args)
    assert field_make(np.int64(7)) is field_make(7)
    assert field_make(np.int64(2), np.int64(3)) is field_make(2, 3)


@pytest.mark.parametrize("p,alpha", [(2, 1), (2, 3), (2, 4), (3, 2), (13, 1), (17, 1)])
def test_field_axioms_on_random_triples(p, alpha):
    f = field_make(p, alpha)
    rng = random.Random(1234 + p + alpha)
    q = f.order
    for _ in range(300):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,alpha", [(5, 7), (7, 6), (17, 4), (2, 8), (3, 5)])
def test_inverse_matches_sympy_gcdex(p, alpha):
    """GF(5^7), GF(7^6) and GF(17^4) have no log/exp tables and invert by
    extended Euclid; GF(2^8) and GF(3^5) invert through their tables."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcdex, gf_strip
    f = field_make(p, alpha)
    assert (f._exp is None) == (f.order > 1 << 16)
    rng = random.Random(p * alpha)
    modulus = list(reversed(f.modulus))  # sympy lists coefficients high to low
    for a in [1, 2, p, f.order - 1] + [rng.randrange(1, f.order) for _ in range(200)]:
        s, _, g = gf_gcdex(gf_strip(list(reversed(f.to_digits(a)))), modulus, p, ZZ)
        assert g == [1]
        assert f.inv(a) == f.from_digits(reversed(s)), a
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_subfield_embedding_is_a_homomorphism():
    base = field_make(2, 2)
    ext = base.extension(2)
    table = ext.embedding_from(base)
    assert table[0] == 0 and table[1] == 1
    for a in range(4):
        for b in range(4):
            assert table[base.add(a, b)] == ext.add(table[a], table[b])
            assert table[base.mul(a, b)] == ext.mul(table[a], table[b])
    assert base.extension(1) is base


def test_rank_reference_values(good532):
    assert mat_rank(Matrix(field_make(2), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert mat_rank(good532.G) == 3
    assert mat_rank(Matrix(field_make(2), [[0] * 5, [0] * 5])) == 0


def test_rref_pivots():
    f2 = field_make(2)
    ident = Matrix(f2, np.eye(4, dtype=np.int64))
    red, piv = mat_rref(ident)
    assert red == ident and piv == [0, 1, 2, 3]
    # hand Gauss-Jordan oracle on the worked 3x5 generator: already reduced
    g = Matrix(f2, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]])
    red, piv = mat_rref(g)
    assert piv == [0, 1, 2] and red == g
    _, piv = mat_rref(Matrix(f2, [[0, 1, 1]]))
    assert piv == [1]


def test_solve_identity_and_inconsistent():
    f2 = field_make(2)
    ident = Matrix(f2, np.eye(3, dtype=np.int64))
    b = column(f2, [1, 0, 1])
    assert mat_solve(ident, b) == b
    with pytest.raises(RankDeficient):
        mat_solve(Matrix(f2, [[1], [1]]), column(f2, [1, 0]))


def test_solve_mixed_field_roundtrip():
    """A GF(2) system with a GF(4) right side is solved once A is embedded
    into GF(4) by `embed_array`; given over the two fields, `mat_mul` and
    `mat_solve` refuse it."""
    f2 = field_make(2)
    f4 = f2.extension(2)
    rng = random.Random(5)
    for _ in range(25):
        a = Matrix(f2, [[rng.randrange(2) for _ in range(3)] for _ in range(5)])
        if mat_rank(a) < 3:
            continue
        x = column(f4, [rng.randrange(4) for _ in range(3)])
        b = mat_mul(lifted(a, f4), x)
        assert mat_solve(lifted(a, f4), b) == x
        with pytest.raises(FieldMismatch):
            mat_mul(a, x)
        with pytest.raises(FieldMismatch):
            mat_solve(a, b)


def test_mat_mul_contracts():
    f2 = field_make(2)
    ident = Matrix(f2, np.eye(3, dtype=np.int64))
    b = Matrix(f2, [[1, 0], [1, 1], [0, 1]])
    assert mat_mul(ident, b) == b
    ones_row = Matrix(f2, [[1, 1, 1]])
    ones_col = column(f2, [1, 1, 1])
    assert mat_mul(ones_row, ones_col).array().tolist() == [[3 % 2]]
    with pytest.raises(DimensionMismatch):
        mat_mul(b, b)
    with pytest.raises(FieldMismatch):
        mat_mul(Matrix(field_make(3), [[1]]), Matrix(field_make(2), [[1]]))


def test_rank_product_bound_random():
    f = field_make(5)
    rng = random.Random(8)
    for _ in range(30):
        a = Matrix(f, [[rng.randrange(5) for _ in range(4)] for _ in range(3)])
        b = Matrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(4)])
        assert mat_rank(mat_mul(a, b)) <= min(mat_rank(a), mat_rank(b))
        red, piv = mat_rref(a)
        assert mat_rank(a) == len(piv) == mat_rank(red)


def test_null_space_and_inverse():
    f2 = field_make(2)
    g = Matrix(f2, [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]])
    h = Matrix.from_array(f2, f2.null_space_array(g.array()))
    assert h.rows == 2
    assert not mat_mul(g, transposed(h)).array().any()
    m = Matrix(f2, [[1, 1], [0, 1]])
    assert mat_mul(m, Matrix.from_array(f2, f2.inverse_array(m.array()))) == \
        Matrix(f2, np.eye(2, dtype=np.int64))
    with pytest.raises(RankDeficient):
        f2.inverse_array(np.array([[1, 1], [1, 1]]))
    with pytest.raises(DimensionMismatch):
        f2.inverse_array(g.array())


def test_matrix_refuses_a_shape_its_rows_do_not_have():
    """A stated row or column count that the data contradicts, and ragged
    rows, raise DimensionMismatch instead of making a matrix whose rows
    disagree with its data."""
    f2 = field_make(2)
    for data, rows, cols in [([[1, 0]], 5, 2), ([[1, 0]], 1, 3), ([], 3, 2),
                             ([[1, 0], [1]], None, None)]:
        with pytest.raises(DimensionMismatch):
            Matrix(f2, data, rows, cols)
    assert (Matrix(f2, [], 0, 4).rows, Matrix(f2, [], 0, 4).cols) == (0, 4)
    assert Matrix(f2, [[1, 0]], 1, 2).array().tolist() == [[1, 0]]
    assert Matrix(f2, [], 0, 3).array().shape == (0, 3)
    assert Matrix(f2, [[]]).array().shape == (1, 0)


def test_matrix_entries_must_be_integers():
    """Entries are taken through `operator.index`: Python and numpy integers
    pass (reduced mod q), a float is refused where it was truncated before."""
    f3 = field_make(3)
    assert Matrix(f3, [[np.int64(4), 2, True]]).array().tolist() == [[1, 2, 1]]
    assert Matrix(f3, np.array([[5, 7]])).array().tolist() == [[2, 1]]
    for bad in ([[1.7, 2]], [[1, np.float64(2.0)]], [["1", 2]]):
        with pytest.raises(BadParams) as raised:
            Matrix(f3, bad)
        assert isinstance(raised.value, CodedPirError)


def test_matrix_is_its_read_only_array():
    """A `Matrix` holds its entries once: `array()` returns the stored int64
    array, not a copy, and writing into it raises ValueError; `from_array`
    copies its input once, so a later write to that input changes nothing."""
    f5 = field_make(5)
    m = Matrix(f5, [[1, 7], [3, 4]])
    a = m.array()
    assert a is m.array() and a.dtype == np.int64 and a.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        a[0, 0] = 0
    src = np.array([[1, 2], [3, 4]], dtype=np.int64)
    built = Matrix.from_array(f5, src)
    src[0, 0] = 0
    assert built == m and not built.array().flags.writeable
    with pytest.raises(ValueError):
        built.array()[1, 1] = 0
    # equal iff the same field object and equal entries
    assert built != Matrix(field_make(7), [[1, 2], [3, 4]])
    assert built != Matrix(f5, [[1, 2], [3, 3]])
    assert repr(m) == "Matrix(GF(5), 2x2: 1 2; 3 4)"
