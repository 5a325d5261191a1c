from collections import Counter

import numpy as np
import pytest

from codedpir.codes import code_from_generator
from codedpir.errors import (BadOrder, BadParams, DuplicatePoint, NonBinary, NotDivisor,
                             NotMdsCompliant)
from codedpir.families import (LrcParams, code_from_spec, cyclic_code,
                               grs_code, lrc_optimal, pyramid_code, rm_code,
                               rm_information_set, rm_translate, spec_from_code,
                               uuv_code)
from codedpir.fields import Matrix, field_make
from conftest import rank_reference

f2 = field_make(2)
f8 = field_make(2, 3)
f13 = field_make(13)


def test_grs_parameters_and_mds():
    rs92 = grs_code(f13, 9, 2)
    assert (rs92.n, rs92.k, rs92.min_distance()) == (9, 2, 8)
    rs64 = grs_code(f8, 6, 4)
    assert rs64.min_distance() == 3
    whole = grs_code(f13, 4, 4)
    assert whole.k == 4 and whole.H.rows == 0
    with pytest.raises(DuplicatePoint):
        grs_code(f13, 5, 2, eval_points=[0, 1, 2, 3, 0])
    with pytest.raises(DuplicatePoint):
        grs_code(f2, 3, 1)  # n exceeds field order


def test_rm_code_matches_printed_generator():
    rm13 = rm_code(1, 3)
    assert rm13.G.array().tolist() == [[1] * 8,
                           [0, 1, 0, 1, 0, 1, 0, 1],
                           [0, 0, 1, 1, 0, 0, 1, 1],
                           [0, 0, 0, 0, 1, 1, 1, 1]]
    assert rm_code(3, 3).k == 8
    assert rm_code(0, 3).G.array().tolist() == [[1] * 8]
    with pytest.raises(BadOrder):
        rm_code(4, 3)


@pytest.mark.parametrize("v,m", [(v, m) for m in range(1, 7) for v in range(m + 1)])
def test_rm_dimension_and_information_set(v, m):
    from math import comb
    code = rm_code(v, m)
    assert code.k == sum(comb(m, i) for i in range(v + 1))
    iset = rm_information_set(v, m)
    assert code.is_information_set(iset)


def test_rm_information_set_values():
    assert rm_information_set(1, 3) == (0, 1, 2, 4)  # 1-based {1,2,3,5}
    assert rm_information_set(0, 5) == (0,)


def test_rm_translate():
    iset = rm_information_set(1, 3)
    assert rm_translate(iset, 0) == iset
    shifted = rm_translate(iset, (0, 0, 1))
    assert set(shifted) == {4, 5, 6, 0}
    assert rm_code(1, 3).is_information_set(shifted)
    # all translations cover every coordinate exactly k times
    counts = Counter()
    for sigma in range(8):
        counts.update(rm_translate(iset, sigma))
    assert set(counts.values()) == {4}


def test_cyclic_codes():
    spc = cyclic_code(f2, 3, [1, 1])
    assert (spc.n, spc.k, spc.min_distance()) == (3, 2, 2)
    ham = cyclic_code(f2, 7, [1, 1, 0, 1])
    assert (ham.n, ham.k, ham.min_distance()) == (7, 4, 3)
    whole = cyclic_code(f2, 5, [1])
    assert whole.k == 5
    with pytest.raises(NotDivisor):
        cyclic_code(f2, 7, [1, 1, 1])
    # x^3 - 1 = (x + 1)(x + w)(x + w^2) over GF(4), w = 2: the division runs
    # in the extension field, not over GF(2)
    f4 = field_make(2, 2)
    c32 = cyclic_code(f4, 3, [2, 1])
    assert (c32.n, c32.k, c32.min_distance()) == (3, 2, 2)
    rep = cyclic_code(f4, 3, [1, 1, 1])
    assert (rep.n, rep.k, rep.min_distance()) == (3, 1, 3)
    with pytest.raises(NotDivisor):
        cyclic_code(f4, 3, [1, 0, 1])


def test_pyramid_worked_example():
    params = LrcParams(q=8, r=2, delta=2, Lc=2, n=7, k=4,
                       local_parity=[[[3, 1]], [[3, 2]]],
                       global_mix=[[[6, 1]], [[7, 7]]])
    code = lrc_optimal(params)
    assert code.H.array().tolist() == [[3, 1, 1, 0, 0, 0, 0],
                           [0, 0, 0, 3, 2, 1, 0],
                           [6, 1, 0, 7, 7, 0, 1]]
    assert code.min_distance() == 3


def test_pyramid_degenerate_delta_one():
    # delta = 1: no local parity rows, only global parities remain
    _, params = pyramid_code(f13, r=3, delta=1, Lc=2, a=3)
    code = lrc_optimal(params)
    assert (code.n, code.k) == (9, 6)
    assert code.H.rows == 3


def test_pyramid_table_codes():
    c3, _ = pyramid_code(f13, r=4, delta=2, Lc=2, a=2)
    assert (c3.n, c3.k, c3.min_distance()) == (12, 8, 4)
    c4, _ = pyramid_code(field_make(17), r=6, delta=3, Lc=2, a=2)
    assert (c4.n, c4.k, c4.min_distance()) == (18, 12, 5)


def test_lrc_rejects_non_mds_blocks():
    params = LrcParams(q=2, r=2, delta=2, Lc=2, n=7, k=4,
                       local_parity=[[[1, 0]], [[1, 1]]],
                       global_mix=[[[1, 1]], [[1, 0]]])
    with pytest.raises(NotMdsCompliant):
        lrc_optimal(params)


def test_uuv_codes():
    c14 = uuv_code(rm_code(1, 4))
    assert (c14.n, c14.k, c14.min_distance()) == (32, 6, 16)
    rm15 = rm_code(1, 5)
    assert rank_reference(Matrix(f2, np.vstack([c14.G.array(), rm15.G.array()]))) == 6
    tiny = uuv_code(code_from_generator(Matrix(f2, [[1]])))
    assert (tiny.n, tiny.k) == (2, 2)
    with pytest.raises(NonBinary):
        uuv_code(grs_code(f13, 4, 2))


def test_uuv_rank_bound_families():
    """dim(C∘C) respects the split bound and stays below n for n1 >= k1+2."""
    from math import comb
    import random
    rng = random.Random(99)
    checked = 0
    for n1 in range(3, 9):
        for k1 in range(1, n1 - 1):
            gens = []
            for _ in range(6):
                rows = [[rng.randrange(2) for _ in range(n1)] for _ in range(k1)]
                g = Matrix(f2, rows)
                if rank_reference(g) == k1:
                    gens.append(g)
            for g in gens:
                u = code_from_generator(g)
                c = uuv_code(u)
                prod = c.hadamard_product(c)
                if n1 - k1 <= comb(k1, 2):
                    assert prod.k <= k1 + n1 + 1
                else:
                    assert prod.k <= 2 * k1 + comb(k1, 2) + 1
                assert prod.k < c.n
                checked += 1
    assert checked > 50


def test_code_spec_roundtrip():
    spec = {"family": "grs", "q": 13, "n": 9, "k": 2,
            "points": [1, 2, 3, 4, 5, 6, 9, 10, 12], "multipliers": [1] * 9}
    code = code_from_spec(spec)
    assert spec_from_code(code) == spec
    raw = code_from_spec({"family": "raw", "q": 2,
                          "generator": [[1, 0, 1], [0, 1, 1]]})
    assert (raw.n, raw.k) == (3, 2)
    rm = code_from_spec({"family": "reed-muller", "v": 1, "m": 3})
    assert rm.k == 4
    uuv = code_from_spec({"family": "uuv",
                          "U": {"family": "reed-muller", "v": 1, "m": 4}})
    assert (uuv.n, uuv.k) == (32, 6)


@pytest.mark.parametrize("spec,field", [
    ({"family": "raw", "q": 2.5, "generator": [[1, 1]]}, "'q'"),
    ({"family": "raw", "q": "2", "generator": [[1, 1]]}, "'q'"),
    ({"family": "raw", "q": 2, "generator": [[1, 1.7]]}, "'generator'"),
    ({"family": "grs", "q": 7, "n": 5.0, "k": 2}, "'n'"),
    ({"family": "reed-muller", "v": 1, "m": "3"}, "'m'"),
])
def test_code_specs_refuse_numbers_that_are_not_integers(spec, field):
    """Spec values are taken through `operator.index`: a float or a string
    raises BadParams naming the field instead of being truncated."""
    with pytest.raises(BadParams, match=field):
        code_from_spec(spec)


def test_code_specs_take_numpy_integers():
    spec = {"family": "raw", "q": np.int64(2), "generator": [[1, np.int64(1)]]}
    code = code_from_spec(spec)
    assert (code.field, code.G.array().tolist()) == (f2, [[1, 1]])
