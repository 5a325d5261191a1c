from fractions import Fraction

import numpy as np
import pytest

from codedpir.codes import ErasurePattern
from codedpir.dss import Dss, run
from codedpir.errors import (InvalidLambda, KappaEqualsNu, NotAutomorphism,
                             NotCoveringOrbit)
from codedpir.families import (LrcParams, cyclic_code, lrc_optimal,
                               pyramid_code, rm_code, rm_information_set)
from codedpir.fields import Matrix, field_make
from codedpir.ratematrix import (E_to_lambda, ErasureMatrix, RateMatrix, beta_d_minimal,
                                 capacity_asymptotic, capacity_finite,
                                 interference_matrices,
                                 lambda_from_automorphisms, lambda_generic,
                                 lambda_to_E, lrc_E_matrix,
                                 necessary_condition, rate_matrix,
                                 rate_protocol1, s_set, validate_rate_matrix)
from conftest import LAM23, LAM35

f2 = field_make(2)


def test_validate_rate_matrix_worked_examples(good532, bad532):
    rep = validate_rate_matrix(bad532, LAM23)
    assert rep.ok and (rep.kappa, rep.nu) == (2, 3)
    rep = validate_rate_matrix(good532, LAM35)
    assert rep.ok and (rep.kappa, rep.nu) == (3, 5)
    allones = [(1,) * 5] * 3
    rep = validate_rate_matrix(good532, allones)
    assert rep.ok and rep.kappa == rep.nu == 3
    bad_rows = [(1, 1, 1, 0, 0), (1, 1, 0, 1, 0), (0, 1, 1, 1, 1)]
    rep = validate_rate_matrix(good532, bad_rows)
    assert not rep.ok and rep.violation == "column-regularity"
    # row whose support misses every information set
    rep = validate_rate_matrix(good532, [(1, 1, 0, 1, 0), (0, 0, 1, 0, 1),
                                         (1, 1, 1, 1, 1)])
    assert not rep.ok


def test_interference_matrices_worked_examples(good532, bad532):
    lam = rate_matrix(bad532, LAM23)
    ab = interference_matrices(lam)
    assert ab.A == ((2, 1, 1, 1, 1), (3, 3, 3, 2, 2))
    assert ab.B == ((1, 2, 2, 3, 3),)
    lam35 = rate_matrix(good532, LAM35)
    ab35 = interference_matrices(lam35)
    assert ab35.A == ((1, 1, 1, 2, 2), (2, 3, 4, 3, 3), (5, 4, 5, 4, 5))
    assert ab35.B == ((3, 2, 2, 1, 1), (4, 5, 3, 5, 4))
    # kappa = nu: B has no rows, columns are permutations
    lam_sq = rate_matrix(good532, [(1,) * 5] * 3)
    ab_sq = interference_matrices(lam_sq)
    assert ab_sq.B == ()
    assert all(sorted(ab_sq.A[i][j] for i in range(3)) == [1, 2, 3]
               for j in range(5))


def test_s_set(good532, bad532):
    ab = interference_matrices(rate_matrix(bad532, LAM23))
    assert s_set(1, ab.A) == (1, 2, 3, 4)
    ab35 = interference_matrices(rate_matrix(good532, LAM35))
    assert s_set(3, ab35.A) == (1, 3, 4)
    assert s_set(99, ab35.A) == ()
    # claim: S(a|A) contains an information set for every a
    for a in range(1, 6):
        assert good532.contains_information_set(s_set(a, ab35.A))


def test_capacities():
    assert capacity_finite(5, 3, 2) == Fraction(5, 8)
    assert capacity_finite(5, 3, 1) == 1
    assert capacity_asymptotic(5, 3) == Fraction(2, 5)
    assert capacity_asymptotic(7, 3) == Fraction(4, 7)
    assert capacity_asymptotic(4, 4) == 0
    # large f approaches the asymptotic value from above
    assert abs(capacity_finite(5, 3, 60) - Fraction(2, 5)) < Fraction(1, 10 ** 9)


def test_rate_protocol1():
    assert rate_protocol1(3, 5, 3, 5, 2) == Fraction(5, 8) == capacity_finite(5, 3, 2)
    assert rate_protocol1(2, 3, 3, 5, 2) == Fraction(27, 50)
    assert rate_protocol1(2, 3, 3, 5, 1) == Fraction(1, 10) * 9  # nu*k/(kappa*n)
    with pytest.raises(KappaEqualsNu):
        rate_protocol1(3, 3, 3, 5, 2)


def test_beta_d_minimal():
    assert beta_d_minimal(3, 2) == (2, 3)
    assert beta_d_minimal(4, 4) == (1, 1)
    assert beta_d_minimal(4, 2) == (1, 2)
    beta, d = beta_d_minimal(12, 5)
    assert beta * 12 == 5 * d


def test_necessary_condition(good532, bad532, rs53):
    rep = necessary_condition(bad532)
    assert not rep.ok and rep.witness_s == 2 and rep.witness_value == 3
    assert necessary_condition(good532).ok
    assert necessary_condition(rs53).ok
    from codedpir.codes import code_from_generator
    full = code_from_generator(Matrix(f2, np.eye(4, dtype=np.int64)))
    assert necessary_condition(full).ok


@pytest.mark.parametrize("bad", [0.5, 2, -1, 1.0])
def test_rate_matrix_entries_must_be_bits(good532, bad):
    """An entry that is not an integer 0 or 1 is a violation naming it, not
    read through int() (0.5 as 0, which left LAM35 valid); a RateMatrix
    built around the check is refused when protocol 1 plans, with
    InvalidLambda rather than an IndexError from the interference
    matrices."""
    rows = [list(r) for r in LAM35]
    rows[0][4] = bad
    report = validate_rate_matrix(good532, rows)
    assert not report.ok and (report.violation, report.witness) == ("entry", (0, 4))
    with pytest.raises(InvalidLambda, match=r"entry at \(0, 4\)"):
        rate_matrix(good532, rows)
    lam = RateMatrix(3, 5, tuple(map(tuple, rows)))
    with pytest.raises(InvalidLambda, match=r"entry at \(0, 4\)"):
        run(1, Dss(good532, f=1, beta=5, seed=0), {"lam": lam, "m": 1})
    # integers of any type are read as ints
    lam = rate_matrix(good532, np.array(LAM35, dtype=np.int8))
    assert lam.rows == tuple(LAM35) and type(lam.rows[0][0]) is int


def test_lambda_from_automorphisms():
    ham = cyclic_code(f2, 7, [1, 1, 0, 1])
    shifts = [[(j + i) % 7 for j in range(7)] for i in range(7)]
    lam = lambda_from_automorphisms(ham, shifts)
    assert Fraction(lam.kappa, lam.nu) == Fraction(ham.k, ham.n)
    rm13 = rm_code(1, 3)
    translations = [[j ^ s for j in range(8)] for s in range(8)]
    lam_rm = lambda_from_automorphisms(rm13, translations, rm_information_set(1, 3))
    assert Fraction(lam_rm.kappa, lam_rm.nu) == Fraction(1, 2)
    with pytest.raises(NotCoveringOrbit):
        lambda_from_automorphisms(ham, [list(range(7))] * 7)
    bad_perm = [1, 0] + list(range(2, 7))
    assert not ham.is_automorphism(bad_perm)
    with pytest.raises(NotAutomorphism):
        lambda_from_automorphisms(ham, [bad_perm] + shifts[1:])


def test_lambda_generic(good532, bad532, rs53):
    lam_bad = lambda_generic(bad532)
    assert (lam_bad.kappa, lam_bad.nu) == (3, 4)   # Gamma = ceil min(k, d-1) = 1
    lam_mds = lambda_generic(rs53)
    assert (lam_mds.kappa, lam_mds.nu) == (3, 5)
    assert Fraction(lam_mds.kappa, lam_mds.nu) == Fraction(3, 5)
    from codedpir.codes import code_from_generator
    whole = code_from_generator(Matrix(f2, np.eye(3, dtype=np.int64)))
    lam_w = lambda_generic(whole)
    assert (lam_w.kappa, lam_w.nu) == (3, 3)
    assert all(all(b == 1 for b in row) for row in lam_w.rows)


def test_lambda_E_conversions(good532):
    lam = rate_matrix(good532, LAM35)
    e = lambda_to_E(lam)
    assert (e.d, e.beta) == (3, 2)
    assert E_to_lambda(e) == [tuple(r) for r in lam.rows]
    # the first worked structure: Ehat plus two copies of {0,1,2}
    e5 = ErasureMatrix(d=3, beta=2,
                       ehat=((1, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0)),
                       ebar=((0, 0, 0, 1, 1), (0, 0, 0, 1, 1)))
    rows = E_to_lambda(e5)
    weights = [sum(rows[i][j] for i in range(5)) for j in range(5)]
    assert weights == [3] * 5
    assert e5.info_sets() == [(0, 1, 2), (0, 1, 2)]


def test_lrc_E_matrix_worked_example():
    params = LrcParams(q=8, r=2, delta=2, Lc=2, n=7, k=4,
                       local_parity=[[[3, 1]], [[3, 2]]],
                       global_mix=[[[6, 1]], [[7, 7]]])
    code = lrc_optimal(params)
    em = lrc_E_matrix(params, code)
    rows = em.stacked()
    assert len(rows) == 7
    assert all(sum(r) == 3 for r in rows)
    assert all(sum(rows[i][j] for i in range(7)) == 3 for j in range(7))
    assert all(code.erasure_correctable(ErasurePattern(7, r)) for r in rows)
    # rows untouched by swaps match the printed matrix
    assert rows[0] == (1, 1, 0, 1, 0, 0, 0)
    assert rows[2] == (1, 0, 1, 0, 0, 1, 0)
    assert rows[3] == (1, 0, 0, 1, 1, 0, 0)
    assert rows[6] == (0, 0, 1, 0, 0, 1, 1)
    # exactly r_bar * L = 2 swapped ones live in the tail column
    assert sum(r[6] for r in rows[:6]) == 2


def test_lrc_E_matrix_no_swap_phase():
    # r | n exactly: r_bar = 0 skips the swap phase entirely
    _, params = pyramid_code(field_make(13), r=3, delta=2, Lc=2, a=4)
    assert params.r_bar == 0
    code = lrc_optimal(params)
    em = lrc_E_matrix(params, code)
    assert all(sum(r) == params.n - params.k for r in em.stacked())


@pytest.mark.parametrize("field_order,r,delta,a", [(13, 4, 2, 2), (17, 6, 3, 2)])
def test_lrc_E_matrix_table_codes(field_order, r, delta, a):
    p, alpha = (field_order, 1) if field_order < 16 else (field_order, 1)
    code, params = pyramid_code(field_make(field_order), r=r, delta=delta,
                                Lc=2, a=a)
    em = lrc_E_matrix(params, code)
    n, k = params.n, params.k
    rows = em.stacked()
    assert len(rows) == n
    assert all(sum(r) == n - k for r in rows)
    assert all(sum(rows[i][j] for i in range(n)) == n - k for j in range(n))
    assert all(code.erasure_correctable(ErasurePattern(n, r)) for r in rows)
    # balanced per-partition erasure counts before swaps (first row partition)
    m = (n - k) // params.L
    t = (n - k) % params.L
    first = rows[0]
    for j in range(params.L):
        seg = sum(first[params.n_c * j: params.n_c * (j + 1)])
        assert seg in (m, m + 1)


def test_capacity_matrix_implies_weight_condition(good532, bad532):
    # a capacity-achieving matrix validates only when the GHW condition holds
    rep = validate_rate_matrix(good532, LAM35)
    assert rep.ok and Fraction(rep.kappa, rep.nu) == Fraction(3, 5)
    assert necessary_condition(good532).ok
    # the bad code fails the condition, so no validated matrix may hit 3/5
    assert not necessary_condition(bad532).ok


def test_example6_E_complement_is_column_regular(code73):
    """Stacking the [7,3,4] structure rows over the four information-set
    complements and complementing yields a 3-column-regular matrix whose rows
    all carry information sets."""
    from conftest import EHAT_EX6, ISETS_EX6
    ebar = [tuple(0 if j in iset else 1 for j in range(7)) for iset in ISETS_EX6]
    em = ErasureMatrix(d=3, beta=4,
                       ehat=tuple(tuple(r) for r in EHAT_EX6),
                       ebar=tuple(ebar))
    rows = E_to_lambda(em)
    assert len(rows) == 7
    for j in range(7):
        assert sum(r[j] for r in rows) == 3
    report = validate_rate_matrix(code73, rows)
    assert report.ok and (report.kappa, report.nu) == (3, 7)


def test_capacity_matrices_satisfy_weight_condition(f2):
    """Wherever a k/n-balanced matrix validates, the weight-hierarchy
    condition must hold (cross-check on the automorphism families)."""
    from codedpir.families import cyclic_code as _cyclic
    ham = _cyclic(f2, 7, [1, 1, 0, 1])
    shifts = [[(j + i) % 7 for j in range(7)] for i in range(7)]
    lam = lambda_from_automorphisms(ham, shifts)
    assert Fraction(lam.kappa, lam.nu) == Fraction(ham.k, ham.n)
    assert necessary_condition(ham).ok
    rm13 = rm_code(1, 3)
    translations = [[j ^ s for j in range(8)] for s in range(8)]
    lam_rm = lambda_from_automorphisms(rm13, translations, rm_information_set(1, 3))
    assert Fraction(lam_rm.kappa, lam_rm.nu) == Fraction(rm13.k, rm13.n)
    assert necessary_condition(rm13).ok
