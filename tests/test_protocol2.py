from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codedpir.dss import Dss, run
from codedpir.errors import CodedPirError, StructureViolation
from codedpir.optimizer import optimize_rate
from codedpir.protocol2 import (p2_build_structure, p2_decode, p2_queries,
                                p2_respond)
from codedpir.ratematrix import lambda_generic
from conftest import EHAT_EX5, EHAT_EX6, ISETS_EX5, ISETS_EX6, codes


@pytest.fixture(scope="module")
def s5(good532):
    return p2_build_structure(good532, ISETS_EX5, EHAT_EX5)


@pytest.fixture(scope="module")
def s6(code73):
    return p2_build_structure(code73, ISETS_EX6, EHAT_EX6)


def test_structures_validate(s5, s6):
    assert (s5.gamma, s5.beta, s5.d) == (2, 2, 3)
    assert s5.rate == Fraction(2, 5)
    assert (s6.gamma, s6.beta, s6.d) == (4, 4, 3)
    assert s6.rate == Fraction(4, 7)
    # column weight profile of the [7,3,4] structure
    profile = [sum(row[l] for row in s6.ehat) for l in range(7)]
    assert profile == [2, 1, 2, 2, 1, 3, 1]


def test_structure_violations(good532, code73):
    with pytest.raises(StructureViolation):  # row weights differ
        p2_build_structure(good532, ISETS_EX5,
                           [[1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 1, 0]])
    with pytest.raises(StructureViolation):
        # full-weight rows are never correctable
        p2_build_structure(code73, [[0, 1, 2]] * 7, [[1] * 7] * 3)
    with pytest.raises(StructureViolation):  # {0, 1, 3} is no information set
        p2_build_structure(good532, [[0, 1, 2], [0, 1, 3]], EHAT_EX5)
    with pytest.raises(CodedPirError, match=r"outside 0\.\.4"):  # no position 7
        p2_build_structure(good532, [[0, 1, 7], [0, 1, 2]], EHAT_EX5)


def test_stripe_assignments_match_worked_deltas(s5, s6):
    # Delta_1 = (omega_1; omega_2; omega_0), nodes 4 and 5 all-zero
    assert s5.stripes[0] == (0, 1, None)
    assert s5.stripes[1] == (None, 0, 1)
    # ascending first-unused rule (the published delta made a different
    # arbitrary pick here; only distinctness is required)
    assert s5.stripes[2] == (0, None, 1)
    assert s5.stripes[3] == (None, None, None)
    assert s5.stripes[4] == (None, None, None)
    # node 6 of the [7,3,4] run: ones at subqueries 1..3, stripes (1,2,4)
    assert s6.stripes[5] == (0, 1, 3)
    assert s6.stripes[6] == (None, None, 1)


def test_query_marginal_is_shifted_uniform(s5, good532):
    # Q = U + V with V deterministic: exact uniformity of each Q given uniform U
    qs0 = p2_queries(s5, f=1, m=1, seed=0)
    qs1 = p2_queries(s5, f=1, m=1, seed=1)
    assert qs0[0].tolist() != qs1[0].tolist()  # seed actually feeds U
    # with U = 0 (direct construction), responses expose exactly the V picks
    dss = Dss(good532, f=1, beta=2, seed=9)
    queries = np.zeros((5, 3, 2), dtype=np.int64)
    for l in range(5):
        for i, stripe in enumerate(s5.stripes[l]):
            if stripe is not None:
                queries[l, i, stripe] = 1
    responses = p2_respond(dss, queries)
    for l in range(5):
        for i, stripe in enumerate(s5.stripes[l]):
            expected = dss.stored[stripe, l] if stripe is not None else 0
            assert responses[l][i] == expected


@pytest.mark.parametrize("f,ell", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_end_to_end_example5(good532, s5, f, ell):
    for m in range(1, f + 1):
        for seed in range(3):
            dss = Dss(good532, f=f, beta=2, ell=ell, seed=seed)
            qs = p2_queries(s5, f, m, seed)
            responses = p2_respond(dss, qs)
            decoded = p2_decode(s5, responses, f, m, dss.msg_field)
            assert np.array_equal(decoded, dss.files[m - 1])


@pytest.mark.parametrize("f", [1, 3])
def test_end_to_end_example6(code73, s6, f):
    for m in range(1, f + 1):
        for seed in range(3):
            dss = Dss(code73, f=f, beta=4, seed=seed)
            qs = p2_queries(s6, f, m, seed)
            responses = p2_respond(dss, qs)
            decoded = p2_decode(s6, responses, f, m, dss.msg_field)
            assert np.array_equal(decoded, dss.files[m - 1])


def test_rate_floor_structures(good532, bad532, code73):
    """A valid structure exists at Gamma = min(k, d_min - 1) for every code."""
    from codedpir.ratematrix import lambda_generic, lambda_to_E
    for code in (good532, bad532, code73):
        lam = lambda_generic(code)
        e = lambda_to_E(lam)
        structure = p2_build_structure(code, e.info_sets(), e.ehat)
        gamma = min(code.k, code.min_distance() - 1)
        assert structure.gamma >= gamma


def test_high_rate_cyclic_shift_structure(good532):
    """Systematic rate > 1/2 shortcut: cyclic shifts of a weight-(d'-1)
    pattern on the information coordinates."""
    from codedpir.codes import LinearCode, standard_form_parity
    p, info = standard_form_parity(good532)
    cprime = LinearCode.from_parity_check(p)
    gamma = cprime.min_distance() - 1
    k = good532.k
    base = [1] * gamma + [0] * (k - gamma)
    ehat = []
    for i in range(k):
        pattern = [0] * good532.n
        for j in range(k):
            pattern[info[j]] = base[(j - i) % k]
        ehat.append(pattern)
    structure = p2_build_structure(good532, [info] * gamma, ehat)
    assert structure.gamma == gamma == 2
    assert structure.rate == Fraction(2, 5)


def test_interference_symbol_decomposition_example5(good532, s5):
    """Responses decompose as I-symbols plus masked file symbols: node l's
    interference for subquery h is I_{beta*k-indexed} = sum_j u_{h,j} x_{j,l},
    parity nodes see sums of data-node interference."""
    seed = 31
    dss = Dss(good532, f=1, beta=2, seed=seed)
    qs = p2_queries(s5, f=1, m=1, seed=seed)
    u = qs[3].tolist()  # node 4 has V = 0, so its query is exactly U
    x = dss.files[0].tolist()  # 2 x 3 message matrix
    gf = dss.msg_field

    def interf(h, col):
        acc = 0
        for j in range(2):
            acc = gf.add(acc, gf.mul(u[h][j], x[j][col]))
        return acc

    responses = p2_respond(dss, qs)
    # r_1 = (I_1 + x_11; I_4 + x_21; I_7)
    assert responses[0][0] == gf.add(interf(0, 0), x[0][0])
    assert responses[0][1] == gf.add(interf(1, 0), x[1][0])
    assert responses[0][2] == interf(2, 0)
    # r_4 = (I_1 + I_2; I_4 + I_5; I_7 + I_8): parity node x_{.,1} + x_{.,2}
    for h in range(3):
        assert responses[3][h] == gf.add(interf(h, 0), interf(h, 1))
    # r_5 = (I_2 + I_3; ...)
    for h in range(3):
        assert responses[4][h] == gf.add(interf(h, 1), interf(h, 2))


def test_interference_solve_example6(code73, s6):
    """Subresponses of non-accessed nodes determine the interference symbols
    by solving the restricted parity-check system (subquery 1: nodes 1, 2, 7
    expose I_1, I_2, I_1+I_2+I_3)."""
    seed = 17
    dss = Dss(code73, f=1, beta=4, seed=seed)
    qs = p2_queries(s6, f=1, m=1, seed=seed)
    u = qs[0].tolist()  # 3 x 4: the stripes of the one file
    # column 0 of Ehat is (0,1,1): node 1 is masked in subquery 1 and serves
    # stripes 3 and 4 (its information sets) in subqueries 2 and 3
    assert s6.stripes[0] == (None, 2, 3)
    gf = dss.msg_field
    x = dss.files[0].tolist()  # 4 x 3

    def interf(h, col):
        acc = 0
        for j in range(4):
            acc = gf.add(acc, gf.mul(u[h][j], x[j][col]))
        return acc

    responses = p2_respond(dss, qs)
    # subquery 1 (h = 0): non-accessed nodes are {1, 2, 7}
    assert responses[0][0] == interf(0, 0)               # r_{1,1} = I_1
    assert responses[1][0] == interf(0, 1)               # r_{2,1} = I_2
    i123 = gf.add(gf.add(interf(0, 0), interf(0, 1)), interf(0, 2))
    assert responses[6][0] == i123                       # r_{7,1} = I_1+I_2+I_3
    # and the decoder recovers x_{1,3} from r_{3,1} = I_3 + x_{1,3}
    assert responses[2][0] == gf.add(interf(0, 2), x[0][2])


def test_corrupted_response_raises_decode_failure_not_field_error(code73):
    """On the floor-rate [7,3] structure (Gamma = 3 < n - k) a flipped response
    symbol can leave a subquery's parity system inconsistent; the decoder
    reports that as DecodeFailure. The flips it cannot detect decode wrongly."""
    from codedpir.errors import DecodeFailure
    from codedpir.ratematrix import lambda_generic, lambda_to_E
    e = lambda_to_E(lambda_generic(code73))
    structure = p2_build_structure(code73, e.info_sets(), e.ehat)
    assert structure.gamma == 3
    dss = Dss(code73, f=2, beta=structure.beta, seed=3)
    responses = p2_respond(dss, p2_queries(structure, 2, 1, 11))
    assert np.array_equal(p2_decode(structure, responses, 2, 1, dss.msg_field), dss.files[0])
    failures = wrong = 0
    for l in range(7):
        for i in range(structure.d):
            flipped = [list(r) for r in responses]
            flipped[l][i] ^= 1
            try:
                decoded = p2_decode(structure, flipped, 2, 1, dss.msg_field)
            except DecodeFailure:
                failures += 1
                continue
            wrong += not np.array_equal(decoded, dss.files[0])
    assert (failures, wrong) == (9, 12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(codes([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)], max_n=6),
       st.sampled_from([1, 2]), st.integers(0, 2**16))
def test_p2_roundtrip_on_random_codes(code, ell, seed):
    """Full pipeline on random small codes with GF(q^ell) payloads: the
    optimizer's structure decodes through protocol 2 for every file index,
    and protocol 1 decodes on the generic rate matrix."""
    assume(code.k < code.n)
    e, _ = optimize_rate(code, seed=seed)
    if e is not None:
        structure = p2_build_structure(code, e.info_sets(), e.ehat)
        dss = Dss(code, f=2, beta=structure.beta, ell=ell, seed=seed)
        for m in (1, 2):
            tx = run(2, dss, {"structure": structure, "m": m, "seed": seed})
            assert tx.decoded_hash == dss.file_hash(m)
    if code.min_distance() > 1:  # else the generic matrix has kappa = nu
        lam = lambda_generic(code, seed=seed)
        dss = Dss(code, f=2, beta=lam.nu ** 2, ell=ell, seed=seed)
        tx = run(1, dss, {"lam": lam, "m": 1 + seed % 2, "seed": seed})
        assert tx.decoded_hash == dss.file_hash(1 + seed % 2)
