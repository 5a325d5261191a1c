import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from codedpir.codes import code_from_generator, repetition_code
from codedpir.dss import Dss, run
from codedpir.errors import (CodedPirError, DecodeFailure, DimensionMismatch,
                             OrderOverflow, RateOneProduct, StructureViolation)
from codedpir.families import grs_code, pyramid_code, rm_code, rm_translate
from codedpir.fields import Matrix, field_make, mat_mul
from codedpir.optimizer import optimize_rate
from codedpir.protocol2 import p2_build_structure
from codedpir.ratematrix import lrc_E_matrix
from codedpir.protocol3 import (P3Setup, collusion_threshold,
                                necessary_condition_p3, p3_decode, p3_queries,
                                p3_respond, p3_rm_max_rate, p3_setup, query_batch)
from codedpir.rng import generator
from conftest import (EHAT_EX5, EHAT_EX6, EHAT_P3, EHAT_T0, ISETS_EX5,
                      ISETS_EX6, ISETS_P3, ISETS_T0, QUERY_T0, STORAGE_T0, codes,
                      column, file_rows, full_support, lifted, p3_decode_reference,
                      p3_respond_reference, query_reference, rank_reference)


@pytest.fixture(scope="module")
def setup_vb(code124):
    return p3_setup(code124, code124, EHAT_P3, ISETS_P3)


def test_setup_worked_example(setup_vb):
    assert setup_vb.collusion_threshold == 2
    assert (setup_vb.gamma, setup_vb.beta, setup_vb.d) == (2, 1, 2)
    assert setup_vb.rate == Fraction(1, 6) == setup_vb.rate_upper_bound
    assert Fraction(setup_vb.product.min_distance() - 1, setup_vb.code.n) == Fraction(1, 12)
    assert (setup_vb.product.n, setup_vb.product.k) == (12, 10)


def test_setup_rejections(code124, good532, f2):
    from codedpir.codes import code_from_generator
    whole = code_from_generator(Matrix(f2, np.eye(12, dtype=np.int64)))
    with pytest.raises(RateOneProduct):
        p3_setup(whole, whole, EHAT_P3, ISETS_P3)
    with pytest.raises(StructureViolation):
        p3_setup(code124, code124, [(1,) * 12, (0,) * 11 + (1,)], ISETS_P3)
    with pytest.raises(StructureViolation):
        p3_setup(code124, code124, EHAT_P3, [(0, 1, 2, 3)])


def test_setup_refuses_entries_and_positions_that_are_not_integers(code124, good532):
    """An Ehat entry other than an integer 0 or 1 and a set position that is
    not an integer are refused, not cut by int() (1.5 read as 1, 11.9 as
    11), through `p3_setup` and through protocol 2's `p2_build_structure`;
    numpy integers are read as ints."""
    with pytest.raises(DimensionMismatch):
        p3_setup(code124, code124, EHAT_P3, [(1.2, 2.7, 8, 11.9)])
    with pytest.raises(DimensionMismatch):
        p2_build_structure(good532, [[0, 1, 2.5], [0, 1, 2]], EHAT_EX5)
    for bad in (1.5, 1.0, 2, -1):
        ehat = [list(row) for row in EHAT_P3]
        ehat[0][8] = bad
        with pytest.raises(StructureViolation, match=r"Ehat entry \(0, 8\)"):
            p3_setup(code124, code124, ehat, ISETS_P3)
        ehat = [list(row) for row in EHAT_EX5]
        ehat[2][1] = bad
        with pytest.raises(StructureViolation, match=r"Ehat entry \(2, 1\)"):
            p2_build_structure(good532, ISETS_EX5, ehat)
    setup = p3_setup(code124, code124, np.array(EHAT_P3), [np.array(ISETS_P3[0])])
    assert setup.info_sets == ((1, 2, 8, 11),) and setup.ehat == tuple(EHAT_P3)
    assert type(setup.ehat[0][0]) is int and type(setup.info_sets[0][0]) is int


def test_setup_rejects_query_code_zero_at_a_position(f2):
    """A query code zero at position 4 has T = 0 and is refused; the same
    structure with the repetition query code is accepted."""
    from codedpir.codes import code_from_generator, repetition_code
    storage = code_from_generator(Matrix(f2, STORAGE_T0))
    query = code_from_generator(Matrix(f2, QUERY_T0))
    assert collusion_threshold(query) == 0
    with pytest.raises(StructureViolation, match=r"positions \[4\]"):
        p3_setup(storage, query, EHAT_T0, ISETS_T0)
    rep = repetition_code(f2, 5)
    assert p3_setup(storage, rep, EHAT_T0, ISETS_T0).collusion_threshold == 1


def test_repetition_query_code_degenerates(code124, f2):
    from codedpir.codes import code_from_generator
    rep = code_from_generator(Matrix(f2, [[1] * 12]))
    prod = code124.hadamard_product(rep)
    assert rank_reference(Matrix(f2, np.vstack([prod.G.array(), code124.G.array()]))) \
        == code124.k
    assert collusion_threshold(rep) == 1  # noncolluding-like setup


def test_query_offsets_match_worked_example(setup_vb, code124, f2):
    qs = p3_queries(setup_vb, f=1, m=1, seed=0)
    # the message of subquery 0's one codeword (d = 2, beta*f = 1, kq = 4)
    msg = generator(0, "p3").integers(0, 2, size=(1, 2, 1, 4))[0, 0]
    cw = code124.encode(msg).tolist()[0]
    for l in range(12):
        expected = cw[l] ^ (1 if l in (8, 11) else 0)
        assert qs[l, 0, 0] == expected
    # beta = 1 forces s = 1 on every accessed node
    assert setup_vb.stripes[8] == (0, None)
    assert setup_vb.stripes[2] == (None, 0)


@pytest.fixture(scope="module")
def query_setups(good532, code73, setup_vb):
    from codedpir.families import pyramid_code
    from codedpir.ratematrix import lrc_E_matrix
    code13, params = pyramid_code(field_make(13), r=4, delta=2, Lc=2, a=2)
    em = lrc_E_matrix(params, code13)
    return {"s5": p2_build_structure(good532, ISETS_EX5, EHAT_EX5),
            "s6": p2_build_structure(code73, ISETS_EX6, EHAT_EX6),
            "[12,4]": setup_vb,
            "RM(1,1,3)": p3_rm_max_rate(1, 1, 3),
            "[12,8] GF(13)": p2_build_structure(code13, em.info_sets(), em.ehat)}


@pytest.mark.parametrize("name", ["s5", "s6", "[12,4]", "RM(1,1,3)",
                                  "[12,8] GF(13)"])
def test_query_batch_matches_reference(query_setups, name):
    """Every trial of the array query step is the scalar construction on the
    same messages, at every requested file index."""
    setup = query_setups[name]
    q, kq = setup.query_code.field.order, setup.query_code.k
    f, trials = 3, 4
    rng = np.random.default_rng(7)
    for m in range(1, f + 1):
        msgs = rng.integers(0, q, size=(trials, setup.d, setup.beta * f, kq))
        got = query_batch(setup, f, m, msgs)
        assert got.shape == (trials, setup.code.n, setup.d, setup.beta * f)
        for t in range(trials):
            assert got[t].tolist() == query_reference(setup, f, m, msgs[t].tolist())



def test_query_batch_checks_file_index_and_columns(query_setups):
    """A file index outside 1..f, or messages whose column count is not
    beta*f, would put the offsets in the wrong columns; both raise."""
    setup = query_setups["s5"]
    msgs = np.zeros((1, setup.d, setup.beta * 2, setup.query_code.k), dtype=np.int64)
    for f, m in [(2, 0), (2, 3), (3, 1), (1, 1)]:
        with pytest.raises(DimensionMismatch):
            query_batch(setup, f, m, msgs)


@pytest.mark.parametrize("name", ["s5", "[12,4]", "[12,8] GF(13)"])
def test_p3_queries_is_query_batch_on_its_draw(query_setups, name):
    setup = query_setups[name]
    q, kq = setup.query_code.field.order, setup.query_code.k
    f, seed = 2, 3
    bf = setup.beta * f
    msgs = generator(seed, "p3").integers(0, q, size=(1, setup.d, bf, kq))
    for m in range(1, f + 1):
        qs = p3_queries(setup, f, m, seed)
        assert qs.dtype == np.int64 and qs.shape == (setup.code.n, setup.d, bf)
        assert 0 <= qs.min() and qs.max() < setup.code.field.order
        assert qs.tolist() == query_batch(setup, f, m, msgs)[0].tolist()


def test_response_decomposition(setup_vb, code124):
    """rho decomposes as a product-code codeword plus the offset symbols."""
    dss = Dss(code124, f=1, beta=1, seed=1)
    qs = p3_queries(setup_vb, 1, 1, seed=4)
    responses = p3_respond(dss, qs)
    rho1 = [responses[l][0] for l in range(12)]
    offsets = [int(dss.stored[0, l]) if l in (8, 11) else 0 for l in range(12)]
    diff = column(dss.msg_field, [dss.msg_field.sub(a, b) for a, b in zip(rho1, offsets)])
    h_lift = lifted(setup_vb.product.H, dss.msg_field)
    assert not mat_mul(h_lift, diff).array().any()


def test_all_zero_files_give_zero_offsets(setup_vb, code124):
    zero = np.zeros((1, 1, 4), dtype=np.int64)
    dss = Dss(code124, f=1, beta=1, seed=0, files=zero)
    qs = p3_queries(setup_vb, 1, 1, seed=2)
    responses = p3_respond(dss, qs)
    assert all(v == 0 for r in responses for v in r)


@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_end_to_end_worked_example(code124, setup_vb, f, seed):
    for m in range(1, f + 1):
        dss = Dss(code124, f=f, beta=1, seed=seed)
        qs = p3_queries(setup_vb, f, m, seed)
        responses = p3_respond(dss, qs)
        decoded = p3_decode(setup_vb, responses, f, m, dss.msg_field)
        assert np.array_equal(decoded, dss.files[m - 1])


def test_rm_max_rate_small():
    setup = p3_rm_max_rate(1, 1, 3)
    assert setup.product.k == 7
    assert setup.rate == Fraction(1, 8) == setup.rate_upper_bound
    dss = Dss(setup.code, f=2, beta=setup.beta, seed=3)
    qs = p3_queries(setup, 2, 2, seed=9)
    responses = p3_respond(dss, qs)
    decoded = p3_decode(setup, responses, 2, 2, dss.msg_field)
    assert np.array_equal(decoded, dss.files[1])


def test_rm_max_rate_16():
    setup = p3_rm_max_rate(1, 1, 4)
    assert setup.rate == Fraction(5, 16)
    dss = Dss(setup.code, f=1, beta=setup.beta, seed=1)
    qs = p3_queries(setup, 1, 1, seed=1)
    responses = p3_respond(dss, qs)
    assert np.array_equal(p3_decode(setup, responses, 1, 1, dss.msg_field), dss.files[0])


def test_rm_degenerate_repetition():
    setup = p3_rm_max_rate(0, 0, 3)
    assert setup.rate == Fraction(7, 8)
    with pytest.raises(OrderOverflow):
        p3_rm_max_rate(2, 2, 3)


def test_max_rate_matrix_is_checked_when_built(f2):
    """The RM(1,1,3) maximum-rate setup reaches the bound, and each condition
    of a maximum-rate matrix is checked when a setup is built: a flipped bit
    of Ehat, storage sets breaking the k-column regularity, a storage set that
    is not an information set and a rate-one product are refused, the last
    also by `p3_rm_max_rate` when v + vbar = m."""
    setup = p3_rm_max_rate(1, 1, 3)
    assert setup.rate == setup.rate_upper_bound == Fraction(1, 8)
    corrupted = [list(r) for r in setup.ehat]
    corrupted[1][0] ^= 1
    with pytest.raises(StructureViolation, match="row 1 weight"):
        dataclasses.replace(setup, ehat=corrupted)
    moved = rm_translate(setup.info_sets[0], 1)  # an information set too
    assert setup.code.is_information_set(moved) and moved != setup.info_sets[0]
    with pytest.raises(StructureViolation, match=r"column \d+ weight"):
        dataclasses.replace(setup, info_sets=[moved])
    with pytest.raises(StructureViolation, match="set 0 is not an information set"):
        dataclasses.replace(setup, info_sets=[(0, 1, 2, 3)])
    from codedpir.codes import code_from_generator
    whole = code_from_generator(Matrix(f2, np.eye(8, dtype=np.int64)))
    with pytest.raises(RateOneProduct):
        dataclasses.replace(setup, code=whole, query_code=whole)
    with pytest.raises(RateOneProduct):
        p3_rm_max_rate(1, 2, 3)  # R(3, 3) is the whole space


def test_necessary_condition_p3(code124):
    assert necessary_condition_p3(code124, code124).ok
    # RM pair satisfies the condition as well (it achieves the bound)
    assert necessary_condition_p3(rm_code(1, 3), rm_code(1, 3)).ok


def test_collusion_thresholds():
    f13 = field_make(13)
    assert collusion_threshold(grs_code(f13, 9, 2)) == 2
    assert collusion_threshold(grs_code(f13, 12, 2)) == 2
    assert collusion_threshold(rm_code(1, 5)) == 3


def test_zero_codeword_hook_exposes_offsets(code124, setup_vb):
    """With the random codewords forced to zero the queries are the bare unit
    offsets and responses are exactly the masked file symbols."""
    dss = Dss(code124, f=1, beta=1, seed=8)
    queries = np.zeros((12, 2, 1), dtype=np.int64)
    for l in range(12):
        for i, stripe in enumerate(setup_vb.stripes[l]):
            if setup_vb.ehat[i][l]:
                queries[l, i, stripe] = 1
    responses = p3_respond(dss, queries)
    for l in range(12):
        for i in range(2):
            if setup_vb.ehat[i][l]:
                assert responses[l][i] == dss.stored[0, l]
            else:
                assert responses[l][i] == 0


def test_end_to_end_extension_field(code124, setup_vb):
    """Message symbols in GF(4), query symbols in GF(2)."""
    dss = Dss(code124, f=2, beta=1, ell=2, seed=6)
    qs = p3_queries(setup_vb, 2, 1, seed=6)
    responses = p3_respond(dss, qs)
    decoded = p3_decode(setup_vb, responses, 2, 1, dss.msg_field)
    assert np.array_equal(decoded, dss.files[0])


def test_necessary_condition_p3_zero_column_product(f2):
    """A product code with an identically-zero coordinate sits exactly on the
    d_s >= s boundary; the checker reports it as satisfied."""
    from codedpir.codes import code_from_generator
    c = code_from_generator(Matrix(f2, [[1, 0, 1]]))
    cbar = code_from_generator(Matrix(f2, [[0, 1, 1]]))
    prod = c.hadamard_product(cbar)
    assert prod.k == 1 and prod.min_distance() == 1  # support shrank to {2}
    report = necessary_condition_p3(c, cbar)
    assert report.ok


def _outcome(decode, setup, responses, f, m, msg_field):
    """The decoded file's rows, or the DecodeFailure text."""
    try:
        return file_rows(decode(setup, responses, f, m, msg_field))
    except DecodeFailure as exc:
        return f"DecodeFailure: {exc}"


def check_array_path(code, query, ell: int, seed: int) -> bool:
    """`check_setup_path` on the optimizer's structure for (code, query);
    False when the optimizer finds none."""
    try:
        e, _ = optimize_rate(code, query, seed=seed)
    except RateOneProduct:
        return False
    if e is None:
        return False
    check_setup_path(p3_setup(code, query, e.ehat, e.info_sets()), ell, seed)
    return True


def check_setup_path(setup, ell: int, seed: int) -> None:
    """Stacked responses and the one-map decode against the per-node and
    per-row references, on `setup` and f = 2 files over GF(q^ell). Every
    response equals the reference's, both decode the stored file at every
    file index, and every single-symbol change of a response either raises
    the same DecodeFailure text in both or decodes to the same file."""
    code, f = setup.code, 2
    dss = Dss(code, f=f, beta=setup.beta, ell=ell, seed=seed)
    msg_field = dss.msg_field
    for m in range(1, f + 1):
        queries = p3_queries(setup, f, m, seed)
        matrices = [Matrix(code.field, node, setup.d, setup.beta * f)
                    for node in queries.tolist()]
        responses = p3_respond(dss, queries)
        want = p3_respond_reference(dss, matrices)
        assert responses.dtype == np.int64 and responses.tolist() == want
        decoded = p3_decode(setup, responses, f, m, msg_field)
        assert decoded.tolist() == file_rows(p3_decode_reference(setup, want, f, m, msg_field))
        assert np.array_equal(decoded, dss.files[m - 1])
    for l in range(code.n):
        for i in range(setup.d):
            flipped = responses.copy()
            flipped[l, i] = msg_field.add(int(flipped[l, i]), 1)
            assert _outcome(p3_decode, setup, flipped, f, f, msg_field) == _outcome(
                p3_decode_reference, setup, flipped.tolist(), f, f, msg_field), (l, i)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(codes([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)], max_n=6),
       st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2**16), st.data())
def test_array_path_matches_reference(code, ell, colluding, seed, data):
    """`check_array_path` on random storage codes up to GF(8) and GF(9) with
    the repetition query code (protocol 2) or a random query code of full
    support (protocol 3)."""
    assume(code.k < code.n)
    field = code.field
    if colluding:
        query = data.draw(codes([(field.p, field.alpha)], max_messages=81, n=code.n))
        assume(query.G.array().any(axis=0).all())
    else:
        query = repetition_code(field, code.n)
    assume(check_array_path(code, query, ell, seed))


@pytest.mark.parametrize("colluding", [False, True], ids=["p2", "p3"])
@pytest.mark.parametrize("ell", [1, 2], ids=["ell1", "ell2"])
@pytest.mark.parametrize("field", [(2, 3), (3, 2)], ids=["gf8", "gf9"])
def test_array_path_matches_reference_over_gf8_and_gf9(field, ell, colluding):
    """`check_array_path` on the [6,3] Reed-Solomon storage code over GF(8)
    and GF(9), with the repetition query code or the [6,2] one (T = 2)."""
    f = field_make(*field)
    query = grs_code(f, 6, 2) if colluding else repetition_code(f, 6)
    assert check_array_path(grs_code(f, 6, 3), query, ell, seed=ell)


def _pyramid13_setup():
    code, params = pyramid_code(field_make(13), r=4, delta=2, Lc=2, a=2)
    em = lrc_E_matrix(params, code)
    return p2_build_structure(code, em.info_sets(), em.ehat)


@pytest.mark.parametrize("build,ell", [(_pyramid13_setup, 2),
                                       (lambda: p3_rm_max_rate(1, 1, 4), 4)],
                         ids=["pyramid-gf13-ell2", "rm114-ell4"])
def test_array_path_matches_reference_on_lrc_and_rm_setups(build, ell):
    """`check_setup_path` on the [12,8] GF(13) pyramid locality code's
    `lrc_E_matrix` structure over GF(169) and on the RM(1,1,4) maximum-rate
    setup over GF(16): fields and structures the random codes do not reach."""
    check_setup_path(build(), ell, seed=5)


@pytest.mark.parametrize("order,named", [
    ((0, 1, 2), {"subquery 0: word 0"}),
    ((1, 0, 2), {"subquery 0: word 0", "subquery 2: word 1"})], ids=["generic", "rows-swapped"])
def test_two_corrupted_subqueries_name_the_first_rows_word(code73, order, named):
    """On the floor-rate [7,3] structure (one check per subquery), corrupting
    two subqueries with different Ehat rows raises the reference's text for
    the word of the row that appears first in Ehat, also when, with the rows
    swapped, that word's subquery has the higher index."""
    from codedpir.ratematrix import lambda_generic, lambda_to_E
    e = lambda_to_E(lambda_generic(code73))
    setup = p2_build_structure(code73, e.info_sets(), [e.ehat[i] for i in order])
    dss = Dss(code73, f=2, beta=setup.beta, ell=2, seed=3)
    responses = p3_respond(dss, p3_queries(setup, 2, 1, 11))

    def flip(at):
        out = responses.copy()
        for l, i in at:
            out[l, i] = dss.msg_field.add(int(out[l, i]), 1)
        return out

    raising = {}  # subquery -> a node whose flip alone fails its check
    for l in range(7):
        for i in range(setup.d):
            if isinstance(_outcome(p3_decode, setup, flip([(l, i)]), 2, 1,
                                   dss.msg_field), str):
                raising.setdefault(i, l)
    got_named = set()
    for i, j in itertools.combinations(sorted(raising), 2):
        if setup.ehat[i] != setup.ehat[j]:
            flipped = flip([(raising[i], i), (raising[j], j)])
            got = _outcome(p3_decode, setup, flipped, 2, 1, dss.msg_field)
            assert got == _outcome(p3_decode_reference, setup, flipped.tolist(), 2, 1,
                                   dss.msg_field), (i, j)
            got_named.add(got.removeprefix("DecodeFailure: ").split(": no codeword")[0])
    assert got_named == named


def test_corrupted_responses_fail_like_the_reference(code73):
    """On the floor-rate [7,3] structure (two subqueries share an Ehat row),
    every single-symbol change of a response raises the reference's
    DecodeFailure text, naming the subquery of the failing word in its batch,
    or decodes to the reference's file."""
    from codedpir.ratematrix import lambda_generic, lambda_to_E
    e = lambda_to_E(lambda_generic(code73))
    setup = p2_build_structure(code73, e.info_sets(), e.ehat)
    dss = Dss(code73, f=2, beta=setup.beta, ell=2, seed=3)
    responses = p3_respond(dss, p3_queries(setup, 2, 1, 11))
    texts = set()
    for l in range(7):
        for i in range(setup.d):
            flipped = responses.copy()
            flipped[l, i] = dss.msg_field.add(int(flipped[l, i]), 1)
            got = _outcome(p3_decode, setup, flipped, 2, 1, dss.msg_field)
            assert got == _outcome(p3_decode_reference, setup, flipped.tolist(), 2, 1,
                                   dss.msg_field), (l, i)
            if isinstance(got, str):
                texts.add(got.split(": no codeword")[0])
    assert "DecodeFailure: subquery 2: word 1" in texts, texts


def test_setup_with_a_stripe_never_exposed_cannot_be_built(good532):
    """A setup whose third information set holds node 3, which no subquery
    reads, so that a decoder would miss a symbol of stripe 2, can no longer be
    built: its column profile is refused."""
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    with pytest.raises(StructureViolation, match="column 0 weight 2, expected 3"):
        dataclasses.replace(s5, info_sets=((0, 1, 2), (0, 1, 2), (0, 2, 3)))


_F2 = field_make(2)
_WHOLE5 = code_from_generator(Matrix(_F2, np.eye(5, dtype=np.int64)))
_REFUSALS = {
    "empty": ({"ehat": ()}, StructureViolation, "Ehat must be nonempty"),
    "short-row": ({"ehat": [(1, 0, 1, 0)] * 3}, StructureViolation, "n columns"),
    "zero-weight": ({"ehat": [(0,) * 5] * 3}, StructureViolation, "zero-weight"),
    "unequal": ({"ehat": [(1, 0, 1, 0, 0), (1, 1, 1, 0, 0), (0, 1, 1, 0, 0)]},
                StructureViolation, r"row 1 weight 3 != 2"),
    "uncorrectable": ({"ehat": [(1, 0, 1, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 0, 1)]},
                      StructureViolation, "row 2 not correctable"),
    # two subqueries read node 2, which only one of these sets holds
    "not-a-set": ({"info_sets": [(0, 1, 2), (0, 1, 3)]}, StructureViolation,
                  "set 1 is not an information set"),
    "repeated-node": ({"info_sets": [(0, 0, 1, 2), (0, 1, 2)]}, StructureViolation,
                      "set 0 is not an information set"),
    "profile": ({"info_sets": [(0, 1, 2)] * 3}, StructureViolation,
                "column 0 weight 2, expected 3"),
    "query-length": ({"query_code": repetition_code(_F2, 7)}, DimensionMismatch,
                     "share length and field"),
    "query-zero": ({"query_code": code_from_generator(Matrix(_F2, [[1, 1, 1, 1, 0]]))},
                   StructureViolation, r"positions \[4\]"),
    "rate-one": ({"code": _WHOLE5, "query_code": _WHOLE5}, RateOneProduct, "rate 1"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_construction_refuses_like_p3_setup(good532, case):
    """Direct construction, `dataclasses.replace` and `p3_setup` refuse each
    broken structure or pair of codes with the same exception type and text."""
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    change, exc_type, text = _REFUSALS[case]
    fields = {"code": s5.code, "query_code": s5.query_code, "ehat": s5.ehat,
              "info_sets": s5.info_sets, **change}
    texts = set()
    for build in (lambda: P3Setup(**fields), lambda: dataclasses.replace(s5, **change),
                  lambda: p3_setup(**fields)):
        with pytest.raises(exc_type, match=text) as exc:
            build()
        texts.add((type(exc.value), str(exc.value)))
    assert len(texts) == 1


def test_construction_normalises_the_structure(good532):
    """Ehat rows and sets given as lists, sets unsorted, become int tuples
    with each set sorted; the derived values follow from them."""
    s5 = P3Setup(good532, repetition_code(good532.field, 5),
                 [list(r) for r in EHAT_EX5], [[2, 1, 0], [1, 0, 2]])
    assert s5.ehat == tuple(tuple(r) for r in EHAT_EX5)
    assert s5.info_sets == ((0, 1, 2), (0, 1, 2))
    assert (s5.gamma, s5.collusion_threshold, s5.product.k) == (2, 1, 3)


def _exchange(data, lists: list) -> None:
    """Two drawn lists of `lists` (distinct when there are two) exchange a
    drawn element of each that the other lacks, in place; a no-op when either
    lacks none."""
    i = data.draw(st.integers(0, len(lists) - 1))
    a, b = lists[i], lists[(i + data.draw(st.integers(1, max(len(lists) - 1, 1)))) % len(lists)]
    only_a, only_b = sorted(set(a) - set(b)), sorted(set(b) - set(a))
    if only_a and only_b:
        x, y = data.draw(st.sampled_from(only_a)), data.draw(st.sampled_from(only_b))
        a[a.index(x)], b[b.index(y)] = y, x


def _perturbed(data, e, n: int, k: int):
    """The optimizer's (Ehat, sets) with one change drawn: a flipped Ehat bit,
    one set swapped for a drawn k-subset, two Ehat rows exchanging a node of
    their supports (row and column weights kept), or two sets exchanging a
    node (how often each node is held kept)."""
    ehat = [list(r) for r in e.ehat]
    sets = [sorted(s) for s in e.info_sets()]
    supports = [[l for l in range(n) if r[l]] for r in ehat]
    node = st.integers(0, n - 1)
    kind = data.draw(st.sampled_from(["flip", "set", "rows", "sets"]))
    event(kind)
    if kind == "flip":
        ehat[data.draw(st.integers(0, len(ehat) - 1))][data.draw(node)] ^= 1
    elif kind == "set":
        sets[data.draw(st.integers(0, len(sets) - 1))] = sorted(
            data.draw(st.sets(node, min_size=k, max_size=k)))
    elif kind == "rows":
        _exchange(data, supports)
        ehat = [[int(l in s) for l in range(n)] for s in supports]
    else:
        _exchange(data, sets)
    return ehat, sets


@settings(derandomize=True, max_examples=120, deadline=None)
@given(codes([(2, 1), (3, 1), (2, 2), (5, 1)], max_n=6, redundant=True), st.booleans(),
       st.integers(0, 2**16), st.data())
def test_perturbed_structure_is_refused_or_decodes(code, colluding, seed, data):
    """One change to the optimizer's structure for a random storage code
    (k < n), with the repetition or a random query code: either building the
    setup raises a CodedPirError other than DecodeFailure, or every file is
    retrieved exactly, so the decoder needs no consistency check of its
    own."""
    if colluding:
        query = full_support(data.draw(codes([(code.field.p, code.field.alpha)],
                                             max_messages=81, n=code.n)))
    else:
        query = repetition_code(code.field, code.n)
    try:
        e, _ = optimize_rate(code, query, seed=seed)
    except RateOneProduct:
        e = None
    assume(e is not None)
    ehat, sets = _perturbed(data, e, code.n, code.k)
    assume(ehat != [list(r) for r in e.ehat] or sets != [sorted(t) for t in e.info_sets()])
    try:
        setup = p3_setup(code, query, ehat, sets)
    except CodedPirError as exc:
        assert not isinstance(exc, DecodeFailure)
        event("refused")
        return
    event("built")
    dss = Dss(code, f=2, beta=setup.beta, seed=seed)
    for m in (1, 2):
        run(3, dss, {"setup": setup, "m": m, "seed": seed})


@pytest.mark.parametrize("nodes", ["all", "short"])
@pytest.mark.parametrize("bad", ["columns", "rank", "float", "object",
                                 "negative", "order"])
def test_respond_rejects_malformed_queries(setup_vb, code124, bad, nodes):
    """A query array of another shape or dtype, or with a symbol outside
    GF(2), raises DimensionMismatch, as does each of them sent for only some
    of the nodes; the well-formed array is answered."""
    dss = Dss(code124, f=2, beta=1, ell=2, seed=0)
    queries = p3_queries(setup_vb, 2, 1, seed=0)
    assert p3_respond(dss, queries).shape == (12, setup_vb.d)
    queries = {"columns": queries[:, :, :1],
               "rank": queries.reshape(12, -1),
               "float": queries.astype(float),
               "object": queries.astype(object),
               "negative": np.where(queries == 1, -1, queries),
               "order": np.where(queries == 1, 2, queries)}[bad]
    if nodes == "short":
        queries = queries[:10]
    with pytest.raises(DimensionMismatch):
        p3_respond(dss, queries)


def test_respond_rejects_a_short_node_list(setup_vb, code124):
    """Queries for 10 of the 12 nodes, as a list of per-node arrays, are
    refused rather than answered for the nodes given."""
    dss = Dss(code124, f=1, beta=1, seed=0)
    queries = p3_queries(setup_vb, 1, 1, seed=0)
    assert p3_respond(dss, list(queries)).tolist() == p3_respond(dss, queries).tolist()
    with pytest.raises(DimensionMismatch):
        p3_respond(dss, list(queries[:10]))
