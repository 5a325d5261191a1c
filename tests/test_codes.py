import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codedpir.codes import (COLUMN_SEARCH_BUDGET, ENUM_BUDGET, ENUM_CHUNK,
                            ErasurePattern, LinearCode, code_from_generator,
                            gaussian_binomial, standard_form_parity)
from codedpir.errors import (BadParams, DecodeFailure, DimensionMismatch, EmptySupport,
                             NotCorrectable, RankDeficient, RankDeficientGenerator)
from codedpir.families import code_from_spec, cyclic_code, grs_code, rm_code
from codedpir.fields import Matrix, field_make, mat_mul
from codedpir.reports import fixture_code, load_fixture
from conftest import (all_codewords, codes, columns, hadamard_product_reference, lifted,
                      rank_reference, rank_pattern_list, transposed)


def ghw_oracle(code, s):
    """Brute force over all s-subsets of nonzero codewords whose first nonzero
    symbol is 1 (one per 1-dimensional subcode), keeping those spanning s
    dimensions; support union minimized."""
    cws = [cw for cw in all_codewords(code) if next((x for x in cw if x), 0) == 1]
    best = code.n
    for subset in itertools.combinations(cws, s):
        g = Matrix(code.field, [list(c) for c in subset])
        if rank_reference(g) != s:
            continue
        support = set()
        for c in subset:
            support.update(j for j, x in enumerate(c) if x)
        best = min(best, len(support))
    return best


def test_from_generator_basics(good532, f2):
    assert (good532.n, good532.k) == (5, 3)
    whole = code_from_generator(Matrix(f2, [[1, 0], [0, 1]]))
    assert whole.H.rows == 0
    with pytest.raises(RankDeficientGenerator):
        code_from_generator(Matrix(f2, [[1, 0, 1], [1, 0, 1]]))


def test_dual_relations(code73, f2):
    ham = cyclic_code(f2, 7, [1, 1, 0, 1])
    dual = ham.dual()
    assert (dual.n, dual.k) == (7, 3)
    # same codeword set as the [7,3,4] code? both are three-dimensional,
    # compare via stacked rank against their own duals instead
    assert dual.min_distance() == 4
    dd = dual.dual()
    assert rank_reference(Matrix(f2, np.vstack([dd.G.array(), ham.G.array()]))) == ham.k
    whole = code_from_generator(Matrix(f2, np.eye(5, dtype=np.int64)))
    zero = whole.dual()
    assert zero.k == 0


def test_information_sets(good532, bad532):
    assert good532.is_information_set([0, 1, 2])
    assert bad532.is_information_set([0, 1, 2])
    # 3x3 determinant oracle over GF(2) for columns {1,2,4} of the bad code
    sub = columns(bad532.G, [0, 1, 3])
    det_nonzero = rank_reference(sub) == 3
    assert bad532.is_information_set([0, 1, 3]) == det_nonzero
    assert not good532.is_information_set([0, 1])


def test_out_of_range_coordinates_fail_loudly(good532):
    """A coordinate outside 0..n-1 raises DimensionMismatch; a negative one
    is not read as counted from the end."""
    for coords in ([0, 1, -1], [0, 1, 7]):
        with pytest.raises(DimensionMismatch):
            good532.is_information_set(coords)
        with pytest.raises(DimensionMismatch):
            good532.information_columns(coords)
    for support in ([0, 9], [-1]):
        with pytest.raises(DimensionMismatch):
            good532.correctable_support(support)
    with pytest.raises(DimensionMismatch):
        good532.pivot_columns([[0, 1, 2, 3, 5]])
    for support in ([-1], [5]):
        with pytest.raises(DimensionMismatch):
            ErasurePattern.from_support(5, support)


def test_pattern_helpers_refuse_bad_input(good532):
    """Supports of mixed weights, a repeated position, one off the code or
    one that is not an integer, orders that are not B permutations of
    0..n-1, and pattern weights that are negative or not integers raise
    package errors, not bare numpy or Python ones (or, for a float
    position, an answer for the truncated one)."""
    for supports in ([[0, 1], [2]], [[0, 0]], [[0, 5]], [[-1, 0]], [[0.5, 1]], [0, 1]):
        with pytest.raises(DimensionMismatch):
            good532.correctable_shifts(supports)
    with pytest.raises(DimensionMismatch):
        good532.correctable_support([0.7, 1.2])
    with pytest.raises(DimensionMismatch):
        good532.information_columns([0.5, 1.5, 2.2])
    for orders in ([[0, 1, 2]], [[0, 1, 2, 3, 4], [0, 1]], [0, 1, 2, 3, 4],
                   [[0, 0, 1, 2, 3]], [[0, 1, 2, 3, 4.0]]):
        with pytest.raises(DimensionMismatch):
            good532.pivot_columns(orders)
    for w in (-1, 1.5, "2"):
        with pytest.raises(BadParams):
            good532.correctable_masks(w)
    assert good532.correctable_shifts([]).shape == (0, 5)
    assert good532.pivot_columns([]).shape == (0, 2)
    assert good532.correctable_masks(np.int64(1)) == good532.correctable_masks(1)


def test_erasure_correctability(code73):
    assert code73.erasure_correctable(ErasurePattern.from_support(7, [2, 3, 4, 5]))
    assert code73.erasure_correctable(ErasurePattern(7, (0,) * 7))
    assert not code73.erasure_correctable(ErasurePattern(7, (1,) * 7))


def test_erasure_correctable_takes_patterns_only(f2):
    # binary [2,1] code with H = [1 1]: erasing both positions is fatal
    code = LinearCode.from_parity_check(Matrix(f2, [[1, 1]]))
    assert not code.erasure_correctable(ErasurePattern.from_support(2, (0, 1)))
    assert code.erasure_correctable(ErasurePattern.from_support(2, (1,)))
    # positions, masks and patterns of another length are not guessed at
    for bad in ((0, 1), [1, 1], ErasurePattern(3, (1, 0, 0))):
        with pytest.raises(DimensionMismatch):
            code.erasure_correctable(bad)


def test_decode_erasures_roundtrip(code73):
    f4 = code73.field.extension(2)
    rng = random.Random(11)
    word = mat_mul(Matrix(f4, [[rng.randrange(4) for _ in range(3)]]),
                   lifted(code73.G, f4)).array()[0].tolist()
    assert code73.decode_erasures([list(word)], []).tolist() == [list(word)]
    got = code73.decode_erasures(
        [[0 if j in (2, 3, 4, 5) else word[j] for j in range(7)]],
        [2, 3, 4, 5], value_field=f4)
    assert got.tolist() == [list(word)]
    with pytest.raises(NotCorrectable):
        code73.decode_erasures([list(word)], [0, 1, 2, 3, 4])
    # positions outside 0..n-1, and words of another length, are refused
    for words, erased in (([word], [7]), ([word], [-1]), ([word[:6]], [])):
        with pytest.raises(DimensionMismatch):
            code73.decode_erasures(words, erased)
    # a word that no codeword matches off E fails the syndrome check, also
    # with nothing erased
    bad = list(word)
    bad[0] ^= 1
    with pytest.raises(DecodeFailure):
        code73.decode_erasures([bad], [], value_field=f4)
    # d_min = 4: a word off a codeword in one unerased position fits no
    # codeword off two erasures
    with pytest.raises(DecodeFailure):
        code73.decode_erasures([bad], [5, 6], value_field=f4)
    assert issubclass(NotCorrectable, DecodeFailure)


def test_decode_erasures_every_correctable_pattern(good532, code73):
    rng = random.Random(21)
    for code in (good532, code73):
        f = code.field
        word = code.encode(np.array([[rng.randrange(2) for _ in range(code.k)]])).tolist()[0]
        for w in range(code.n - code.k + 1):
            for support in itertools.combinations(range(code.n), w):
                pat = ErasurePattern.from_support(code.n, support)
                if not code.erasure_correctable(pat):
                    continue
                erased = [0 if j in support else word[j] for j in range(code.n)]
                assert code.decode_erasures([erased], support).tolist() == [list(word)]


def test_min_distance_reference_values(good532, code124):
    assert good532.min_distance() == 2
    assert code124.min_distance() == 6
    rep = code_from_generator(Matrix(field_make(2), [[1, 1, 1, 1]]))
    assert rep.min_distance() == 4


def test_generalized_hamming_weights(good532, bad532, rs53):
    assert bad532.generalized_hamming_weight(2) == 3 == ghw_oracle(bad532, 2)
    assert bad532.generalized_hamming_weight(1) == bad532.min_distance()
    g2 = good532.generalized_hamming_weight(2)
    assert g2 == ghw_oracle(good532, 2)
    assert g2 >= 4  # at least ceil(10/3) when a capacity matrix exists
    # over GF(7) against the brute-force oracle
    assert rs53.generalized_hamming_weight(2) == ghw_oracle(rs53, 2) == 4


def test_ghw_strict_monotonicity(good532, bad532, code73, rs53):
    for code in (good532, bad532, code73, rs53):
        weights = [code.generalized_hamming_weight(s)
                   for s in range(1, code.k + 1)]
        assert all(a < b for a, b in zip(weights, weights[1:]))
        assert weights[-1] <= code.n


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(codes([(2, 1), (3, 1), (2, 2)], max_messages=27),
                 codes([(3, 2)], max_messages=81)))
def test_ghw_matches_oracle(code):
    """d_s from the subcode enumeration equals the brute force for every s."""
    ks = range(1, code.k + 1)
    assert [code.generalized_hamming_weight(s) for s in ks] == \
        [ghw_oracle(code, s) for s in ks]


def test_ghw_1_past_the_enumeration_budget():
    """c4 ([18,12] over GF(17)) has more 1-dimensional subcodes than
    ENUM_BUDGET: d_1 comes from the column search."""
    c4 = fixture_code(load_fixture("c4"))
    code = LinearCode(c4.G, c4.H, check=False)  # no family d_min
    assert gaussian_binomial(code.k, 1, code.field.order) > ENUM_BUDGET
    assert code.generalized_hamming_weight(1) == 5


def test_ghw_k_is_the_support_size(f2):
    """The only k-dimensional subcode is the code: d_k counts its nonzero
    columns, here all but position 2."""
    for field, g in ((f2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0]]),
                     (field_make(3), [[1, 0, 0, 2, 1], [0, 1, 0, 1, 0]])):
        assert code_from_generator(Matrix(field, g)).generalized_hamming_weight(2) == 4


def random_systematic_code(field, n, k, rng):
    """[n,k] code from [I_k | A] with A drawn by `rng`."""
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(field.order)
                                               for _ in range(n - k)]
            for i in range(k)]
    return code_from_generator(Matrix(field, rows))


def test_min_distance_past_one_block():
    """d_1 by the subcode enumeration on codes whose q^k words fill several
    blocks of ENUM_CHUNK, so both the outer offsets and the inner table
    vary: c13's query dual [26,17], a GF(9) [8,5] code and a GF(3^5) [5,2]
    code (words held as int16) against the column search, and the c14
    product [32,16], which is RM(2,5) with d = 8 (its column search passes
    COLUMN_SEARCH_BUDGET)."""
    c13, c14 = load_fixture("c13"), load_fixture("c14")
    query_dual = code_from_spec(c13["colluding"]["query"]).dual()
    rng = random.Random(9)
    gf9 = random_systematic_code(field_make(3, 2), 8, 5, rng)
    gf243 = random_systematic_code(field_make(3, 5), 5, 2, rng)
    for code in (query_dual, gf9, gf243):
        assert code.field.order ** code.k > ENUM_CHUNK
        assert code._min_support(1) == \
            code._min_distance_column_search(budget=COLUMN_SEARCH_BUDGET)
    assert query_dual._min_support(1) == 4
    product = fixture_code(c14).hadamard_product(code_from_spec(c14["colluding"]["query"]))
    assert (product.n, product.k) == (32, 16)
    assert product._min_support(1) == 8
    # a binary [30,14] code [I | A] whose one weight-2 word is g_0 + g_1 (rows
    # 0 and 1 of A agree, the others differ, and every row has bits 0 and 1
    # set): pivot 0's last 12 free entries fill a block, so the word comes
    # from its second
    parity = rng.sample(range(3, 1 << 16, 4), 13)
    rows = [[int(i == j) for j in range(14)] + [parity[max(i - 1, 0)] >> b & 1
                                                for b in range(16)]
            for i in range(14)]
    assert 2 ** 12 == ENUM_CHUNK
    assert code_from_generator(Matrix(field_make(2), rows))._min_support(1) == 2


def test_min_support_keeps_every_symbol():
    """Words are held in the smallest signed type that holds q: over GF(257)
    the symbol 256 stays nonzero (an int8 word would read it as 0, and the
    row [1 0 256] as weight 1)."""
    code = code_from_generator(Matrix(field_make(257), [[1, 0, 256], [0, 1, 1]]))
    assert code._min_support(1) == 2


def check_wei_duality(code):
    """Wei's duality: d_r(C) for r = 1..k and n + 1 - d_r(C^perp) for
    r = 1..n-k are together exactly 1..n."""
    dual = code.dual()
    ours = [code.generalized_hamming_weight(r) for r in range(1, code.k + 1)]
    theirs = [code.n + 1 - dual.generalized_hamming_weight(r)
              for r in range(1, dual.k + 1)]
    assert sorted(ours + theirs) == list(range(1, code.n + 1)), (ours, theirs)


@pytest.mark.parametrize("p, alpha, n, k", [(2, 1, 14, 7), (3, 1, 10, 5), (2, 2, 9, 5),
                                             (3, 2, 8, 4)])
def test_ghw_wei_duality(p, alpha, n, k):
    """Every GHW of a random code and of its dual, by the subcode
    enumeration, satisfy Wei's duality. At s = 3 the binary [14,7] code's
    first pivot set has 2^12 subcodes of 3 rows, listed in several blocks of
    about ENUM_CHUNK rows."""
    code = random_systematic_code(field_make(p, alpha), n, k, random.Random(n * p + k))
    check_wei_duality(code)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(codes([(2, 1)], max_n=8), codes([(3, 1), (2, 2)], max_n=5),
                 codes([(3, 2)], max_n=4)))
def test_ghw_wei_duality_small_codes(code):
    """Wei's duality on small random codes, zero columns and k = n included."""
    check_wei_duality(code)


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 7) == 57
    assert gaussian_binomial(3, 3, 5) == 1


def test_hadamard_product(good532, code124, f2):
    ones = code_from_generator(Matrix(f2, [[1] * 5]))
    had = good532.hadamard_product(ones)
    assert had.k == good532.k
    assert rank_reference(Matrix(f2, np.vstack([had.G.array(), good532.G.array()]))) \
        == good532.k
    prod = code124.hadamard_product(code124)
    assert (prod.n, prod.k) == (12, 10)
    # the worked example's 2-row parity check annihilates the product
    ht = Matrix(f2, [[1, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0],
                     [1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1]])
    assert not mat_mul(prod.G, transposed(ht)).array().any()


@pytest.mark.parametrize("field", [(2, 1), (13, 1), (2, 4), (3, 2), (5, 7)],
                         ids=["gf2", "gf13", "gf16", "gf9", "gf5^7"])
def test_hadamard_product_matches_scalar_reference(field):
    """The product generator, built by one inner-size-1 `matmul_array`
    product, against the scalar reference in each regime of that product:
    GF(p), the tabled GF(2^4) and GF(3^2) and the untabled GF(5^7)."""
    f = field_make(*field)
    rng = random.Random(str(field))

    def random_code(k, n=6):
        return code_from_generator(Matrix(f, [[int(i == j) for j in range(k)]
                                              + [rng.randrange(f.order) for _ in range(n - k)]
                                              for i in range(k)]))

    a, b = random_code(2), random_code(3)
    for x, y in ((a, b), (b, a), (b, b)):
        assert x.hadamard_product(y).G.array().tolist() == hadamard_product_reference(x, y)


def test_hadamard_product_of_reed_muller_codes():
    """RM(1,4) times itself is RM(2,4): 25 row products spanning 11 dimensions."""
    rm14 = rm_code(1, 4)
    product = rm14.hadamard_product(rm14)
    assert product.G.array().tolist() == hadamard_product_reference(rm14, rm14)
    assert product.k == rm_code(2, 4).k == 11
    assert rm_code(2, 4).contains_codewords(product.G.array())


def test_hadamard_product_memoized(code124, rs53):
    """Built once per query-code instance: the same object, d_min included."""
    prod = code124.hadamard_product(code124)
    assert code124.hadamard_product(code124) is prod
    prod.min_distance()
    assert code124.hadamard_product(code124).known_dmin == prod.known_dmin
    # another instance of the same code gets its own product
    twin = LinearCode(code124.G, code124.H)
    assert code124.hadamard_product(twin) is not prod
    with pytest.raises(DimensionMismatch):
        code124.hadamard_product(rs53)


def test_puncture_and_shorten():
    f8 = field_make(2, 3)
    mds = grs_code(f8, 6, 4)
    punct = mds.puncture(range(5))
    assert (punct.n, punct.k) == (5, 4)
    assert punct.min_distance() == 2  # punctured MDS stays MDS
    full = mds.puncture(range(6))
    assert rank_reference(Matrix(f8, np.vstack([full.G.array(), mds.G.array()]))) == mds.k
    short = mds.shorten(range(5))
    assert (short.n, short.k) == (5, 3)
    assert short.min_distance() == 3  # shortened MDS stays MDS
    with pytest.raises(EmptySupport):
        mds.puncture([])


@pytest.mark.parametrize("coords", [[0, 7], [-1, 0], [6], [2, 6, 3]])
def test_puncture_and_shorten_refuse_positions_off_the_code(coords):
    """A position outside 0..n-1 raises DimensionMismatch naming the
    coordinates; -1 used to wrap to the last column and 7 to raise a bare
    IndexError."""
    mds = grs_code(field_make(2, 3), 6, 4)
    for derive in (mds.puncture, mds.shorten):
        with pytest.raises(DimensionMismatch, match=r"coordinates \["):
            derive(coords)


@pytest.mark.parametrize("info", [[0, 0, 1], [0, 1, 5], [-1, 0, 1], [0, 1], [0, 1, 2, 3]])
def test_standard_form_parity_refuses_bad_information_sets(good532, info):
    """`info` (a fixture's `systematic` field) must be k distinct positions
    in 0..n-1: duplicates, positions off the code and a wrong size raise
    DimensionMismatch naming them, not "inverse of non-square matrix"; k
    positions that are no information set raise RankDeficient."""
    with pytest.raises(DimensionMismatch, match="systematic coordinates"):
        standard_form_parity(good532, info)
    dependent = next(c for c in itertools.combinations(range(5), 3)
                     if not good532.is_information_set(c))
    with pytest.raises(RankDeficient):
        standard_form_parity(good532, dependent)


def test_local_code_of_pyramid_example():
    from codedpir.families import LrcParams, lrc_optimal
    params = LrcParams(q=8, r=2, delta=2, Lc=2, n=7, k=4,
                       local_parity=[[[3, 1]], [[3, 2]]],
                       global_mix=[[[6, 1]], [[7, 7]]])
    pyr = lrc_optimal(params)
    local = pyr.puncture([0, 1, 2])
    assert (local.n, local.k) == (3, 2)
    assert local.min_distance() == 2  # [3,2] MDS local code, delta = 2


def test_automorphisms(good532, bad532, f2):
    cyc = cyclic_code(f2, 7, [1, 1, 0, 1])
    shift = [(j + 1) % 7 for j in range(7)]
    assert cyc.is_automorphism(shift)
    assert bad532.is_automorphism(list(range(5)))
    # swapping positions 0 and 4 moves the codeword 10010 to 00011, off the code
    assert (0, 0, 0, 1, 1) not in all_codewords(good532)
    assert not good532.is_automorphism([4, 1, 2, 3, 0])
    swap = [1, 0, 2, 3, 4]
    rows = bad532.G.array().tolist()
    permuted = [[0] * 5 for _ in range(3)]
    for i in range(3):
        for j in range(5):
            permuted[i][swap[j]] = rows[i][j]
    same = rank_reference(Matrix(f2, rows + permuted)) == 3
    assert bad532.is_automorphism(swap) == same


@pytest.mark.parametrize("call", [
    lambda code: code.is_information_set([0.5, 1.5, 2.9]),
    lambda code: code.contains_information_set([0, 1, 2.9, 4]),
    lambda code: code._positions([0.5, 3.7], "puncture"),
    lambda code: code.puncture([0, 3.7]),
    lambda code: code.shorten([0, 1, 2, 3.0]),
    lambda code: code.decode_erasures([[0] * 5], [1.5]),
    lambda code: code.message_from_information_set([0, 1, 2.9], [[0, 0, 0]], code.field),
    lambda code: standard_form_parity(code, [0, 1, 2.0]),
], ids=["is_information_set", "contains_information_set", "_positions", "puncture",
        "shorten", "decode_erasures", "message_from_information_set",
        "standard_form_parity"])
def test_positions_must_be_integers(good532, call):
    """A position that is not an integer raises DimensionMismatch; it was
    cut to an integer before, so [0.5, 1.5, 2.9] was read as the
    information set [0, 1, 2] and [0.5, 3.7] as [0, 3]."""
    with pytest.raises(DimensionMismatch, match="must be integers"):
        call(good532)


@pytest.mark.parametrize("field,n,k,per_prefix", [
    ((2, 1), 32, 26, 8 * 32),         # H in one uint8 word: the n int64 indices
    ((17, 1), 10, 4, 6 * 10 * 2),     # H as int16: the residual itself
])
def test_column_walk_block_counts_a_prefix_at_its_larger_size(monkeypatch, field, n, k,
                                                               per_prefix):
    """The column walk steps at most BLOCK // max(residual bytes, 8 n)
    prefixes a block: each prefix holds its residual and n-entry int64
    index arrays, and with H packed into one-byte GF(2) words the indices
    are the larger. The blocks do not change the patterns listed."""
    f = field_make(*field)
    code = rm_code(1, 5).dual() if f.order == 2 else grs_code(f, n, k)
    assert (code.n, code.k) == (n, k)
    want = rank_pattern_list(code, 3)
    monkeypatch.setattr("codedpir.codes.BLOCK", 1 << 10)
    h, eliminate = code._eliminator("H")
    assert h.nbytes <= per_prefix
    sizes = []

    def recording(R, u):
        sizes.append(len(R))
        eliminate(R, u)

    code._eliminators["H"] = (h, recording)
    assert code.correctable_masks(3) == want
    assert max(sizes) == (1 << 10) // per_prefix


def test_proposition_every_large_set_contains_information_set(good532, bad532, code73):
    for code in (good532, bad532, code73):
        d = code.min_distance()
        size = code.n - d + 1
        for coords in itertools.combinations(range(code.n), size):
            assert code.contains_information_set(coords)
        # minimality: some set of size n - d misses an information set
        assert any(not code.contains_information_set(c)
                   for c in itertools.combinations(range(code.n), size - 1))


def test_proposition_dual_information_sets(good532, code73, rs53):
    for code in (good532, code73, rs53):
        dual = code.dual()
        for coords in itertools.combinations(range(code.n), code.k):
            comp = [j for j in range(code.n) if j not in coords]
            assert code.is_information_set(coords) == dual.is_information_set(comp)


def test_information_set_meets_subcode_support(good532, code73):
    # |I ∩ chi(D)| >= s for every information set I and s-dim subcode D
    for code in (good532, code73):
        info_sets = [c for c in itertools.combinations(range(code.n), code.k)
                     if code.is_information_set(c)]
        cws = [cw for cw in all_codewords(code) if any(cw)]
        for s in (1, 2):
            for subset in itertools.combinations(cws, s):
                if rank_reference(Matrix(code.field, [list(c) for c in subset])) != s:
                    continue
                support = set()
                for c in subset:
                    support.update(j for j, x in enumerate(c) if x)
                for iset in info_sets:
                    assert len(set(iset) & support) >= s


def test_standard_form_parity(good532):
    p, info = standard_form_parity(good532)
    cprime = LinearCode.from_parity_check(p)
    assert (cprime.n, cprime.k, cprime.min_distance()) == (3, 1, 3)
