"""Property checks of the code kernels against independent scalar oracles.

Random small codes over GF(2, 3, 4, 5, 7, 8, 9, 13, 16, 17); GF(5^7) has no
log/exp tables and exercises the kernel's table-less branch. The array
product behind `mat_mul` is checked against the scalar triple loop
(`mat_mul_reference`), and the array elimination behind `mat_rank`,
`mat_rref`, `mat_solve`, null spaces and inverses against the scalar list
elimination (`rref_reference`). The scalar oracles themselves
(`rref_reference`, and `mul` on the tabled fields) are checked against sympy.
"""

import itertools
import math
import random
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from codedpir.codes import (COLUMN_SEARCH_BUDGET, ErasurePattern, LinearCode,
                            code_from_generator)
from codedpir.errors import (DecodeFailure, DimensionMismatch, FieldMismatch,
                             NotCorrectable, RankDeficient)
from codedpir.families import _is_mds_parity_check
from codedpir.fields import (MATMUL_CHUNK, Matrix, _is_prime, field_make, mat_mul,
                             mat_rank, mat_rref, mat_solve)
from codedpir.optimizer import compute_erasure_pattern_list
from conftest import (FIELDS, all_codewords, codes, columns, decode_erasures_reference,
                      lifted, mat_mul_reference, message_from_information_set_reference,
                      null_space_reference, rank_pattern_list, rank_reference,
                      rref_reference, sampled_pattern_list_reference, solve_reference)

BRUTE_LIMIT = 512  # q^k ceiling for the brute-force distance oracle

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def field_id(field: tuple[int, int]) -> str:
    return f"{field[0]}^{field[1]}"


def check_erasures(code):
    for w in range(code.n + 1):
        for support in itertools.combinations(range(code.n), w):
            want = rank_reference(columns(code.H, support)) == w
            pattern = ErasurePattern.from_support(code.n, support)
            assert code.erasure_correctable(pattern) == want, support


@PROPERTY
@given(codes(FIELDS))
def test_erasure_correctable_matches_rank(code):
    check_erasures(code)


def test_erasure_correctable_without_field_tables():
    """GF(5^7) has no log/exp tables; H gets a scaled column and a column
    that is a combination of two others."""
    f = field_make(5, 7)
    rng = random.Random(7)
    cols = [[rng.randrange(f.order) for _ in range(3)] for _ in range(3)]
    cols.append([f.mul(2, x) for x in cols[0]])
    cols.append([f.add(x, f.mul(3, y)) for x, y in zip(cols[1], cols[2])])
    H = Matrix(f, [list(row) for row in zip(*cols)])
    check_erasures(LinearCode.from_parity_check(H))


@PROPERTY
@given(codes(FIELDS + [(5, 7)]), st.integers(0, 2**32 - 1))
def test_pattern_lists_match_reference(code, seed):
    """The exhaustive column walk (taken when C(n, w) fits the budget) lists
    the supports whose columns of H have full rank, in ascending mask order
    (`rank_pattern_list`), whether it walks to each weight w or lists w on
    the way to a deeper weight; every sampled pattern has independent
    columns of H."""
    deep = LinearCode(code.G, code.H, check=False)
    for w in reversed(range(code.n - code.k + 2)):
        assert deep.correctable_masks(w) == rank_pattern_list(code, w), w
    for w in range(code.n - code.k + 2):
        full = compute_erasure_pattern_list(code, w, budget=comb(code.n, w),
                                            sample_budget=0)
        assert full.masks == rank_pattern_list(code, w), w
        assert full.weight == w and full.n == code.n
        sampled = compute_erasure_pattern_list(code, w, budget=0, sample_budget=20,
                                               seed=seed)
        assert len(set(sampled.masks)) == len(sampled)
        for mask in sampled.masks:
            support = [j for j in range(code.n) if mask >> j & 1]
            assert len(support) == w
            assert rank_reference(columns(code.H, support)) == w, support


def rank_min_distance(code) -> int:
    """The smallest w for which some w columns of H have rank below w."""
    return next(w for w in range(1, code.n + 1)
                if len(rank_pattern_list(code, w)) < comb(code.n, w))


def test_pattern_lists_past_63_positions():
    """Masks of 64 or more positions are Python integers, and a GF(2) parity
    check of more than 64 rows packs each column into two words: [64, 62]
    codes over GF(2) and GF(3), and a [68, 3] binary code whose H has 65
    rows, against the rank of every 2-subset. Repeated, proportional and
    zero columns make some pairs dependent; in the [68, 3] code two columns
    are set only in the second word. Each code's one-subset and batched
    greedy paths are checked too (`check_one_subset_paths`)."""
    rng = random.Random(64)
    for q in (2, 3):
        f = field_make(q)
        cols = [[rng.randrange(q) for _ in range(2)] for _ in range(64)]
        cols[9], cols[40] = list(cols[3]), [f.mul(q - 1, x) for x in cols[60]]
        cols[50] = [0, 0]
        H = Matrix(f, [list(row) for row in zip(*cols)])
        code = LinearCode.from_parity_check(H)
        assert (code.n, code.k) == (64, 62)
        assert code.correctable_masks(2) == rank_pattern_list(code, 2)
        assert max(code.correctable_masks(2)) >= 1 << 63
        check_one_subset_paths(code, rng)
    unit = [[int(i == j) for i in range(65)] for j in range(65)]
    spread = [rng.randrange(2) for _ in range(64)] + [1]
    cols = unit + [unit[64], unit[7], spread]
    rng.shuffle(cols)
    H = Matrix(field_make(2), [list(row) for row in zip(*cols)])
    code = LinearCode.from_parity_check(H)
    assert (code.n, code.k) == (68, 3)
    want = rank_pattern_list(code, 2)
    assert len(want) < comb(68, 2)
    assert code.correctable_masks(2) == want
    check_one_subset_paths(code, rng)


@pytest.mark.parametrize("q,n", [(2, 62), (2, 63), (2, 64), (2, 70), (3, 63)])
def test_sampled_pattern_lists_past_62_positions(q, n):
    """Masks are int64 below 63 positions and Python integers from 63 on:
    sampled lists of [n, n - 2] codes on each side, whose H repeats, scales
    and zeroes some columns, against the one-draw-at-a-time reference."""
    f, rng = field_make(q), random.Random(n * q)
    cols = [[rng.randrange(q) for _ in range(2)] for _ in range(n)]
    cols[5], cols[n - 1], cols[n // 2] = list(cols[1]), [f.mul(q - 1, x) for x in cols[0]], [0, 0]
    cols[0] = [1, 0]
    cols[1] = [0, 1]
    code = LinearCode.from_parity_check(Matrix(f, [list(row) for row in zip(*cols)]))
    for w, seed in ((1, 3), (2, n)):
        got = compute_erasure_pattern_list(code, w, budget=0, sample_budget=8, seed=seed)
        assert got.masks == sampled_pattern_list_reference(code, w, 8, seed), w
        assert all(type(m) is int for m in got.masks)


def test_column_walk_over_a_large_prime():
    """Over the first prime p above 2^40 most products of two symbols pass
    int64, so the walk's residuals are Python integers. H has large
    entries, a column in the span of two others and one a multiple of
    another: every list and the column search against the rank of every
    subset, and the one-subset and batched greedy paths
    (`check_one_subset_paths`)."""
    p = next(p for p in itertools.count(1 << 40) if _is_prime(p))
    f, rng = field_make(p), random.Random(p)
    cols = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
    a, b, c = (rng.randrange(1, p) for _ in range(3))
    cols.append([f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(cols[0], cols[1])])
    cols.append([f.mul(c, x) for x in cols[2]])
    code = LinearCode.from_parity_check(Matrix(f, [list(row) for row in zip(*cols)]))
    for w in range(code.n + 1):
        assert code.correctable_masks(w) == rank_pattern_list(code, w), w
    assert code._min_distance_column_search(budget=COLUMN_SEARCH_BUDGET) == \
        rank_min_distance(code)
    check_one_subset_paths(code, rng)


@PROPERTY
@given(codes(FIELDS + [(5, 7)], max_n=6))
def test_column_search_matches_subset_ranks(code):
    """The column search's d_min is the smallest w for which some w columns
    of H have rank below w, by the rank of every subset."""
    assert code._min_distance_column_search(budget=COLUMN_SEARCH_BUDGET) == \
        rank_min_distance(code)


@pytest.mark.parametrize("field", FIELDS + [(5, 7)], ids=field_id)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), sample_budget=st.integers(0, 40))
def test_sampled_pattern_lists_match_reference(field, data, seed, sample_budget):
    """budget = 0 forces the sampled branch at every weight w >= 1: the
    draws and the batched shift check list exactly the masks of the
    per-shift reference loop."""
    code = data.draw(codes([field]))
    for w in range(1, code.n - code.k + 2):
        got = compute_erasure_pattern_list(code, w, budget=0,
                                           sample_budget=sample_budget, seed=seed)
        assert got.masks == sampled_pattern_list_reference(code, w, sample_budget,
                                                           seed), w


@pytest.mark.parametrize("field", FIELDS + [(5, 7)], ids=field_id)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_correctable_shifts_match_rank(field, data):
    """Every cyclic shift of drawn supports, correctable or not, against the
    rank of H's columns on the shifted support."""
    code = data.draw(codes([field]))
    w = data.draw(st.integers(0, code.n))
    supports = data.draw(st.lists(st.permutations(range(code.n)), min_size=1,
                                  max_size=4))
    supports = [perm[:w] for perm in supports]
    got = code.correctable_shifts(supports)
    assert got.shape == (len(supports), code.n) and got.dtype == bool
    for row, support in zip(got.tolist(), supports):
        for shift in range(code.n):
            shifted = [(j + shift) % code.n for j in support]
            want = rank_reference(columns(code.H, shifted)) == w
            assert row[shift] == want, (support, shift)


def rref_pivots(M, order) -> list[int]:
    """The pivot columns of rref(M[:, order]) mapped back through `order`."""
    return [order[c] for c in rref_reference(columns(M, order))[1]]


@PROPERTY
@given(codes(FIELDS + [(5, 7)]), st.data())
def test_pivot_columns_match_rref(code, data):
    """Up to four orders (none included) in one call: row b holds the RREF
    pivots of H's columns in order b, mapped back through it."""
    orders = data.draw(st.lists(st.permutations(range(code.n)), max_size=4))
    got = code.pivot_columns(orders)
    assert got.shape == (len(orders), code.n - code.k)
    assert got.tolist() == [rref_pivots(code.H, order) for order in orders]


def check_one_subset_paths(code, rng):
    """`correctable_support`, `information_columns`, `pivot_columns` (three
    orders in one call) and `correctable_shifts` against `rank_reference`
    and `rref_reference`, on random supports and orders of every weight up to n - k + 1
    (so dependent supports occur) and on the first and last n - k columns."""
    n, nk = code.n, code.n - code.k
    supports = [list(range(nk)), list(range(n - nk, n))]
    supports += [rng.sample(range(n), w) for w in range(min(n, nk + 1) + 1)]
    for support in supports:
        want = rank_reference(columns(code.H, support)) == len(support)
        assert code.correctable_support(support) == want, support
    orders = [rng.sample(range(n), n) for _ in range(3)]
    for order in orders + supports:
        assert code.information_columns(order) == rref_pivots(code.G, order), order
    assert code.pivot_columns(orders).tolist() == [rref_pivots(code.H, order)
                                                   for order in orders]
    for w in (1, min(2, nk), nk):
        drawn = [rng.sample(range(n), w) for _ in range(3)]
        got = code.correctable_shifts(drawn)
        for row, support in zip(got.tolist(), drawn):
            for shift in rng.sample(range(n), min(n, 8)):
                shifted = [(j + shift) % n for j in support]
                assert row[shift] == (rank_reference(columns(code.H, shifted)) == w)


def check_column_eliminations(code, rng, w: int):
    """`_independent` over H and G (three random orders each, against the
    RREF pivots of those columns), `correctable_masks(w)` (the column walk)
    against `rank_pattern_list`, and `check_one_subset_paths`."""
    n = code.n
    for of, M in (("H", code.H), ("G", code.G)):
        orders = [rng.sample(range(n), n) for _ in range(3)]
        got = code._independent(of, orders)
        assert got.shape == (3, n) and got.dtype == bool
        for row, order in zip(got.tolist(), orders):
            pivots = set(rref_pivots(M, order))
            assert row == [j in pivots for j in order], (of, order)
    assert code.correctable_masks(w) == rank_pattern_list(code, w)
    check_one_subset_paths(code, rng)


def binary_code_with_check_rows(r: int, rng) -> LinearCode:
    """A binary [r + 5, 5] code whose H has r rows: the r unit columns, a
    copy of the unit column of the last row (set only in its last word),
    the sum of the first and last, a zero column and two random columns,
    in a shuffled order."""
    unit = [[int(i == j) for i in range(r)] for j in range(r)]
    extra = [list(unit[-1]), [int(i in (0, r - 1)) for i in range(r)], [0] * r,
             [rng.randrange(2) for _ in range(r)], [rng.randrange(2) for _ in range(r)]]
    cols = unit + extra
    rng.shuffle(cols)
    return LinearCode.from_parity_check(Matrix(field_make(2), [list(row) for row in zip(*cols)]))


@pytest.mark.parametrize("r", [8, 9, 16, 17, 32, 33, 64, 65])
def test_column_eliminations_at_every_binary_word_size(r):
    """Over GF(2) a residual packs H's r rows into one uint8, uint16,
    uint32 or uint64 word per column, or into two uint64 words past 64
    rows: the eliminations on each side of every size against the
    reference ranks, on H (r rows) and, through the dual, on a G of r
    rows."""
    rng = random.Random(r)
    code = binary_code_with_check_rows(r, rng)
    words = code._eliminator("H")[0]
    bits = min(b for b in (8, 16, 32, 64) if r <= b or b == 64)
    assert (words.dtype, len(words)) == (np.dtype(f"uint{bits}"), -(-r // bits))
    dual = code.dual()
    assert dual._eliminator("G")[0].dtype == words.dtype
    check_column_eliminations(code, rng, 2)
    check_column_eliminations(dual, rng, 2)


def next_prime(p: int) -> int:
    return next(q for q in itertools.count(p) if _is_prime(q))


@pytest.mark.parametrize("p,alpha,dtype", [
    (127, 1, np.int16), (131, 1, np.int32),              # 2 (p-1)^2 against 2^15
    (32749, 1, np.int32), (32771, 1, np.int64),          # against 2^31
    (2**31 - 1, 1, np.int64), (next_prime(2**31), 1, object),  # against 2^63
    (2, 4, np.int64), (5, 7, np.int64)])                 # tabled, and table-less
def test_column_eliminations_at_every_residual_type(p, alpha, dtype):
    """Over GF(p) a residual is int16, int32 or int64 while 2(p-1)^2 fits,
    and Python integers past that; over GF(p^a) it is int64. A [9, 4] code
    on each side of every switch, its H with large entries, a column in the
    span of two others and one a multiple of another, against the
    reference ranks."""
    f, rng = field_make(p, alpha), random.Random(p * alpha)
    cols = [[rng.randrange(f.order) for _ in range(5)] for _ in range(7)]
    a, b, c = (rng.randrange(1, f.order) for _ in range(3))
    cols.append([f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(cols[0], cols[1])])
    cols.append([f.mul(c, x) for x in cols[2]])
    rng.shuffle(cols)
    code = LinearCode.from_parity_check(Matrix(f, [list(row) for row in zip(*cols)]))
    assert code._eliminator("H")[0].dtype == dtype
    for w in (2, 3):
        check_column_eliminations(code, rng, w)
    check_column_eliminations(code.dual(), rng, 2)


def random_matrix(data, field, rows, cols):
    # small entries are frequent, so products meet zeros and carries
    entry = st.one_of(st.integers(0, 2), st.integers(0, field.order - 1))
    return Matrix(field, [[data.draw(entry) % field.order for _ in range(cols)]
                          for _ in range(rows)], rows, cols)


@PROPERTY
@given(st.sampled_from(FIELDS + [(5, 7)]), st.data())
def test_mat_mul_matches_reference(field, data):
    """mat_mul against the scalar loop, shapes with 0 rows, 0 inner and 0
    columns included, one operand drawn over GF(q) and the other over
    GF(q^ell) (ell <= 3, alpha ell <= 8) in either order: over two different
    fields it raises FieldMismatch, and with the GF(q) operand embedded by
    `embed_array` it equals the reference."""
    base = field_make(*field)
    ell = data.draw(st.integers(1, min(3, 8 // base.alpha)))
    ext = base.extension(ell)
    fields = [base, ext]
    if data.draw(st.booleans()):
        fields.reverse()
    r, k, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    A = random_matrix(data, fields[0], r, k)
    B = random_matrix(data, fields[1], k, c)
    if ext is not base:
        with pytest.raises(FieldMismatch):
            mat_mul(A, B)
    A, B = lifted(A, ext), lifted(B, ext)
    assert mat_mul(A, B) == mat_mul_reference(A, B)


@PROPERTY
@given(st.sampled_from(FIELDS + [(5, 2), (5, 7)]), st.data())
def test_sub_array_matches_sub(field, data):
    """The array subtraction equals the scalar `sub` elementwise: XOR in
    characteristic 2, a difference mod p over GF(p) and digit by digit over
    GF(p^a) (GF(9), GF(25) and the table-less GF(5^7))."""
    f = field_make(*field)
    size = data.draw(st.integers(0, 24))
    a, b = (data.draw(st.lists(st.integers(0, f.order - 1), min_size=size, max_size=size))
            for _ in range(2))
    got = f.sub_array(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [f.sub(x, y) for x, y in zip(a, b)]


@pytest.mark.parametrize("field", [(2, 4), (3, 2)])
def test_mat_mul_over_several_row_blocks(field):
    """A product of more than MATMUL_CHUNK terms is gathered over row blocks;
    here two full blocks and a partial one."""
    f = field_make(*field)
    rng = random.Random(5)
    r, k, c = 1500, 8, 12
    assert 2 * MATMUL_CHUNK < r * k * c < 3 * MATMUL_CHUNK
    A = Matrix(f, [[rng.randrange(f.order) for _ in range(k)] for _ in range(r)])
    B = Matrix(f, [[rng.randrange(f.order) for _ in range(c)] for _ in range(k)])
    assert mat_mul(A, B) == mat_mul_reference(A, B)


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (17, 1), (2**31 - 1, 1), (2, 4),
                                   (2, 3), (3, 2), (5, 7)], ids=field_id)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_matmul_matches_slices(field, data):
    """`matmul_array` on stacked operands (..., r, k) and (..., k, c) equals
    the scalar product of every pair of slices, over GF(2), GF(p), GF(2^a),
    GF(p^a), GF(2^31 - 1) (Python integers once k >= 3) and the table-less
    GF(5^7). Up to two leading dimensions of size 0 to 3, which an operand
    may leave out or give size 1 (broadcast as by `@`); r, k, c from 1 to 4."""
    f = field_make(*field)
    entry = st.one_of(st.integers(0, 2), st.integers(0, f.order - 1))
    lead = data.draw(st.lists(st.integers(0, 3), max_size=2))

    def operand(rows, cols):
        dims = [data.draw(st.sampled_from([size, 1])) for size in lead]
        shape = tuple(dims[data.draw(st.integers(0, len(dims))):]) + (rows, cols)
        flat = data.draw(st.lists(entry, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))
        return np.array(flat, dtype=np.int64).reshape(shape)

    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    check_slices(f, operand(r, k), operand(k, c))


def check_slices(f, a, b):
    """`matmul_array(a, b)` is an int64 (..., r, c) array, the leading
    dimensions broadcast as by `@`, and each slice is the scalar product of
    its pair of slices (`mat_mul_reference`)."""
    (r, k), c = a.shape[-2:], b.shape[-1]
    got = f.matmul_array(a, b)
    both = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    assert got.dtype == np.int64 and got.shape == both + (r, c)
    a, b = np.broadcast_to(a, both + (r, k)), np.broadcast_to(b, both + (k, c))
    for idx in np.ndindex(*both):
        want = mat_mul_reference(Matrix(f, a[idx].tolist(), r, k),
                                 Matrix(f, b[idx].tolist(), k, c))
        assert got[idx].tolist() == want.array().tolist(), idx


# GF(p^a) fields of the lane-packed product; GF(257^2) has no log/exp tables
LANE_FIELDS = [(2, 2), (2, 4), (2, 8), (3, 3), (3, 8), (13, 2), (257, 2)]


def lane_bound(f) -> int:
    """The least inner size k with k (p - 1)^2 >= 2^W, W = 64 // alpha: a
    lane of k digit products could carry into the next from here on."""
    return -(-(1 << 64 // f.alpha) // (f.p - 1) ** 2)


@pytest.mark.parametrize("field", LANE_FIELDS, ids=field_id)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_prime_operand_products_match_reference(field, data):
    """A product over GF(p^a) with one operand over the prime field GF(p)
    (the lane-packed product) and the other over the whole field, the prime
    operand on either side: stacked and broadcast as in
    `test_stacked_matmul_matches_slices`, with r and c from 1 to 4 and k
    from 0 to 6."""
    f = field_make(*field)
    prime_left = data.draw(st.booleans())
    lead = data.draw(st.lists(st.integers(0, 3), max_size=2))

    def operand(rows, cols, prime):
        entry = (st.integers(0, f.p - 1) if prime else
                 st.one_of(st.integers(0, f.order - 1), st.just(f.order - 1)))
        dims = [data.draw(st.sampled_from([size, 1])) for size in lead]
        shape = tuple(dims[data.draw(st.integers(0, len(dims))):]) + (rows, cols)
        flat = data.draw(st.lists(entry, min_size=math.prod(shape),
                                  max_size=math.prod(shape)))
        return np.array(flat, dtype=np.int64).reshape(shape)

    r, c = (data.draw(st.integers(1, 4)) for _ in range(2))
    k = data.draw(st.integers(0, 6))
    check_slices(f, operand(r, k, prime_left), operand(k, c, not prime_left))


@pytest.mark.parametrize("field", [(2, 8), (3, 8)], ids=field_id)
@pytest.mark.parametrize("prime_left", [True, False])
def test_prime_operand_products_at_the_lane_bound(field, prime_left):
    """Inner sizes 0 and bound - 1, bound, bound + 1 (255, 256, 257 over
    GF(2^8); 63, 64, 65 over GF(3^8)). One row and one column are all
    largest entries, p - 1 against q - 1 (every digit p - 1), so their lanes
    reach (bound - 1)(p - 1)^2 < 2^W and would carry from the bound on; the
    other row and column are random."""
    f = field_make(*field)
    bound = lane_bound(f)
    rng = np.random.default_rng(bound)
    for k in (0, bound - 1, bound, bound + 1):
        prime = np.full((2, k), f.p - 1, dtype=np.int64)
        prime[1] = rng.integers(0, f.p, k)
        other = np.full((k, 2), f.order - 1, dtype=np.int64)
        other[:, 1] = rng.integers(0, f.order, k)
        a, b = (prime, other) if prime_left else (other.T, prime.T)
        check_slices(f, a, b)
        check_slices(f, np.stack([a, a[::-1]]), b)


@pytest.mark.parametrize("field", [(2, 4), (3, 2)], ids=field_id)
def test_stacked_matmul_over_blocks_across_slices(field):
    """A stacked product of more than MATMUL_CHUNK terms is gathered in row
    blocks of the stacked rows, which here end inside a slice; every slice
    equals its own product."""
    f = field_make(*field)
    rng = np.random.default_rng(5)
    size, r, k, c = 3, 700, 8, 12
    assert 3 * MATMUL_CHUNK < size * r * k * c and (MATMUL_CHUNK // (k * c)) % r
    a = rng.integers(0, f.order, size=(size, r, k))
    b = rng.integers(0, f.order, size=(size, k, c))
    got = f.matmul_array(a, b)
    for s in range(size):
        want = mat_mul_reference(Matrix(f, a[s].tolist()), Matrix(f, b[s].tolist()))
        assert got[s].tolist() == want.array().tolist(), s


@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 4), (5, 7)], ids=field_id)
@pytest.mark.parametrize("shapes", [((2, 3), (1, 4)), ((2, 1), (3, 4)),
                                    ((5, 2, 3), (5, 2, 4))])
def test_matmul_array_rejects_unequal_inner_sizes(field, shapes):
    """An inner size of 1 on one side would broadcast through the log/exp
    gather into a wrong product; every regime raises instead."""
    f = field_make(*field)
    a, b = (np.ones(shape, dtype=np.int64) for shape in shapes)
    with pytest.raises(DimensionMismatch):
        f.matmul_array(a, b)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_mat_mul_exact_over_a_large_prime(k):
    """Over GF(2^31 - 1) a sum of k >= 3 products of int64 operands passes
    2^63; the product switches to Python integers and stays exact."""
    f = field_make(2**31 - 1)
    top = f.order - 1
    A = Matrix(f, [[top] * k, list(range(top, top - k, -1))])
    B = Matrix(f, [[top, 1, top - 7] for _ in range(k)])
    assert mat_mul(A, B) == mat_mul_reference(A, B)
    assert mat_mul(A, B).array()[0, 0] == k  # k (p-1)^2 = k (-1)^2


@PROPERTY
@given(codes(FIELDS + [(5, 7)]), st.data())
def test_encode_matches_mat_mul(code, data):
    """encode, on an int64 array of messages over GF(q), is the scalar
    product m G."""
    rows = data.draw(st.integers(0, 6))
    message = random_matrix(data, code.field, rows, code.k)
    words = code.encode(message.array())
    assert words.tolist() == mat_mul_reference(message, code.G).array().tolist()


def brute_codewords(code):
    """Every codeword m G by the scalar product, m_0 varying fastest."""
    msgs = [list(reversed(m))
            for m in itertools.product(range(code.field.order), repeat=code.k)]
    words = mat_mul_reference(Matrix(code.field, msgs, len(msgs), code.k), code.G)
    return [tuple(cw) for cw in words.array().tolist()]


@PROPERTY
@given(codes(FIELDS, max_messages=BRUTE_LIMIT))
# two message symbols over GF(9): sums of products carry between digits
@example(code_from_generator(Matrix(field_make(3, 2), [[1, 0, 5, 7], [0, 1, 3, 8]])))
def test_min_distance_and_codewords_match_brute_force(code):
    words = brute_codewords(code)
    want = min(sum(1 for x in cw if x) for cw in words if any(cw))
    assert code.min_distance() == want
    # the same code without enumeration: the column-dependency search
    assert code._min_distance_column_search(budget=COLUMN_SEARCH_BUDGET) == want


@PROPERTY
@given(codes([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)], max_messages=64),
       st.data())
def test_decode_erasures_matches_brute_force(code, data):
    """For every E of size <= n - k, against the codewords that agree with a
    drawn word off E: dependent columns of H at E raise NotCorrectable, one
    agreeing codeword is returned, none raises DecodeFailure."""
    words = all_codewords(code)
    symbol = st.integers(0, code.field.order - 1)
    # a codeword with a few symbols overwritten, so that both outcomes occur
    word = list(data.draw(st.sampled_from(words)))
    for j in data.draw(st.lists(st.integers(0, code.n - 1), max_size=2)):
        word[j] = data.draw(symbol)
    for w in range(code.n - code.k + 1):
        for erased in itertools.combinations(range(code.n), w):
            known = [j for j in range(code.n) if j not in erased]
            agree = [list(cw) for cw in words
                     if all(cw[j] == word[j] for j in known)]
            if rank_reference(columns(code.H, erased)) < w:
                with pytest.raises(NotCorrectable):
                    code.decode_erasures([word], erased)
            elif agree:
                assert code.decode_erasures([word], erased).tolist() == agree, erased
            else:
                with pytest.raises(DecodeFailure):
                    code.decode_erasures([word], erased)


@PROPERTY
@given(codes([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)], max_n=6),
       st.integers(1, 3), st.data())
def test_compiled_decoders_match_reference(code, ell, data):
    """Batches of words over GF(q^ell), each a codeword with up to two symbols
    overwritten, against the per-word solves. For every E with
    |E| <= n - k + 1 (so dependent patterns occur), the batch decodes to the
    reference's words, or raises the class of the first word the reference
    fails on (NotCorrectable for the pattern; DecodeFailure naming that word
    otherwise). For every k-set I, the batch solve on the words' symbols at I
    matches the reference, or both raise RankDeficient."""
    field = code.field.extension(ell)
    symbol = st.integers(0, field.order - 1)
    batch = []
    for _ in range(data.draw(st.integers(1, 4))):
        message = np.array([[data.draw(symbol) for _ in range(code.k)]], dtype=np.int64)
        word = code.encode(message, field).tolist()[0]
        for j in data.draw(st.lists(st.integers(0, code.n - 1), max_size=2)):
            word[j] = data.draw(symbol)
        batch.append(word)
    for w in range(min(code.n, code.n - code.k + 1) + 1):
        for erased in itertools.combinations(range(code.n), w):
            want, failure = [], None
            for i, word in enumerate(batch):
                try:
                    want.append(decode_erasures_reference(code, word, erased, field))
                except DecodeFailure as exc:
                    failure = (type(exc), i)
                    break
            if failure is None:
                assert code.decode_erasures(batch, erased, field).tolist() == want
                continue
            with pytest.raises(DecodeFailure) as raised:
                code.decode_erasures(batch, erased, field)
            assert type(raised.value) is failure[0], erased
            if failure[0] is DecodeFailure:
                assert raised.value.word == failure[1], erased
    for coords in itertools.combinations(range(code.n), code.k):
        values = [[word[j] for j in coords] for word in batch]
        try:
            want = [message_from_information_set_reference(code, coords, v, field)
                    for v in values]
        except RankDeficient:
            with pytest.raises(RankDeficient):
                code.message_from_information_set(coords, values, field)
            continue
        got = code.message_from_information_set(coords, values, field)
        assert got.tolist() == want, coords


@PROPERTY
@given(codes(FIELDS + [(5, 7)]), st.integers(0, 2**32 - 1), st.data())
def test_information_sets_match_rref(code, seed, data):
    """The G-kernel predicates against rank and RREF pivots of G's columns
    (`rank_reference`, `rref_reference`)."""
    for w in range(code.n + 1):
        for coords in itertools.combinations(range(code.n), w):
            full = rank_reference(columns(code.G, coords)) == code.k
            assert code.contains_information_set(coords) == full, coords
            assert code.is_information_set(coords) == (full and w == code.k), coords
    assert code.information_set() == tuple(rref_reference(code.G)[1])
    perm = list(range(code.n))
    random.Random(seed).shuffle(perm)
    _, pivots = rref_reference(columns(code.G, perm))
    want = tuple(sorted(perm[c] for c in pivots))
    assert code.random_information_set(random.Random(seed)) == want
    order = data.draw(st.permutations(range(code.n)))[:data.draw(st.integers(0, code.n))]
    _, pivots = rref_reference(columns(code.G, order))
    assert code.information_columns(order) == [order[c] for c in pivots]


@PROPERTY
@given(codes(FIELDS), st.data())
def test_contains_codewords_matches_stacked_rank(code, data):
    """Words lie in the code iff stacking them under G keeps rank k; a
    permutation is an automorphism iff the permuted G stacks to rank k."""
    f = code.field
    symbol = st.integers(0, f.order - 1)
    words = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            message = Matrix(f, [[data.draw(symbol) for _ in range(code.k)]])
            words.append(mat_mul_reference(message, code.G).array()[0].tolist())
        else:
            words.append([data.draw(symbol) for _ in range(code.n)])
    rows = code.G.array().tolist()
    stacked = Matrix(f, rows + words, code.k + len(words), code.n)
    assert code.contains_codewords(words) == (rank_reference(stacked) == code.k)
    perm = data.draw(st.permutations(range(code.n)))
    permuted = [[0] * code.n for _ in range(code.k)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            permuted[i][perm[j]] = x
    stacked = Matrix(f, rows + permuted, 2 * code.k, code.n)
    assert code.is_automorphism(perm) == (rank_reference(stacked) == code.k)


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.integers(1, 5), st.data())
def test_mds_parity_check_matches_subset_ranks(field, m, width, data):
    """(left | I) is MDS iff every m of its columns have rank m."""
    f = field_make(*field)
    left = [[data.draw(st.integers(0, f.order - 1)) for _ in range(width)]
            for _ in range(m)]
    h = Matrix(f, [row + [int(t == i) for t in range(m)] for i, row in enumerate(left)],
               m, width + m)
    want = all(rank_reference(columns(h, cols)) == m
               for cols in itertools.combinations(range(width + m), m))
    assert _is_mds_parity_check(f, left, width) == want


@pytest.mark.parametrize("p,alpha", [f for f in FIELDS if f[1] > 1] + [(2, 8), (3, 5)])
def test_tabled_mul_matches_sympy(p, alpha):
    """mul on the log/exp tables against sympy's gf_mul then gf_rem by the
    canonical modulus, which sympy also finds irreducible."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem, gf_strip
    f = field_make(p, alpha)
    assert f._exp is not None
    modulus = list(reversed(f.modulus))  # sympy lists coefficients high to low
    assert gf_irreducible_p(modulus, p, ZZ)
    if f.order <= 16:
        pairs = list(itertools.product(range(f.order), repeat=2))
    else:
        rng = random.Random(p * alpha)
        pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(500)]
        pairs += [(0, f.order - 1), (1, f.order - 1), (f.order - 1, f.order - 1)]
    for a, b in pairs:
        prod = gf_mul(gf_strip(list(reversed(f.to_digits(a)))),
                      gf_strip(list(reversed(f.to_digits(b)))), p, ZZ)
        assert f.mul(a, b) == f.from_digits(reversed(gf_rem(prod, modulus, p, ZZ))), (a, b)


@pytest.mark.parametrize("p,alpha", [(5, 7), (7, 6), (17, 4)])
def test_tableless_mul_matches_sympy(p, alpha):
    """mul by polynomial multiplication modulo the canonical modulus, on the
    fields above 2^16 elements that have no log/exp tables, against sympy's
    gf_mul then gf_rem."""
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem, gf_strip
    f = field_make(p, alpha)
    assert f._exp is None
    modulus = list(reversed(f.modulus))  # sympy lists coefficients high to low
    rng = random.Random(p * alpha)
    pairs = [(rng.randrange(f.order), rng.randrange(f.order)) for _ in range(300)]
    pairs += [(0, f.order - 1), (1, f.order - 1), (f.order - 1, f.order - 1)]
    for a, b in pairs:
        prod = gf_mul(gf_strip(list(reversed(f.to_digits(a)))),
                      gf_strip(list(reversed(f.to_digits(b)))), p, ZZ)
        assert f.mul(a, b) == f.from_digits(reversed(gf_rem(prod, modulus, p, ZZ))), (a, b)


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7, 13, 17]), st.integers(0, 6),
       st.integers(0, 7), st.data())
def test_rank_and_rref_match_sympy(p, rows, cols, data):
    """The list reference `rref_reference`, and mat_rank and mat_rref, over
    GF(p) against sympy's DomainMatrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    entry = st.one_of(st.integers(0, 1), st.integers(0, p - 1))
    entries = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    K = sympy.GF(p)
    dm = DomainMatrix([[K(x) for x in row] for row in entries], (rows, cols), K)
    red_want, pivots_want = dm.rref()
    M = Matrix(field_make(p), entries, rows, cols)
    want = [[int(x) % p for x in row] for row in red_want.to_list()]
    assert rref_reference(M) == (want, list(pivots_want))
    red, pivots = mat_rref(M)
    assert mat_rank(M) == dm.rank() == len(pivots_want)
    assert pivots == list(pivots_want)
    assert red.array().tolist() == want


@PROPERTY
@given(st.sampled_from(FIELDS + [(5, 7), (2**31 - 1, 1)]), st.integers(0, 6),
       st.integers(0, 7), st.data())
def test_elimination_matches_reference(field, rows, cols, data):
    """The array elimination (`rref_array`) and what is read off it
    (`null_space_array`, `inverse_array`, `mat_rank`, `mat_rref`,
    `mat_solve`) against the list reference, on every field the suite uses,
    GF(2^31 - 1) and the table-less GF(5^7) included, 0-row and 0-column
    inputs included."""
    f = field_make(*field)
    M = random_matrix(data, f, rows, cols)
    want_red, want_pivots = rref_reference(M)
    red, pivots = f.rref_array(M.array())
    assert red.dtype == np.int64 and red.shape == (rows, cols)
    assert (red.tolist(), pivots) == (want_red, want_pivots)
    assert mat_rref(M) == (Matrix(f, want_red, rows, cols), want_pivots)
    assert mat_rank(M) == len(want_pivots)
    null = f.null_space_array(M.array())
    assert null.shape == (cols - len(want_pivots), cols)
    assert null.tolist() == null_space_reference(M)
    b = random_matrix(data, f, rows, 1)
    try:
        want = solve_reference(M, b.array()[:, 0].tolist())
    except RankDeficient:
        with pytest.raises(RankDeficient):
            mat_solve(M, b)
    else:
        assert mat_solve(M, b).array().tolist() == [[x] for x in want]
    if rows == cols:
        try:  # the columns of M^-1
            want = [solve_reference(M, col) for col in np.eye(rows, dtype=int).tolist()]
        except RankDeficient:
            with pytest.raises(RankDeficient):
                f.inverse_array(M.array())
        else:
            assert f.inverse_array(M.array()).T.tolist() == want
