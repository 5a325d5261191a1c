import dataclasses
import itertools
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from codedpir.audit import chi2_sf
from codedpir.codes import LinearCode, code_from_generator
from codedpir.errors import DecodeFailure, DimensionMismatch, NotCorrectable, RankDeficient
from codedpir.families import grs_code
from codedpir.fields import Matrix, field_make
from codedpir.protocol1 import p1_plan, p1_symmetry_audit
from codedpir.ratematrix import ErasureMatrix, interference_matrices
from codedpir.rng import derive_seed, rng_for

# (p, alpha) of the fields the kernel properties draw codes over
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (13, 1),
          (2, 4), (17, 1)]

GOOD_G = [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]
BAD_G = [[1, 0, 0, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]
H73 = [[0, 1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 1, 0, 0],
       [1, 1, 0, 0, 0, 1, 0], [1, 1, 1, 0, 0, 0, 1]]
# systematic generator matching the published code array (c_4 = x_2 + x_3, ...)
G73 = [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 1, 0, 1]]
H124 = [[0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]]

# the structure pair of the first file-independent worked example
EHAT_EX5 = [[1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0]]
ISETS_EX5 = [[0, 1, 2], [0, 1, 2]]
# and of the [7,3,4] one
EHAT_EX6 = [[0, 0, 1, 1, 1, 1, 0], [1, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1, 1]]
ISETS_EX6 = [[2, 3, 5], [1, 5, 6], [0, 2, 3], [0, 4, 5]]

LAM35 = [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
         (0, 1, 1, 1, 0), (1, 0, 1, 0, 1)]
LAM23 = [(0, 1, 1, 1, 1), (1, 0, 0, 1, 1), (1, 1, 1, 0, 0)]

# structure of the colluding worked example (0-based)
EHAT_P3 = [(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
           (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)]
ISETS_P3 = [(1, 2, 8, 11)]

# a query code zero at position 4 (so T = 0), with a storage code and a
# structure that the repetition query code accepts
STORAGE_T0 = [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]
QUERY_T0 = [[1, 1, 1, 1, 0]]
EHAT_T0 = [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
ISETS_T0 = [(1, 3, 4)]


@st.composite
def codes(draw, fields, max_messages=None, max_n=8, n=None, redundant=False):
    """[n,k] code over one of `fields` ((p, alpha) pairs) from a generator
    [I_k | A] with its columns permuted, so every drawn generator has full
    rank and every code can be drawn. n is drawn from 2..max_n unless given;
    `redundant` draws only k < n."""
    field = field_make(*draw(st.sampled_from(fields)))
    if n is None:
        n = draw(st.integers(2, max_n))
    k_max = n - 1 if redundant else n
    if max_messages is not None:
        while field.order ** k_max > max_messages:
            k_max -= 1
    k = draw(st.integers(1, k_max))
    # small entries are frequent, so dependent columns occur in every field
    entry = st.one_of(st.integers(0, 2), st.integers(0, field.order - 1))
    extra = [[draw(entry) for _ in range(n - k)] for _ in range(k)]
    rows = [[1 if i == j else 0 for j in range(k)] + extra[i] for i in range(k)]
    perm = draw(st.permutations(range(n)))
    generator = [[row[perm[j]] for j in range(n)] for row in rows]
    return code_from_generator(Matrix(field, generator))


def full_support(code) -> LinearCode:
    """`code` with its first generator row set to 1 wherever every row is 0:
    a code of the same dimension that is zero at no position (as a query
    code, one zero at some position has T = 0 and is refused)."""
    rows = code.G.array().copy()
    rows[0, ~rows.any(axis=0)] = 1
    return code_from_generator(Matrix(code.field, rows))


def no_weight_one(code) -> LinearCode:
    """`code` with the first row of H set to 1 wherever H's column is zero:
    a code of the same dimension with no weight-1 codeword (d_min >= 2),
    whose every position some correctable pattern can erase."""
    rows = code.H.array().copy()
    rows[0, ~rows.any(axis=0)] = 1
    return LinearCode.from_parity_check(Matrix(code.field, rows))


def all_codewords(code) -> list[tuple[int, ...]]:
    """Every codeword m G, message digit m_0 varying fastest, encoded in one
    call (tiny codes only: q^k words)."""
    msgs = [m[::-1] for m in itertools.product(range(code.field.order), repeat=code.k)]
    words = code.encode(np.array(msgs, dtype=np.int64).reshape(len(msgs), code.k))
    return [tuple(w) for w in words.tolist()]


def lifted(M, ext) -> Matrix:
    """M with its entries embedded into the extension field `ext` by
    `embed_array`."""
    return Matrix.from_array(ext, ext.embed_array(M.array(), M.field))


def columns(M, cols) -> Matrix:
    """The columns `cols` of a `Matrix`, in that order, as a `Matrix`."""
    return Matrix.from_array(M.field, M.array()[:, list(cols)])


def transposed(M) -> Matrix:
    """The transpose of a `Matrix`."""
    return Matrix.from_array(M.field, M.array().T)


def column(field, entries) -> Matrix:
    """The column vector of `entries` over `field`, as a `Matrix`."""
    return Matrix(field, [[e] for e in entries])


def mat_mul_reference(A, B):
    """Reference for `mat_mul`: the scalar triple loop over the field's `add`
    and `mul` (both operands over that one field)."""
    f = A.field
    assert B.field is f, (A.field, B.field)
    out = [[0] * B.cols for _ in range(A.rows)]
    b = B.array().tolist()
    for i, arow in enumerate(A.array().tolist()):
        for j in range(B.cols):
            acc = 0
            for x, brow in zip(arow, b):
                if x and brow[j]:
                    acc = f.add(acc, f.mul(x, brow[j]))
            out[i][j] = acc
    return Matrix(f, out, A.rows, B.cols)


def rref_reference(M) -> tuple[list[list[int]], list[int]]:
    """Reference for `FiniteField.rref_array`: Gauss-Jordan over the rows of
    a `Matrix` as lists, one entry at a time with the field's `inv`, `mul` and
    `sub`. Returns the reduced rows and the pivot columns in order."""
    f = M.field
    a = M.array().tolist()
    rows, cols = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = f.inv(a[r][c])
        if inv != 1:
            a[r] = [f.mul(inv, x) for x in a[r]]
        arow = a[r]
        for i in range(rows):
            if i != r and a[i][c]:
                coef, irow = a[i][c], a[i]
                for j in range(c, cols):
                    if arow[j]:
                        irow[j] = f.sub(irow[j], f.mul(coef, arow[j]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank_reference(M) -> int:
    """The rank of a `Matrix` by `rref_reference`."""
    return len(rref_reference(M)[1])


def hadamard_product_reference(a, b) -> list[list[int]]:
    """Reference for `hadamard_product`'s generator: every row of a's G times
    every row of b's G, position by position by the field's `mul`, and the
    nonzero rows of their `rref_reference` (the reduced form is unique)."""
    f = a.field
    rows = [[f.mul(x, y) for x, y in zip(ra, rb)]
            for ra in a.G.array().tolist() for rb in b.G.array().tolist()]
    red, pivots = rref_reference(Matrix(f, rows, len(rows), a.n))
    return red[:len(pivots)]


def null_space_reference(M) -> list[list[int]]:
    """Rows spanning {x : M x^T = 0} by `rref_reference`: per free column c,
    the unit vector at c minus column c of the reduced rows at the pivots."""
    f = M.field
    red, pivots = rref_reference(M)
    basis = []
    for c in (c for c in range(M.cols) if c not in pivots):
        vec = [0] * M.cols
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(red[r][c])
        basis.append(vec)
    return basis


def solve_reference(A, b) -> list[int]:
    """The unique x with A x = b (a list) by `rref_reference` on [A b];
    RankDeficient if there is none or more than one."""
    rows = [row + [x] for row, x in zip(A.array().tolist(), b)]
    red, pivots = rref_reference(Matrix(A.field, rows, A.rows, A.cols + 1))
    if A.cols in pivots or len(pivots) < A.cols:
        raise RankDeficient("no unique solution")
    return [red[c][A.cols] for c in range(A.cols)]


def decode_erasures_reference(code, word, erased, value_field=None) -> list[int]:
    """Reference for `decode_erasures` on one word: the syndrome of the word
    with E zeroed, then one solve of H_E x = -H_K y_K over the words' field
    (H embedded into it). NotCorrectable when H's columns at E are dependent,
    DecodeFailure when the solve is inconsistent."""
    field = value_field or code.field
    erased = sorted(set(int(j) for j in erased))
    if rank_reference(columns(code.H, erased)) < len(erased):
        raise NotCorrectable(f"pattern {erased} not correctable")
    out = [0 if j in erased else x for j, x in enumerate(word)]
    H = lifted(code.H, field)
    syndrome = mat_mul_reference(H, column(field, out)).array()[:, 0].tolist()
    try:  # H_E (-x) = H_K y_K
        sol = solve_reference(columns(H, erased), syndrome)
    except RankDeficient as exc:
        raise DecodeFailure("no codeword agrees with the word off E") from exc
    for j, x in zip(erased, sol):
        out[j] = field.neg(x)
    return out


def message_from_information_set_reference(code, coords, values, value_field) -> list[int]:
    """Reference for `message_from_information_set` on one word: the solve of
    m G|_I = values over `value_field` (G embedded into it; RankDeficient
    unless the solution exists and is unique)."""
    sub = transposed(lifted(columns(code.G, coords), value_field))
    return solve_reference(sub, list(values))


class P1Atom(NamedTuple):
    """One requested symbol sum: sum over `terms` of y^(file)_(row) at a node."""

    kind: str                      # "desired1" | "undesired" | "desired"
    rep: int                       # repetition, 1..kappa
    rnd: int                       # round, 1..f
    subset: tuple[int, ...]        # side-information files (empty for desired1)
    terms: tuple[tuple[int, int], ...]  # (file 1-based, logical row 1-based), by file
    block: int = -1                # the atom's aligned-sum group (if any)
    srow: int = -1                 # B-row index used (desired atoms)


def p1_schedule_reference(code, lam, f: int, m: int) -> tuple[int, tuple]:
    """Reference for protocol 1's schedule: (beta, node_atoms), every node's
    canonical atom list built one (atom, node) at a time. Per repetition,
    round 1 asks each node for kappa^(f-1) rows of file m; then, per
    side-information size s, every aligned-sum group of that size (each
    s-subset of the undesired files, kappa^(f-s-1) (nu-kappa)^(s-1) times)
    takes each of its files' next own block of nu rows, asked as the kappa
    rows A[:, j] (round s) and as nu - kappa sums of a new desired row with
    the rows B[:, j] (round s + 1)."""
    kappa, nu = lam.kappa, lam.nu
    if f < 1 or not 1 <= m <= f or (kappa == nu and f > 1):
        raise DimensionMismatch(f"no schedule for f={f}, m={m}, kappa={kappa}, nu={nu}")
    n, beta = code.n, nu ** f
    ab = interference_matrices(lam)
    A, B = ab.A, ab.B
    others = [x for x in range(1, f + 1) if x != m]
    kf1 = kappa ** (f - 1)
    node_atoms = [[] for _ in range(n)]
    block = dict.fromkeys(others, 0)  # each undesired file's next row block
    groups = 0
    for i, a in enumerate(A, 1):
        for s in range(1, kf1 + 1):
            for j in range(n):
                node_atoms[j].append(P1Atom("desired1", i, 1, (),
                                            ((m, kf1 * (a[j] - 1) + s),)))
        mu = kf1  # next desired row block
        for size in range(1, f):
            layout = []  # (group, subset, (file, row before its block) per file)
            for subset in itertools.combinations(others, size):
                for _ in range(kappa ** (f - size - 1) * (nu - kappa) ** (size - 1)):
                    layout.append((groups, subset, tuple((x, block[x] * nu) for x in subset)))
                    groups += 1
                    for x in subset:
                        block[x] += 1
            for g, subset, starts in layout:
                for t in range(kappa):
                    for j in range(n):
                        terms = tuple((x, r + A[t][j]) for x, r in starts)
                        node_atoms[j].append(P1Atom("undesired", i, size, subset, terms,
                                                    block=g))
            for g, subset, starts in layout:
                for srow in range(1, nu - kappa + 1):
                    for j in range(n):
                        terms = [(x, r + B[srow - 1][j]) for x, r in starts]
                        terms = tuple(sorted(terms + [(m, mu * nu + a[j])]))
                        node_atoms[j].append(P1Atom("desired", i, size + 1, subset, terms,
                                                    block=g, srow=srow))
                    mu += 1
    return beta, tuple(tuple(atoms) for atoms in node_atoms)


def p1_atoms(plan) -> tuple:
    """The reference schedule's atoms of `plan`'s (code, Lambda, f, m)."""
    return p1_schedule_reference(plan.code, plan.lam, plan.f, plan.m)[1]


def p1_atom_rows(atom, f: int) -> list[int]:
    """An atom as a row of the array schedule: file x's logical row at
    index x - 1, 0 for a file not in the sum."""
    rows = [0] * f
    for x, row in atom.terms:
        rows[x - 1] = row
    return rows


def p1_symmetry_audit_with_repeat(plan):
    """`p1_symmetry_audit` of `plan` with node 0 asking for its last sum again
    in place of the sum before it, for tests of what the audits do with a
    schedule that repeats rows."""
    rows = plan.rows.copy()
    rows[0, -2] = rows[0, -1]
    return p1_symmetry_audit(dataclasses.replace(plan, rows=rows))


def file_rows(decoded) -> list[list[int]]:
    """A decoded file's rows as lists: a decoder's (beta, k) array's
    `.tolist()`, a reference decode's `Matrix` as lists."""
    return (decoded.array() if isinstance(decoded, Matrix) else decoded).tolist()


def p1_decode_reference(plan, responses, msg_field) -> Matrix:
    """Reference for `p1_decode`: the per-atom decode. Each call sorts every
    atom's answer into dicts of aligned side-information sums and desired
    stripes, decodes the sums in one batch per set of missing nodes, cancels
    them from the higher-round desired sums, solves the stripes known at the
    same nodes on an information set among them and checks every stripe on
    all its known coordinates in one encode."""
    code = plan.code
    n, k = code.n, code.k
    nu, B = plan.lam.nu, interference_matrices(plan.lam).B
    if len(responses) != n or any(len(r) != plan.d for r in responses):
        raise DecodeFailure("incomplete responses")
    canonical = [[0] * plan.d for _ in range(n)]
    for j in range(n):
        for pos, idx in enumerate(plan.shuffles[j]):
            canonical[j][idx] = responses[j][pos]

    node_atoms = p1_atoms(plan)
    aligned_coords: dict[tuple, dict[int, int]] = {}
    desired_coords: dict[int, dict[int, int]] = {}
    for j in range(n):
        for idx, atom in enumerate(node_atoms[j]):
            value = canonical[j][idx]
            if atom.kind == "undesired":
                u = (atom.terms[0][1] - 1) % nu + 1
                aligned_coords.setdefault((atom.subset, atom.block, u), {})[j] = value
            elif atom.kind == "desired1":
                desired_coords.setdefault(atom.terms[0][1], {})[j] = value
    by_missing: dict[tuple[int, ...], list[tuple]] = {}
    for key, coords in aligned_coords.items():
        missing = tuple(j for j in range(n) if j not in coords)
        by_missing.setdefault(missing, []).append(key)
    aligned_full: dict[tuple, list[int]] = {}
    for missing, keys in by_missing.items():
        words = [[aligned_coords[key].get(j, 0) for j in range(n)] for key in keys]
        aligned_full.update(zip(keys, code.decode_erasures(
            words, missing, msg_field).tolist()))

    for j in range(n):
        for idx, atom in enumerate(node_atoms[j]):
            if atom.kind != "desired":
                continue
            side = aligned_full[(atom.subset, atom.block, B[atom.srow - 1][j])][j]
            desired_coords.setdefault(dict(atom.terms)[plan.m], {})[j] = msg_field.sub(
                canonical[j][idx], side)
    if len(desired_coords) != plan.beta:
        raise DecodeFailure(f"recovered {len(desired_coords)} stripes, expected {plan.beta}")

    by_known: dict[tuple[int, ...], list[int]] = {}
    for row, coords in desired_coords.items():
        by_known.setdefault(tuple(sorted(coords)), []).append(row)
    perm = plan.perms[plan.m - 1]
    decoded = np.zeros((plan.beta, k), dtype=np.int64)
    checks = []
    for known, rows in by_known.items():
        info = code.information_columns(known)
        if len(info) != k:
            raise DecodeFailure(f"coordinates {list(known)} contain no information set")
        values = np.array([[desired_coords[row][j] for j in known] for row in rows],
                          dtype=np.int64).reshape(len(rows), len(known))
        at = [perm[row - 1] for row in rows]
        decoded[at] = code.message_from_information_set(
            info, values[:, [known.index(j) for j in info]], msg_field)
        checks.append((known, rows, at, values))
    words = code.encode(decoded, msg_field)
    for known, rows, at, values in checks:
        if (words[np.ix_(at, known)] != values).any():
            raise DecodeFailure("a stripe disagrees with its known coordinates")
    return Matrix.from_array(msg_field, decoded)


def p1_decode_batched_reference(plan, responses, msg_field) -> Matrix:
    """Reference for `p1_decode`'s stages: the per-batch loop, one
    `decode_erasures` call per batch of words sharing their missing nodes,
    aligned sums first, naming the stripe or aligned sum of the first
    failing word of the first failing batch."""
    code, dmap = plan.code, plan.decode_map
    n = code.n
    if len(responses) != n or any(len(r) != plan.d for r in responses):
        raise DecodeFailure("incomplete responses")
    flat = np.zeros(dmap.words * n, dtype=np.int64)
    flat[dmap.dst[np.arange(n)[:, None], plan.shuffles]] = responses
    words = flat.reshape(dmap.words, n)

    def decode(batches) -> None:
        for missing, rows in batches:
            try:
                words[rows] = code.decode_erasures(words[rows], missing, msg_field)
            except DecodeFailure as exc:
                if exc.word is None:  # NotCorrectable: no word is at fault
                    raise
                row = int(rows[exc.word])
                name = (f"stripe {row + 1}" if row < plan.beta
                        else f"aligned sum {row - plan.beta + 1}")
                raise DecodeFailure(f"{name}: {exc}") from exc

    decode(dmap.sum_batches)
    flat[dmap.cancel] = msg_field.sub_array(flat[dmap.cancel], flat[dmap.side])
    decode(dmap.stripe_batches)
    decoded = np.empty((plan.beta, code.k), dtype=np.int64)
    decoded[plan.perms[plan.m - 1]] = code.message_from_information_set(
        dmap.info, words[:plan.beta, dmap.info], msg_field)
    return Matrix.from_array(msg_field, decoded)


def rank_pattern_list(code, w: int) -> tuple[int, ...]:
    """Reference for the exhaustive pattern list: the support bitmasks of
    every weight-w support from `itertools.combinations` whose columns of H
    have rank w, in ascending order."""
    return tuple(sorted(sum(1 << j for j in support)
                        for support in itertools.combinations(range(code.n), w)
                        if rank_reference(columns(code.H, support)) == w))


def sampled_pattern_list_reference(code, w: int, sample_budget: int,
                                   seed: int) -> tuple[int, ...]:
    """Reference for the sampled pattern list: the same seeded stream read one
    draw at a time (8n bytes of little-endian uint64 column keys, then
    8(n - k) bytes of pick keys, each ordered by Python's stable `sorted`),
    the RREF pivots of H's columns in the keys' column order mapped back
    through it, the pivots at the positions of the w smallest pick keys; each
    new find followed at once by every cyclic shift of it that is not yet
    listed and whose columns of H have rank w, one shift at a time; the
    masks found, in ascending order."""
    n = code.n
    rng = rng_for(seed, "patterns", w)
    found: dict[int, None] = {}
    for _ in range(sample_budget):
        order_keys = _uint64s(rng.randbytes(8 * n))
        pick_keys = _uint64s(rng.randbytes(8 * (n - code.k)))
        perm = sorted(range(n), key=order_keys.__getitem__)
        pivot_cols = [perm[c] for c in rref_reference(columns(code.H, perm))[1]]
        if len(pivot_cols) < w:
            continue
        support = [pivot_cols[i]
                   for i in sorted(range(len(pivot_cols)), key=pick_keys.__getitem__)[:w]]
        mask = sum(1 << j for j in support)
        if mask not in found:
            found[mask] = None
            for shift in range(1, n):
                rotated = (mask << shift | mask >> (n - shift)) & ((1 << n) - 1)
                shifted = [(j + shift) % n for j in support]
                if rotated not in found and rank_reference(columns(code.H, shifted)) == w:
                    found[rotated] = None
    return tuple(sorted(found))


def _uint64s(data: bytes) -> list[int]:
    """The little-endian uint64s of a byte string, one at a time."""
    return [int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8)]


def compute_matrix_bruteforce(lgamma, lnk, d: int, beta: int):
    """Reference oracle for optimizer.compute_matrix: enumerate all row
    multisets (tiny instances only)."""
    if not lgamma or not lnk:
        return None
    n = lgamma.n
    masks_g = sorted(set(lgamma.masks))
    masks_k = sorted(set(lnk.masks))

    def colsum(masks):
        return [sum((m >> j) & 1 for m in masks) for j in range(n)]

    def unmask(msk):
        return tuple(1 if (msk >> j) & 1 else 0 for j in range(n))

    for pick_g in itertools.combinations_with_replacement(masks_g, d):
        cg = colsum(pick_g)
        if any(c > beta for c in cg):
            continue
        for pick_k in itertools.combinations_with_replacement(masks_k, beta):
            ck = colsum(pick_k)
            if all(a + b == beta for a, b in zip(cg, ck)):
                return ErasureMatrix(d=d, beta=beta,
                                     ehat=tuple(unmask(m) for m in pick_g),
                                     ebar=tuple(unmask(m) for m in pick_k))
    return None


def p1_audit_samples_reference(dss, lam, trials: int, seed: int):
    """Reference for the protocol-1 audit's sample collection: rebuild each
    trial's plan and label the file subset of every visible atom, in the
    node's shuffled order. Returns the (f, trials, n, d) labels and their count."""
    n = dss.code.n
    d = p1_plan(dss.code, lam, dss.f, 1, seed).d
    subset_index: dict[tuple, int] = {}
    samples = np.empty((dss.f, trials, n, d), dtype=np.int64)
    for m in range(1, dss.f + 1):
        node_atoms = p1_schedule_reference(dss.code, lam, dss.f, m)[1]
        for t in range(trials):
            child = derive_seed(seed, "audit-p1", m, t)
            plan = p1_plan(dss.code, lam, dss.f, m, child)
            for j in range(n):
                atoms = node_atoms[j]
                for pos, idx in enumerate(plan.shuffles[j]):
                    files = tuple(sorted(mp for mp, _ in atoms[idx].terms))
                    code_idx = subset_index.setdefault(files, len(subset_index))
                    samples[m - 1, t, j, pos] = code_idx
    return samples, len(subset_index)


def query_reference(setup, f: int, m: int, msgs) -> list:
    """Reference for `query_batch` on one draw: the scalar query construction.
    msgs[i][j] is the query-code message of codeword j of subquery i; each
    subquery's batch is encoded by the scalar product and each unit offset is
    added by the field's `add`. Returns node l's d x beta*f query rows."""
    qcode = setup.query_code
    field = qcode.field
    d, bf = setup.d, setup.beta * f
    rows = [[[0] * bf for _ in range(d)] for _ in range(qcode.n)]
    for i in range(d):
        batch = mat_mul_reference(Matrix(field, msgs[i], bf, qcode.k), qcode.G)
        for j, word in enumerate(batch.array().tolist()):
            for l, x in enumerate(word):
                rows[l][i][j] = x
    for l, stripes in enumerate(setup.stripes):
        for i, stripe in enumerate(stripes):
            if stripe is not None:
                col = (m - 1) * setup.beta + stripe
                rows[l][i][col] = field.add(rows[l][i][col], 1)
    return rows


def p3_respond_reference(dss, queries) -> list[list[int]]:
    """Reference for `p3_respond`: one array product per node of its query
    `Matrix` with its stored column, over the message field."""
    field, stored = dss.msg_field, dss.stored
    out = []
    for l, Q in enumerate(queries):
        if Q.cols != len(stored):
            raise DimensionMismatch(f"query of {Q.cols} columns for "
                                    f"{len(stored)} stored stripes")
        out.append(field.matmul_array(field.embed_array(Q.array(), Q.field),
                                      stored[:, l:l + 1]).ravel().tolist())
    return out


def p3_decode_reference(setup, responses, f: int, m: int, msg_field) -> Matrix:
    """Reference for `p3_decode`: the per-symbol decode. Each distinct Ehat
    row's subqueries are erasure-decoded in one batch, every exposed symbol
    rho_l - c_l is read into a dict by the field's `sub`, and each distinct
    information set's stripes are solved from the dict."""
    code = setup.code
    n = code.n
    if len(responses) != n or any(len(r) != setup.d for r in responses):
        raise DecodeFailure("incomplete responses")
    rho = np.array(responses, dtype=np.int64).reshape(n, setup.d).T  # d x n
    subqueries: dict[tuple, list[int]] = {}
    for i, row in enumerate(setup.ehat):
        subqueries.setdefault(row, []).append(i)
    symbols: dict[tuple[int, int], int] = {}
    for row, batch in subqueries.items():
        support = [l for l in range(n) if row[l]]
        words = rho[batch]
        try:
            c_hat = setup.product.decode_erasures(words, support, msg_field)
        except DecodeFailure as exc:
            i = batch[exc.word or 0]
            raise DecodeFailure(f"subquery {i}: {exc}") from exc
        for i, word, decoded in zip(batch, words.tolist(), c_hat.tolist()):
            for l in support:
                stripe = setup.stripes[l][i]
                if stripe is None or (stripe, l) in symbols:
                    raise DecodeFailure("stripe assignment inconsistent")
                symbols[(stripe, l)] = msg_field.sub(word[l], decoded[l])
    stripes: dict[tuple[int, ...], list[int]] = {}
    for t, iset in enumerate(setup.info_sets):
        stripes.setdefault(iset, []).append(t)
    out = np.zeros((setup.beta, code.k), dtype=np.int64)
    for iset, batch in stripes.items():
        try:
            values = [[symbols[(t, l)] for l in iset] for t in batch]
        except KeyError as exc:
            raise DecodeFailure(f"missing symbol for stripe {exc.args[0][0]}") from exc
        out[batch] = code.message_from_information_set(iset, values, msg_field)
    return Matrix.from_array(msg_field, out)


def _homogeneity_p(counts: np.ndarray) -> float:
    """Reference for one chi-square homogeneity test: the p-value of the
    files x values table `counts`, over the values some file shows; 1.0 when
    at most one value is shown."""
    counts = np.asarray(counts, dtype=float)
    keep = counts.sum(axis=0) > 0
    counts = counts[:, keep]
    if counts.shape[1] <= 1:
        return 1.0
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / counts.sum()
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return chi2_sf(stat, dof)


def p23_audit_outcomes_reference(tensors, q: int, sets, threshold: float):
    """Reference for the protocol-2/3 statistical outcomes: one chi-square
    test per (set, subquery i, column j) on the per-file histograms of the
    set's joint symbol, from tensors[g][t, l, i, j] (file g + 1, trial t).
    Returns (set, position, p-value, flagged) in report order."""
    trials, _, d, bf = tensors[0].shape
    out = []
    for tset in sets:
        vmax = q ** len(tset)
        for i in range(d):
            for j in range(bf):
                counts = np.zeros((len(tensors), vmax), dtype=np.int64)
                for g, tensor in enumerate(tensors):
                    joint = np.zeros(trials, dtype=np.int64)
                    for l in tset:
                        joint = joint * q + tensor[:, l, i, j]
                    counts[g] = np.bincount(joint, minlength=vmax)
                p = _homogeneity_p(counts)
                out.append((tuple(tset), f"subquery {i} col {j}", p, p <= threshold))
    return out


def p23_exact_reference(setup, f: int, sets) -> list[bool]:
    """Reference for the protocol-2/3 exact audit: per set, whether its
    per-subquery view has the same distribution for every requested file,
    found by enumerating all (q^kq)^(beta*f) codeword batches of a subquery
    (at most 2^16) and comparing the per-file histograms of the set's symbols."""
    qcode = setup.query_code
    add = qcode.field.add
    bf = setup.beta * f
    space = (qcode.field.order ** qcode.k) ** bf
    if space > 1 << 16:
        raise ValueError(f"the reference would enumerate {space} codeword batches")
    codewords = all_codewords(qcode)

    def identical(tset) -> bool:
        for i in range(setup.d):
            dists = []
            for m in range(1, f + 1):
                # the unit offset each node of the set adds in subquery i
                offsets = [(m - 1) * setup.beta + setup.stripes[l][i]
                           if setup.ehat[i][l] else None for l in tset]
                hist: dict[tuple, int] = {}
                for batch in itertools.product(codewords, repeat=bf):
                    key = []
                    for l, col in zip(tset, offsets):
                        row = [cw[l] for cw in batch]
                        if col is not None:
                            row[col] = add(row[col], 1)
                        key.extend(row)
                    key = tuple(key)
                    hist[key] = hist.get(key, 0) + 1
                dists.append(hist)
            if not all(h == dists[0] for h in dists[1:]):
                return False
        return True

    return [identical(tset) for tset in sets]


@pytest.fixture(scope="session")
def f2():
    return field_make(2)


@pytest.fixture(scope="session")
def good532(f2):
    return code_from_generator(Matrix(f2, GOOD_G))


@pytest.fixture(scope="session")
def bad532(f2):
    return code_from_generator(Matrix(f2, BAD_G))


@pytest.fixture(scope="session")
def code73(f2):
    return LinearCode(Matrix(f2, G73), Matrix(f2, H73))


@pytest.fixture(scope="session")
def code124(f2):
    return LinearCode.from_parity_check(Matrix(f2, H124))


@pytest.fixture(scope="session")
def rs53():
    return grs_code(field_make(7), 5, 3)
