"""[n,k] linear codes over GF(q) and the code-level predicates the protocols use.

A `LinearCode` is an immutable pair (G, H) with rank(G) = k, rank(H) = n-k and
G H^T = 0, each held once as its `Matrix`'s read-only int64 array (`_g`, and
`_ht` a view of H^T). Coordinates are 0-based integers everywhere in code; the
wire formats and CLI render 1-based coordinates to match the usual
coding-theory convention.

Two exact kernels carry the code predicates and the decoding:

- Column independence. One in-place array Gauss-Jordan step over the
  columns of H or of G (`_column_eliminator`, built on first use for each)
  answers every question of the form "which of these columns are
  independent". A residual is the matrix with the span of some of its
  columns eliminated, in the narrowest exact type: over GF(2) the rows of
  each column packed into one uint8, uint16 or uint32 word, or into uint64
  words; over GF(p) int16, int32 or int64 while 2(p-1)^2 fits, Python
  integers past that; over GF(p^a) int64. A column is independent of those
  eliminated iff its residual column is nonzero. Two loops call the step:
  - `_independent` takes a B x s array of column indices and says, for each
    entry, whether that column is independent of the ones before it in its
    row: it gathers each row's own columns as an s x rows x B stack, the
    batch axis last, and eliminates column t from the columns after it in
    place, for each t in turn. On H, `correctable_support` asks one row and
    `pivot_columns` a row per order; on G, `information_columns` asks one
    row and `correctable_shifts` a row per cyclic shift of each support (a
    pattern is correctable iff the columns of G off it have rank k).
  - The column walk (`_column_levels`) extends every independent subset of
    H's columns by each later column whose residual is nonzero, one step
    per block of children in the order of their new column, on the columns
    after it only. A code walks once, to every level an exhaustive
    pattern list may read (`_count`), and keeps the levels, one mask array
    each: the column search of `min_distance` reads their counts,
    `correctable_masks` a level sorted ascending in place on first read.
  Both work in blocks of about BLOCK bytes, and neither allocates a `Matrix`.
- Erasure decoding, shared by the three protocols, compiled once per erased
  set E and kept for the code's lifetime (`_erasure_decoder`): one
  `FiniteField.rref_array` of H's columns ordered E then K (the rest), the
  field's one row elimination, gives the recovery matrix R_E
  (x_E = R_E y_K) and the check matrix C_E (a word matches some codeword off
  E iff C_E y_K = 0; with E empty, iff it is a codeword). In
  `decode_erasures` a batch of r words over GF(q) or GF(q^ell) then decodes
  in one `matmul_array` product with both, lifted into the words' field by
  one gather; a word that fails C_E raises `DecodeFailure`. The protocols
  read R_E and C_E from `_erasure_decoder` instead: protocol 1 keeps them
  lifted per decode stage and batch (`protocol1._lift`), protocols 2
  and 3 fold them into their setup's one decode map
  (`protocol3.P3Setup.decode_map`); `decode_erasures` is left to the tests'
  references and the bench trace. `message_from_information_set` likewise
  keeps the inverse of G|_I per information set I and solves a batch in one
  product.

Every other elimination runs on the arrays of G and H through that same row
elimination: ranks when a code is checked, null spaces for H and shortened
messages, the inverse of G|_I, the spanned codes of `puncture`, `shorten` and
`hadamard_product` (its row products one inner-size-1 `matmul_array` product),
and the standard form of `standard_form_parity`. Coordinates that are not
integers in 0..n-1 raise DimensionMismatch.

`encode` is the array encoder (G's array, lifted into GF(q^ell) by one gather
for stored files) that the protocol queries call.
The one subcode enumeration behind `min_distance` and
`generalized_hamming_weight` (`_min_support`) encodes no message: for each
pivot set of its reduced-echelon message matrices the words form an affine
span, listed block by block (about ENUM_CHUNK rows) as the offsets of one
`matmul_array` product minus an inner table built by field subtractions.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    DecodeFailure,
    DimensionMismatch,
    EmptySupport,
    NotCorrectable,
    RankDeficient,
    RankDeficientGenerator,
    TooLarge,
)
from .fields import FiniteField, Matrix

ENUM_BUDGET = 1 << 21          # subcode-enumeration ceiling (q^k for d_1)
COLUMN_SEARCH_BUDGET = 5_000_000  # cumulative column-subset ceiling
EXHAUSTIVE_LIMIT = 100_000     # list all weight-w patterns up to C(n, w) of them
ENUM_CHUNK = 4096              # rows of n symbols per subcode-enumeration block
BLOCK = 1 << 17                # residual bytes per block of the column eliminations


@dataclass(frozen=True)
class ErasurePattern:
    """Binary erasure mask of length n; 1 marks an erased position.
    DimensionMismatch for a mask of another length or an entry that is not
    an integer 0 or 1 (`non_bit_entry`), and for a support position that is
    not an integer in 0..n-1."""

    n: int
    mask: tuple[int, ...]

    def __post_init__(self):
        if len(self.mask) != self.n or non_bit_entry([self.mask]) is not None:
            raise DimensionMismatch("mask must be integers 0/1 of length n")

    @property
    def weight(self) -> int:
        return sum(self.mask)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(itertools.compress(range(self.n), self.mask))

    @staticmethod
    def from_support(n: int, support: Iterable[int]) -> "ErasurePattern":
        mask = [0] * n
        for j in _integer_positions(support):
            if not 0 <= j < n:
                raise DimensionMismatch(f"position {j} outside 0..{n - 1}")
            mask[j] = 1
        return ErasurePattern(n, tuple(mask))


def gaussian_binomial(k: int, s: int, q: int) -> int:
    """Number of s-dimensional subspaces of GF(q)^k."""
    if s < 0 or s > k:
        return 0
    num = den = 1
    for i in range(s):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def pattern_weight(w) -> int:
    """The weight of an erasure pattern as an int: BadParams unless `w` is an
    integer (`operator.index`) >= 0."""
    try:
        w = operator.index(w)
    except TypeError:
        raise BadParams(f"a pattern weight must be an integer, not {w!r}") from None
    if w < 0:
        raise BadParams(f"a pattern weight must be >= 0, not {w}")
    return w


def mask_bits(n: int) -> np.ndarray:
    """1 << j for the n positions j, as int64 below 63 positions and as
    Python integers otherwise: OR-ed together, the support bitmasks of
    erasure patterns."""
    return np.array([1 << j for j in range(n)], dtype=np.int64 if n < 63 else object)


def non_bit_entry(rows) -> tuple[int, int] | None:
    """(i, j) of the first entry of `rows` that is not an integer 0 or 1
    (`operator.index`: 1.0 and 0.5 are not), or None."""
    return next(((i, j) for i, row in enumerate(rows) for j, x in enumerate(row)
                 if not hasattr(type(x), "__index__") or operator.index(x) not in (0, 1)),
                None)


def _integer_positions(coords: Iterable[int]) -> list[int]:
    """The positions of `coords` as ints, in order: DimensionMismatch unless
    each is an integer (`operator.index`: 2.9 is refused, not cut to 2)."""
    try:
        return [operator.index(j) for j in coords]
    except TypeError:
        raise DimensionMismatch("positions must be integers") from None


def _index_rows(rows, what: str, width: int = 0) -> np.ndarray:
    """`rows` (a B x s array or nested rows of integers) as a B x s intp
    array, an empty list as B = 0 rows of `width`; DimensionMismatch naming
    `what` for ragged rows or another shape."""
    try:
        a = np.asarray(rows)
    except ValueError:
        a = None
    if a is not None and a.ndim == 1 and not a.size:
        a = a.reshape(0, width)
    if a is None or a.ndim != 2 or (a.size and a.dtype.kind not in "iu"):
        raise DimensionMismatch(f"{what} must be rows of integers of one length")
    return a.astype(np.intp, copy=False)


class LinearCode:
    """An [n,k] code over GF(q), carried by generator and parity-check matrices."""

    def __init__(self, G: Matrix, H: Matrix, meta: dict | None = None,
                 known_dmin: int | None = None, check: bool = True):
        self.field: FiniteField = G.field
        self.G = G
        self.H = H
        self.n = G.cols
        self.k = G.rows
        self.meta = dict(meta or {})
        self.known_dmin = known_dmin
        self._g = G.array()
        self._ht = H.array().T
        if check:
            if len(self.field.rref_array(self._g)[1]) != self.k:
                raise RankDeficientGenerator("generator rows are dependent")
            if H.cols != self.n or H.rows != self.n - self.k:
                raise DimensionMismatch("parity-check shape mismatch")
            if len(self.field.rref_array(self._ht.T)[1]) != self.n - self.k:
                raise RankDeficientGenerator("parity-check rows are dependent")
            if not self.contains_codewords(self._g):
                raise DimensionMismatch("G H^T != 0")
        self._eliminators: dict[str, tuple] = {}  # `_column_eliminator` of "H" and "G"
        self._levels: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]  # `_count`
        self._products: dict[LinearCode, LinearCode] = {}  # hadamard_product memo
        self._decoders: dict[tuple[int, ...], tuple] = {}  # per erased E
        self._inverses: dict[tuple[int, ...], np.ndarray] = {}  # per information set I

    # --- constructors ---------------------------------------------------------

    @staticmethod
    def from_generator(G: Matrix, meta: dict | None = None,
                       known_dmin: int | None = None) -> "LinearCode":
        H = G.field.null_space_array(G.array())
        if len(H) != G.cols - G.rows:  # rank-nullity
            raise RankDeficientGenerator("generator rows are dependent")
        return LinearCode(G, Matrix.from_array(G.field, H), meta=meta,
                          known_dmin=known_dmin, check=False)

    @staticmethod
    def from_parity_check(H: Matrix, meta: dict | None = None,
                          known_dmin: int | None = None) -> "LinearCode":
        G = H.field.null_space_array(H.array())
        if len(G) != H.cols - H.rows:  # rank-nullity
            raise RankDeficientGenerator("parity-check rows are dependent")
        return LinearCode(Matrix.from_array(H.field, G), H, meta=meta,
                          known_dmin=known_dmin, check=False)

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}] over {self.field}"

    @property
    def rate(self):
        from fractions import Fraction
        return Fraction(self.k, self.n)

    # --- basic predicates -------------------------------------------------------

    def dual(self) -> "LinearCode":
        meta: dict = {}
        dmin = None
        fam = self.meta.get("family")
        if fam == "grs":
            # the dual of a GRS code is GRS, hence MDS
            dmin = self.k + 1
        elif fam == "reed-muller":
            v, m = self.meta["v"], self.meta["m"]
            if m - v - 1 >= 0:
                meta = {"family": "reed-muller", "v": m - v - 1, "m": m}
                dmin = 2 ** (v + 1)
        return LinearCode(self.H, self.G, meta=meta, known_dmin=dmin, check=False)

    def is_information_set(self, coords: Iterable[int]) -> bool:
        coords = sorted(set(_integer_positions(coords)))
        return self.contains_information_set(coords) and len(coords) == self.k

    def contains_information_set(self, coords: Iterable[int]) -> bool:
        coords = sorted(set(_integer_positions(coords)))
        return len(self.information_columns(coords)) == self.k

    def information_set(self) -> tuple[int, ...]:
        return tuple(self.information_columns(range(self.n)))

    def random_information_set(self, rng) -> tuple[int, ...]:
        """Pivot columns of G under a random column permutation."""
        perm = list(range(self.n))
        rng.shuffle(perm)
        return tuple(sorted(self.information_columns(perm)))

    def information_columns(self, order: Iterable[int]) -> list[int]:
        """Columns of G taken greedily in `order`, each independent of those
        taken before it (at most k; an information set when k are taken)."""
        order = list(order)
        return list(itertools.compress(order, self._independent("G", [order])[0]))

    def contains_codewords(self, words, value_field: FiniteField | None = None) -> bool:
        """True iff every word (an r x n array or nested rows of canonical
        symbols over GF(q) or an extension `value_field`) has zero syndrome
        against H; k independent words then span this code."""
        words = np.asarray(words, dtype=np.int64).reshape(-1, self.n)
        field = value_field or self.field
        syndromes = field.matmul_array(words, field.embed_array(self._ht, self.field))
        return not syndromes.any()

    def erasure_correctable(self, pattern: ErasurePattern) -> bool:
        """True iff the erased columns of H are linearly independent."""
        if not isinstance(pattern, ErasurePattern) or pattern.n != self.n:
            raise DimensionMismatch("expected an ErasurePattern of the code's length")
        return self.correctable_support(pattern.support)

    def correctable_support(self, support: Sequence[int]) -> bool:
        """True iff the columns of H at `support` (distinct positions, in any
        order) are linearly independent."""
        return bool(self._independent("H", [list(support)]).all())

    def correctable_shifts(self, supports) -> np.ndarray:
        """Which cyclic shifts of each support are correctable: entry (i, t) of
        the D x n bool array is True iff the pattern {j + t mod n : j in S_i}
        is, for D supports S_i of one weight w (a D x w array or nested rows
        of distinct positions). A pattern is correctable iff the n - w
        columns of G off it have rank k; one `_independent` call over G
        decides every shift of a block of supports, each block as many as
        fill one block of its eliminations. DimensionMismatch for supports of
        mixed weights, a repeated position or one outside 0..n-1."""
        n = self.n
        supports = _index_rows(supports, "supports")
        if supports.size and not 0 <= supports.min() <= supports.max() < n:
            raise DimensionMismatch(f"support positions {supports.min()}..{supports.max()} "
                                    f"outside 0..{n - 1}")
        erased = np.zeros((len(supports), n), dtype=bool)
        erased[np.arange(len(supports))[:, None], supports] = True
        w = supports.shape[1]
        if (erased.sum(axis=1) != w).any():
            raise DimensionMismatch("a support repeats a position")
        out = np.zeros((len(supports), n), dtype=bool)
        if w > n - self.k:
            return out
        kept = n - w
        shifts = np.arange(n)[None, :, None]
        residual = self._eliminator("G")[0]
        block = max(1, BLOCK // max(1, n * kept * residual.itemsize * len(residual)))
        for start in range(0, len(supports), block):
            chunk = erased[start:start + block]
            idx = np.nonzero(~chunk)[1].reshape(len(chunk), 1, kept) + shifts
            idx %= n
            ranks = self._independent("G", idx.reshape(len(chunk) * n, kept)).sum(axis=1)
            out[start:start + len(chunk)] = (ranks == self.k).reshape(-1, n)
        return out

    def pivot_columns(self, orders) -> np.ndarray:
        """The pivot columns of rref(H[:, order]) mapped back through each
        order of a B x n array of column orders (each a permutation of
        0..n-1), in that order: the columns taken greedily, each independent
        of those taken before it. H has full rank, so each order has n - k of
        them, and the result is a B x (n - k) array from one `_independent`
        call over H. DimensionMismatch for orders that are not B
        permutations of 0..n-1."""
        orders = _index_rows(orders, "orders", self.n)
        if orders.shape[1] != self.n or (np.sort(orders, axis=1) != np.arange(self.n)).any():
            raise DimensionMismatch(f"orders must be permutations of 0..{self.n - 1}")
        return orders[self._independent("H", orders)].reshape(len(orders), self.n - self.k)

    def _eliminator(self, of: str) -> tuple:
        """`_column_eliminator` over H or G (`of` is "H" or "G"), built on
        first use and kept for the code's lifetime."""
        if of not in self._eliminators:
            matrix = self._g if of == "G" else self._ht.T
            self._eliminators[of] = _column_eliminator(self.field, matrix)
        return self._eliminators[of]

    def _independent(self, of: str, idx) -> np.ndarray:
        """Entry (b, t) of the B x s bool result is True iff column idx[b, t]
        of `of` ("H" or "G") is independent of the columns idx[b, :t].

        Each block of rows gathers its own columns of the residual, as an
        s x rows x B stack with the batch axis last, and eliminates column t
        from the columns after it in place (`_column_eliminator`), for t in
        0..s-1: column t is independent iff it is nonzero when its turn
        comes. DimensionMismatch for rows that are not integers of one
        length, or an index outside 0..n-1.
        """
        idx = _index_rows(idx, "column indices")
        if idx.size and not 0 <= idx.min() <= idx.max() < self.n:
            raise DimensionMismatch(f"column indices {idx.min()}..{idx.max()} "
                                    f"outside 0..{self.n - 1}")
        residual, eliminate = self._eliminator(of)
        out = np.zeros(idx.shape[::-1], dtype=bool)
        if not len(residual):  # no rows: nothing is independent
            return out.T
        s = idx.shape[1]
        block = max(1, BLOCK // max(1, residual.itemsize * len(residual) * s))
        for start in range(0, len(idx), block):
            R = residual[:, idx[start:start + block].T].swapaxes(0, 1)
            for t in range(s):
                out[t, start:start + R.shape[2]] = R[t].any(axis=0)
                if t + 1 < s:
                    eliminate(R[t + 1:], R[t])
        return out.T

    # --- encoding / decoding ------------------------------------------------------

    def encode(self, messages: np.ndarray,
               value_field: FiniteField | None = None) -> np.ndarray:
        """r x k int64 messages over GF(q), or over an extension `value_field`,
        times G, as an r x n int64 array over that field."""
        field = value_field or self.field
        return field.matmul_array(messages, field.embed_array(self._g, self.field))

    def message_from_information_set(self, coords: Sequence[int], values,
                                     value_field: FiniteField) -> np.ndarray:
        """The messages m with m G|_I = v for each row v of `values` (r x |I|,
        over GF(q^ell)), as an r x k int64 array: one product with the inverse
        of G|_I, built once per I. RankDeficient unless I is an information set."""
        coords = tuple(_integer_positions(coords))
        inverse = self._inverses.get(coords)
        if inverse is None:
            if any(not 0 <= j < self.n for j in coords):
                raise DimensionMismatch(f"coordinates {coords} outside 0..{self.n - 1}")
            if len(coords) != self.k:
                raise RankDeficient(f"{list(coords)} is not an information set")
            inverse = self.field.inverse_array(self._g[:, list(coords)])  # or RankDeficient
            self._inverses[coords] = inverse
        values = np.asarray(values, dtype=np.int64).reshape(-1, self.k)
        inverse = value_field.embed_array(inverse, self.field)
        return value_field.matmul_array(values, inverse)

    def decode_erasures(self, words, erased: Iterable[int],
                        value_field: FiniteField | None = None) -> np.ndarray:
        """The codewords agreeing with each of r words (an r x n array or nested
        rows over GF(q) or an extension `value_field`) off the erased
        positions E, as an r x n int64 array: x_E = R_E y_K, checked by
        C_E y_K = 0 (`_erasure_decoder`). NotCorrectable when H's columns at E
        are dependent; DecodeFailure, with `word` the index of the first
        failing word, when some word matches no codeword off E."""
        erased = tuple(sorted(set(_integer_positions(erased))))
        if erased and not 0 <= erased[0] <= erased[-1] < self.n:
            raise DimensionMismatch(f"erased positions {list(erased)} outside "
                                    f"0..{self.n - 1}")
        known, recover_check = self._erasure_decoder(erased)
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2 or words.shape[1] != self.n:
            raise DimensionMismatch(f"expected r x {self.n} words, not {words.shape}")
        field = value_field or self.field
        recover_check = field.embed_array(recover_check, self.field)
        solved = field.matmul_array(words[:, known], recover_check)
        failing = np.flatnonzero(solved[:, len(erased):].any(axis=1))
        if failing.size:
            raise DecodeFailure(f"word {failing[0]}: no codeword agrees with it off "
                                f"the erased positions {list(erased)}",
                                word=int(failing[0]))
        out = words.copy()
        out[:, erased] = solved[:, :len(erased)]
        return out

    def _erasure_decoder(self, erased: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
        """(K, [R_E; C_E]^T) for the sorted erased positions E, built once per E.

        One `rref_array` of H's columns ordered E then K gives [I M] over
        [0 C] (H_E has full column rank), so a codeword has x_E = R_E y_K with
        R_E = -M, and a word matches some codeword off E iff C_E y_K = 0. Both
        are kept as one |K| x (|E| + rank C) array, so a batch decodes in one
        product.
        """
        memo = self._decoders.get(erased)
        if memo is not None:
            return memo
        if not self.correctable_support(erased):
            raise NotCorrectable(f"pattern {list(erased)} not correctable")
        known = [j for j in range(self.n) if j not in erased]
        red, pivots = self.field.rref_array(self._ht.T[:, list(erased) + known])
        rows = red[:len(pivots), len(erased):]
        rows[:len(erased)] = self.field.sub_array(0, rows[:len(erased)])
        memo = self._decoders[erased] = (known, np.ascontiguousarray(rows.T))
        return memo

    # --- distances ---------------------------------------------------------------

    def min_distance(self) -> int:
        """Minimum Hamming weight over nonzero codewords (exact): d_1 by the
        subcode enumeration when q^k <= ENUM_BUDGET, else the column search."""
        if self.known_dmin is not None:
            return self.known_dmin
        if self.k == 0:
            raise TooLarge("zero code has no nonzero codeword")
        if self.field.order ** self.k <= ENUM_BUDGET:
            d = self._min_support(1)
        else:
            d = self._min_distance_column_search(budget=COLUMN_SEARCH_BUDGET)
        self.known_dmin = d
        return d

    def _min_distance_column_search(self, budget: int) -> int:
        """Smallest w such that some w parity-check columns are dependent:
        the first level of the code's one column walk (`_count`) that holds
        fewer than C(n, w) subsets. TooLarge before reading level w if
        C(n, 1) + ... + C(n, w) exceeds the budget (a level past the walk's
        EXHAUSTIVE_LIMIT levels is walked to itself)."""
        spent = 0
        for w in range(1, self.n - self.k + 2):
            spent += comb(self.n, w)
            if spent > budget and w <= self.n - self.k:  # level n - k + 1 is not walked
                raise TooLarge("column-dependency search exceeded budget")
            if self._count(w) < comb(self.n, w):
                return w
        raise AssertionError("Singleton bound violated (unreachable)")

    def correctable_masks(self, w: int) -> tuple[int, ...]:
        """Bitmasks (bit j set iff position j is erased) of every correctable
        weight-w erasure pattern, in ascending order: level w of the kept
        column walk (`_count`), sorted in place on first read and frozen.
        BadParams unless w is an integer >= 0."""
        w = pattern_weight(w)
        if not self._count(w):
            return ()
        level = self._levels[w]
        if level.flags.writeable:  # as walked
            level.sort()
            level.flags.writeable = False
        return tuple(level.tolist())

    def _count(self, w: int) -> int:
        """The size of level w of the code's one column walk, kept. The first
        w past the kept levels walks once, to the deepest t <= n - k whose
        levels all have C(n, i) <= EXHAUSTIVE_LIMIT, so every exhaustive
        list reads it, and to w if that is deeper. 0 past n - k."""
        n, r = self.n, self.n - self.k
        if w > r:
            return 0
        if w >= len(self._levels):
            t = 0
            while t < r and comb(n, t + 1) <= EXHAUSTIVE_LIMIT:
                t += 1
            self._levels = self._column_levels(max(w, t))
        return len(self._levels[w])

    def _column_levels(self, depth: int) -> list[np.ndarray]:
        """Level-by-level walk over the subsets of independent columns of H,
        to size `depth` (>= 1): entry t of the result holds the independent
        t-subsets as a writable array of bitmasks, in the order walked.

        Each live prefix carries its residual: H with the span of the
        prefix's columns eliminated (`_column_eliminator`), so a later column
        extends the prefix iff its residual column is nonzero. A call lists
        its children in the order of their new column, and one array step
        builds a block's residuals on the columns after its smallest new
        column only, each against its new column gathered as the pivot.
        Prefixes go down in blocks of about BLOCK bytes, so the arrays held
        stay within depth blocks; a prefix counts its residual on all n
        columns or its n-entry int64 indices, whichever is larger.
        """
        h, eliminate = self._eliminator("H")
        n = self.n
        bits = mask_bits(n)
        block = max(1, BLOCK // max(h.nbytes, 8 * n))
        zero = np.zeros(1, dtype=bits.dtype)
        found = [[zero]] + [[zero[:0]] for _ in range(depth)]

        def walk(residuals, start, last, masks, t):
            # residuals hold columns start..n-1; children come in column order
            col, prefix = np.nonzero((residuals.any(axis=1)
                                      & (np.arange(start, n) > last[:, None])).T)
            col += start
            masks = masks[prefix] | bits[col]
            found[t + 1].append(masks)
            if t + 1 < depth:
                for s in range(0, len(col), block):
                    p, c = prefix[s:s + block], col[s:s + block]
                    R = residuals[p, :, c[0] + 1 - start:]
                    eliminate(R, residuals[p, :, c - start][:, :, None])
                    walk(R, c[0] + 1, c, masks[s:s + block], t + 1)

        walk(h[None], 0, np.array([-1]), zero, 0)
        for t, level in enumerate(found):  # level by level, freeing its pieces
            found[t] = np.concatenate(level)
        return found

    def generalized_hamming_weight(self, s: int) -> int:
        """d_s: smallest support of an s-dimensional subcode (exact). d_1 is
        `min_distance`; for s >= 2 every subcode is enumerated, so TooLarge
        when there are more than ENUM_BUDGET of them."""
        if not 1 <= s <= self.k:
            raise DimensionMismatch(f"s={s} outside 1..{self.k}")
        if s == 1:
            return self.min_distance()
        count = gaussian_binomial(self.k, s, self.field.order)
        if count > ENUM_BUDGET:
            raise TooLarge(f"{count} subcodes of dimension {s} exceed the "
                           f"enumeration budget {ENUM_BUDGET}")
        return self._min_support(s)

    def _min_support(self, s: int) -> int:
        """Smallest support of an s-dimensional subcode, visiting each exactly
        once through its one s x k reduced-echelon message matrix U: U's pivot
        columns come from `combinations(range(k), s)`, and each free entry
        (right of a row's pivot, off the pivot columns) ranges over GF(q).

        For one pivot set the s rows of U G form an affine span: G's pivot
        rows plus c times G's row j in row i, per free entry (i, j). The last
        free entries span an inner table, one `sub_array` per entry against
        the q multiples of its row (closed under negation, so subtracting
        lists the same words). The others give the offsets of a block of
        about ENUM_CHUNK rows by one `matmul_array` product, and the block's
        words are offset - inner, as an s x n x words array of the smallest
        signed type that holds q. The support counts the columns where some
        row is nonzero."""
        field, q, k, n, g = self.field, self.field.order, self.k, self.n, self._g
        symbol = np.min_scalar_type(-q)
        per_block = max(1, ENUM_CHUNK // s)  # subcodes per block
        # free entries need s < k, and then the budgets keep q below 2^11
        multiples = (field.matmul_array(np.arange(q)[:, None], g.reshape(1, k * n))
                     .reshape(q, k, n).transpose(1, 2, 0).astype(symbol)
                     if s < k else None)
        best = n
        for pivots in itertools.combinations(range(k), s):
            free = [(i, j) for i, p in enumerate(pivots)
                    for j in range(p + 1, k) if j not in pivots]
            outer = len(free)
            inner = np.zeros((s, n, 1), dtype=symbol)
            while outer and inner.shape[2] * q <= per_block:
                outer -= 1
                i, j = free[outer]
                grown = np.repeat(inner[:, :, None], q, axis=2)
                grown[i] = field.sub_array(inner[i, :, None], multiples[j, :, :, None])
                inner = grown.reshape(s, n, -1)
            span = np.zeros((1 + outer, s, n), dtype=np.int64)
            span[0] = g[list(pivots)]
            for t, (i, j) in enumerate(free[:outer]):
                span[1 + t, i] = g[j]
            span = span.reshape(1 + outer, s * n)
            powers = q ** np.arange(outer, dtype=np.int64)
            total, step = q ** outer, max(1, per_block // inner.shape[2])
            for start in range(0, total, step):
                counter = np.arange(start, min(start + step, total), dtype=np.int64)
                coefficients = np.ones((len(counter), 1 + outer), dtype=np.int64)
                coefficients[:, 1:] = counter[:, None] // powers % q
                offsets = field.matmul_array(coefficients, span).T.astype(symbol)
                words = field.sub_array(offsets.reshape(s, n, -1, 1), inner[:, :, None])
                support = (words != 0).any(axis=0).sum(axis=0, dtype=np.int32)
                best = min(best, int(support.min()))
        return best

    # --- derived codes ---------------------------------------------------------------

    def hadamard_product(self, other: "LinearCode") -> "LinearCode":
        """Code spanned by componentwise products of codewords of the two codes.

        Built once per `other` instance and kept, so its memoized d_min is too.
        """
        product = self._products.get(other)
        if product is not None:
            return product
        if other.n != self.n:
            raise DimensionMismatch("lengths differ")
        if other.field is not self.field:
            raise DimensionMismatch("fields differ")
        # per position j, column j of G times column j of other.G: k1 x 1 by 1 x k2
        products = self.field.matmul_array(self._g.T[:, :, None], other._g.T[:, None, :])
        product = _spanned_code(self.field, products.reshape(self.n, -1).T)
        self._products[other] = product
        return product

    def _positions(self, coords: Iterable[int], what: str) -> list[int]:
        """The distinct positions of `coords`, sorted: EmptySupport if there
        are none, DimensionMismatch if one is not an integer, or naming them
        if one is outside 0..n-1."""
        coords = sorted(set(_integer_positions(coords)))
        if not coords:
            raise EmptySupport(f"{what} onto empty coordinate set")
        if not 0 <= coords[0] <= coords[-1] < self.n:
            raise DimensionMismatch(f"coordinates {coords} outside 0..{self.n - 1}")
        return coords

    def puncture(self, coords: Iterable[int]) -> "LinearCode":
        return _spanned_code(self.field, self._g[:, self._positions(coords, "puncture")])

    def shorten(self, coords: Iterable[int]) -> "LinearCode":
        """Codewords vanishing outside `coords`, restricted to `coords`."""
        coords = self._positions(coords, "shorten")
        outside = [j for j in range(self.n) if j not in coords]
        msgs = self.field.null_space_array(self._g[:, outside].T)  # I_k if none
        return _spanned_code(self.field, self.field.matmul_array(msgs, self._g[:, coords]))

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        """True iff permuting coordinates by `perm` preserves the codeword set.

        `perm[j]` is the new position of coordinate j. The permuted generator
        rows have rank k, so they span this code iff they are codewords.
        DimensionMismatch unless `perm` is a permutation of 0..n-1 whose
        entries are integers (0.0 is refused, not read as 0).
        """
        perm = _integer_positions(perm)
        if sorted(perm) != list(range(self.n)):
            raise DimensionMismatch("not a permutation of 0..n-1")
        permuted = np.empty_like(self._g)
        permuted[:, perm] = self._g
        return self.contains_codewords(permuted)

    # --- wire format -------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"family": "raw", "q": self.field.order,
                "generator": self._g.tolist()}


def _spanned_code(field: FiniteField, a: np.ndarray) -> LinearCode:
    """The code spanned by the rows of the array a: the nonzero rows of
    rref(a) as G, and H from G's null space."""
    red, pivots = field.rref_array(a)
    g = red[:len(pivots)]
    return LinearCode(Matrix.from_array(field, g),
                      Matrix.from_array(field, field.null_space_array(g)), check=False)


def _column_eliminator(f: FiniteField, h: np.ndarray):
    """(h, eliminate): the column elimination over the int64 array h (H or G),
    for `_independent` and the column walk.

    h is H as a residual, its columns on the last axis, in the narrowest
    exact type: over GF(2) H's rows packed into words (`_packed_rows`); over
    GF(p) H in int16, int32 or int64, the first that holds 2(p-1)^2, and as
    Python integers past that; over GF(p^a) H itself, int64.
    eliminate(R, u) eliminates one column u from residual columns R in place
    by one Gauss-Jordan step, in either layout of `_pivot_rows`: a stack R
    of s x rows x B columns against u (rows, B), the batch axis last, for
    `_independent`; or B residuals R (B, rows, n) against their gathered
    pivot columns u (B, rows, 1), for the walk. With i the first nonzero row
    of u, every column c of R loses u times R[i, c] / u_i, so it ends at
    zero iff it lay in the span of u and the columns eliminated before.
    Over GF(p) and GF(p^a) the step scales R by u_i instead of dividing row
    i by it, which changes no zero entry (by 1 when u is zero, so a zero
    column leaves R unchanged). Over GF(2), i is the lowest set bit of u's
    first nonzero word, and the columns with that bit set are XORed with u
    (none when u is zero).
    """
    if f.order == 2:
        def eliminate(R: np.ndarray, u: np.ndarray) -> None:
            if u.shape[-2] == 1:
                low, row = u & (~u + 1), R  # the lowest set bit of the one word
            else:  # of u's first nonzero word, against R's words there
                low, row = _pivot_rows(R, u)
                low &= ~low + 1
            R ^= u * ((row & low) != 0)

        return _packed_rows(h), eliminate

    if f.alpha == 1:
        p = f.p
        h = h.astype(next((t for t in (np.int16, np.int32, np.int64)
                           if 2 * (p - 1) ** 2 <= np.iinfo(t).max), object))

        def step(R, pivot, u, row):
            R *= pivot
            R -= u * row
            R %= p
    else:
        if f._exp is not None:
            exp, log = f._gather_tables()

            def mul(a, b):
                return exp[log[a] + log[b]]
        else:  # no tables above 2^16 elements
            def mul(a, b):
                return np.frompyfunc(f.mul, 2, 1)(a, b).astype(np.int64)

        def step(R, pivot, u, row):
            R[...] = f.sub_array(mul(R, pivot), mul(u, row))

    def eliminate(R: np.ndarray, u: np.ndarray) -> None:
        pivot, row = _pivot_rows(R, u)
        pivot[pivot == 0] = 1
        step(R, pivot, u, row)

    return h, eliminate


def _pivot_rows(R: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_i, R_i) for i the first nonzero row of each column u (some row of a
    zero column), each shaped to broadcast against R, in the two layouts of
    `_column_eliminator`: u (rows, B) against a stack R (s, rows, B), the
    batch axis last; or u (B, rows, 1) against R (B, rows, n). With the batch
    axis last, i comes from one max along the rows of u weighted rows-1..0,
    as an argmax over that short axis costs a call per column."""
    rows = u.shape[-2]
    if u.ndim == 2:
        weights = np.arange(rows - 1, -1, -1, dtype=np.min_scalar_type(rows))[:, None]
        i, at = rows - 1 - ((u != 0) * weights).max(axis=0), np.arange(u.shape[1])
        return u[i, at], R[:, i, at][:, None, :]
    at = np.arange(len(u))
    i = (u[:, :, 0] != 0).argmax(axis=1)
    return u[at, i][:, :, None], R[at, i][:, None, :]


def _packed_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 int64 array packed into the narrowest unsigned word
    that holds them all (8, 16 or 32 rows), or 64 to a uint64 word: row i is
    bit i % bits of word i // bits, one W x n array (W >= 1) for the n
    columns."""
    bits = next(b for b in (8, 16, 32, 64) if len(a) <= b or b == 64)
    word = np.dtype(f"uint{bits}")
    words = np.zeros((max(1, -(-len(a) // bits)), a.shape[1]), dtype=word)
    for i, row in enumerate(a):
        words[i // bits] |= row.astype(word) << word.type(i % bits)
    return words


def repetition_code(field: FiniteField, n: int) -> LinearCode:
    """The [n,1,n] repetition code. Its Hadamard product with any code of
    length n is that code, so as a query code it gives noncolluding retrieval."""
    return LinearCode.from_generator(Matrix(field, [[1] * n]), known_dmin=n)


def code_from_generator(G: Matrix, meta: dict | None = None,
                        known_dmin: int | None = None) -> LinearCode:
    """LinearCode with H spanning the null space of G."""
    return LinearCode.from_generator(G, meta=meta, known_dmin=known_dmin)


def standard_form_parity(code: LinearCode,
                         info: Sequence[int] | None = None) -> tuple[Matrix, list[int]]:
    """Row-reduce H so the columns off the information set become I_{n-k}.

    Returns (P, info) where P is H restricted to the information coordinates
    after the reduction; the code with parity-check P is the C' of the
    high-rate shortcut (systematic codes of rate > 1/2). DimensionMismatch
    unless `info` is k distinct positions in 0..n-1; RankDeficient unless
    it is an information set.
    """
    info = sorted(_integer_positions(code.information_set() if info is None else info))
    if len(info) != code.k or len(set(info).intersection(range(code.n))) != code.k:
        raise DimensionMismatch(f"systematic coordinates {info} are not {code.k} "
                                f"distinct positions in 0..{code.n - 1}")
    f, h = code.field, code._ht.T
    comp = [j for j in range(code.n) if j not in info]
    h_std = f.matmul_array(f.inverse_array(h[:, comp]), h)
    return Matrix.from_array(f, h_std[:, info]), info
