"""Exact arithmetic over GF(p^alpha) and dense matrices over such fields.

Elements are canonical integers in [0, q): the integer's base-p digits are the
coefficients (low to high) of the polynomial residue modulo a canonical
irreducible. The canonical modulus is the lexicographically smallest monic
irreducible of the requested degree, so element encodings are reproducible
across runs. Extension fields GF(q^ell) are ordinary fields GF(p^(alpha*ell))
carrying a cached embedding of the subfield, which is what lets a query matrix
over GF(q) act on message symbols in GF(q^ell).

Every matrix product (`mat_mul`, encoding, node responses, syndromes and
erasure decoding) is one exact product on int64 arrays of canonical elements
of one field, `FiniteField.matmul_array`; an operand over a subfield is first
embedded by one gather (`embed_array`, which returns an operand over GF(p) as
it is), and `mat_mul`/`mat_solve` refuse two different fields with
FieldMismatch. The product has four regimes:
- over GF(p), `a @ b` mod p, on Python integers once k (p-1)^2 reaches 2^63;
- over GF(p^a) when one operand lies in GF(p) (every entry below p, the reps
  of the prime subfield) and k (p-1)^2 < 2^W, W = 64 // a: one uint64 `@`
  with the other operand's base-p digits spread into W-bit lanes, digit i at
  bit W i. Lane i of an entry then holds the sum of k digit products, each
  at most (p-1)^2, so no lane carries into the next, and lane i mod p is
  digit i of the result. It needs no log/exp tables, so it covers every
  order; with the tables, an inner size of 1 is left to the cheaper gather;
- over GF(p^a) with log/exp tables (order up to 2^16), one table gather per
  term over row blocks of at most MATMUL_CHUNK terms, summed by XOR in
  characteristic 2 and digit-wise mod p otherwise (an inner size of 1 has one
  term, taken as it is);
- over larger fields, a scalar loop over `add` and `mul`.
Its operands may be stacked, (..., r, k) and (..., k, c) with leading dimensions
broadcast as by `@`, for one product per slice in one call (every node's
response): the lane-packed product is then one stacked `@`, and the gather
blocks the stacks' rows one after another, each row gathering its own slice
of b. `sum_array` and `sub_array` add and subtract arrays of canonical
elements in the gather's two ways.

Gauss-Jordan elimination is one array kernel on `matmul_array` and
`sub_array`, `FiniteField.rref_array` (a row swap, a row scaled by the pivot's
inverse and a rank-1 update of every row per pivot), and the null space, the
inverse, rank, `mat_rref` and `mat_solve` are read off its reduced form. `Matrix` is the
form that codes are built from and the `mat_*` functions take: one read-only
int64 array of canonical elements, which `array()` returns without a copy.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadParams,
    DegreeOutOfRange,
    DimensionMismatch,
    FieldMismatch,
    NonPrime,
    RankDeficient,
)

_TABLE_MAX = 1 << 16  # build log/exp tables up to this field order
_MAX_DEGREE = 8
MATMUL_CHUNK = 1 << 16  # terms (rows x k x c) per gather block of matmul_array


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# --- polynomial helpers, coefficients low-to-high ----------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_modred(prod, mod, p)


def _poly_modred(c: list[int], mod: Sequence[int], p: int) -> list[int]:
    deg_m = len(mod) - 1
    c = list(c)
    for i in range(len(c) - 1, deg_m - 1, -1):
        coef = c[i]
        if coef:
            c[i] = 0
            for j in range(deg_m):
                c[i - deg_m + j] = (c[i - deg_m + j] - coef * mod[j]) % p
    return _poly_trim(c)


def _poly_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _poly_modred(list(base), mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, mod, p)
        acc = _poly_mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_gcdex(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """(g, s) with g the monic gcd of a and b over GF(p) and s a = g modulo b
    (b nonzero): extended Euclid one leading term at a time, keeping
    s_i a = r_i modulo b for both pairs."""
    (r0, s0), (r1, s1) = (_poly_trim(list(b)), []), (_poly_trim(list(a)), [1])
    while r1:
        if len(r0) < len(r1):
            (r0, s0), (r1, s1) = (r1, s1), (r0, s0)
            continue
        shift = len(r0) - len(r1)
        c = r0[-1] * pow(r1[-1], p - 2, p) % p
        for src, dst in ((r1, r0), (s1, s0)):
            dst.extend([0] * (len(src) + shift - len(dst)))
            for i, x in enumerate(src):
                dst[i + shift] = (dst[i + shift] - c * x) % p
            _poly_trim(dst)
    c = pow(r0[-1], p - 2, p)
    return [x * c % p for x in r0], [x * c % p for x in s0]


def _poly_rem(num: list[int], den: list[int], f: "FiniteField") -> list[int]:
    """Remainder of num by den over the field f (den with a nonzero lead)."""
    num = _poly_trim(list(num))
    inv_lead = f.inv(den[-1])
    while num and len(num) >= len(den):
        coef = f.mul(num[-1], inv_lead)
        shift = len(num) - len(den)
        for j, dj in enumerate(den):
            num[shift + j] = f.sub(num[shift + j], f.mul(coef, dj))
        _poly_trim(num)
    return num


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Rabin test: x^(p^d) = x mod f, and gcd(x^(p^(d/r)) - x, f) = 1 for prime r | d."""
    d = len(mod) - 1
    if d == 1:
        return True
    x = [0, 1]
    xq = _poly_powmod(x, p ** d, mod, p)
    if _poly_trim(list(xq)) != [0, 1]:
        return False
    for r in filter(_is_prime, range(2, d + 1)):
        if d % r:
            continue
        xr = _poly_powmod(x, p ** (d // r), mod, p)
        diff = list(xr) + [0] * max(0, 2 - len(xr))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcdex(diff, mod, p)[0]) > 1:
            return False
    return True


def canonical_modulus(p: int, alpha: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree alpha over GF(p).

    Candidates are ordered by the integer whose base-p digits are the
    non-leading coefficients (low to high): for GF(8) this yields x^3 + x + 1.
    """
    if alpha == 1:
        return (0, 1)  # the polynomial x; prime field needs no reduction
    for v in range(p ** alpha):
        coeffs = []
        t = v
        for _ in range(alpha):
            coeffs.append(t % p)
            t //= p
        mod = coeffs + [1]
        if _is_irreducible(mod, p):
            return tuple(mod)
    raise AssertionError("no irreducible polynomial found (unreachable)")


class FiniteField:
    """GF(p^alpha) with canonical integer element encoding.

    Do not call directly for shared instances; use :func:`field_make`, which
    caches fields so identity comparison (`a.field is b.field`) works.
    """

    def __init__(self, p: int, alpha: int):
        if not _is_prime(p):
            raise NonPrime(f"{p} is not prime")
        if not 1 <= alpha <= _MAX_DEGREE:
            raise DegreeOutOfRange(f"alpha={alpha} outside 1..{_MAX_DEGREE}")
        self.p = p
        self.alpha = alpha
        self.order = p ** alpha
        self.modulus = canonical_modulus(p, alpha)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._gather: tuple[np.ndarray, np.ndarray] | None = None
        self._spread_table: np.ndarray | None = None
        w = self._lane_bits = 64 // alpha  # W of the lane-packed product
        if alpha > 1 and p == 2:  # the lanes' low bits, their mover and its shift
            top = 64 - alpha
            self._unpacking = tuple(np.uint64(x) for x in (
                sum(1 << w * i for i in range(alpha)),
                sum(1 << top - (w - 1) * i for i in range(alpha)), top))
        elif alpha > 1:  # the lanes' shifts, their mask and the digits' weights
            self._unpacking = (np.arange(0, w * alpha, w, dtype=np.uint64),
                               np.uint64((1 << w) - 1),
                               np.uint64(p) ** np.arange(alpha, dtype=np.uint64))
        self._embeddings: dict[tuple[int, int], list[int]] = {}
        if 1 < self.order <= _TABLE_MAX and alpha > 1:
            self._build_tables()

    # --- encoding ---------------------------------------------------------

    def to_digits(self, rep: int) -> list[int]:
        digits = []
        for _ in range(self.alpha):
            digits.append(rep % self.p)
            rep //= self.p
        return digits

    def from_digits(self, digits: Iterable[int]) -> int:
        rep = 0
        for d in reversed(list(digits)):
            rep = rep * self.p + (d % self.p)
        return rep

    # --- arithmetic on canonical integer reps ------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.alpha == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.alpha):
            out += ((a + b) % p) * mult
            a, b = a // p, b // p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.alpha == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.alpha):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.alpha == 1:
            return (a * b) % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.alpha == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.order - 1) - self._log[a]]
        return self.from_digits(_poly_gcdex(self.to_digits(a), self.modulus, self.p)[1])

    def pow(self, a: int, e: int) -> int:
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        out = 1
        acc = a
        while e:
            if e & 1:
                out = self.mul(out, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.order
        # find a multiplicative generator by direct order check
        for g in range(2, q):
            x = g
            count = 1
            while x != 1:
                x = self._mul_poly(x, g)
                count += 1
                if count > q:
                    break
            if count == q - 1:
                exp = [0] * (2 * (q - 1))
                log = [0] * q
                x = 1
                for i in range(q - 1):
                    exp[i] = x
                    exp[i + q - 1] = x
                    log[x] = i
                    x = self._mul_poly(x, g)
                self._exp, self._log = exp, log
                self.generator = g
                return
        raise AssertionError("no generator found (unreachable)")

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mulmod(self.to_digits(a), self.to_digits(b), self.modulus, self.p)
        return self.from_digits(prod + [0] * (self.alpha - len(prod)))

    # --- arithmetic on int64 arrays of canonical reps ------------------------

    def matmul_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product a b over this field of an r x k and a k x c int64 array
        of canonical elements, as an r x c int64 array (see the module
        docstring). Stacked operands (..., r, k) and (..., k, c) multiply
        slice by slice, their leading dimensions broadcast as by `@`, into a
        (..., r, c) array; DimensionMismatch if the inner sizes differ.

        Over GF(p^a) the lane-packed product is taken when one operand's
        entries are all below p (the right one is tested first) and
        k (p-1)^2 < 2^(64 // a), which makes it exact, unless the field has
        log/exp tables and k <= 1; any other product is gathered through the
        tables, or over a field without them multiplied one scalar at a
        time."""
        (r, k), c = a.shape[-2:], b.shape[-1]
        if b.shape[-2] != k:
            raise DimensionMismatch(f"{a.shape} times {b.shape}")
        if self.alpha == 1:
            if k * (self.p - 1) ** 2 >= 1 << 63:  # int64 sums could wrap
                out = a.astype(object) @ b.astype(object) % self.p
                return out.astype(np.int64)
            out = a @ b
            out %= self.p
            return out
        # an inner size of 1 is one gathered term, cheaper than spread and unpack
        if (k > 1 or self._exp is None) and k * (self.p - 1) ** 2 < 1 << self._lane_bits:
            if not b.size or b.max() < self.p:
                return self._unpack(self._spread(a) @ _as_words(b))
            if not a.size or a.max() < self.p:
                return self._unpack(_as_words(a) @ self._spread(b))
        lead = a.shape[:-2]
        if lead != b.shape[:-2]:
            lead = np.broadcast_shapes(lead, b.shape[:-2])
            a, b = np.broadcast_to(a, lead + (r, k)), np.broadcast_to(b, lead + (k, c))
        size = math.prod(lead)
        if lead:  # the stack's rows one after another: row i times slice i // r of b
            a, b = a.reshape(size * r, k), b.reshape(size, k, c)
        if self._exp is None:
            cols = np.swapaxes(b, -1, -2).reshape(size, c, k).tolist()
            out = [[0] * c for _ in range(size * r)]
            for i, (orow, arow) in enumerate(zip(out, a.tolist())):
                for j, bcol in enumerate(cols[i // r]):
                    acc = 0
                    for x, y in zip(arow, bcol):
                        if x and y:
                            acc = self.add(acc, self.mul(x, y))
                    orow[j] = acc
            return np.array(out, dtype=np.int64).reshape(lead + (r, c))
        exp, log = self._gather_tables()
        log_b = log[b]
        out = np.empty((size * r, c), dtype=np.int64)
        step = max(1, MATMUL_CHUNK // max(1, k * c))
        for start in range(0, size * r, step):
            stop = min(start + step, size * r)
            block = log_b if size == 1 else log_b[np.arange(start, stop) // r]
            terms = exp[log[a[start:stop]][:, :, None] + block]
            out[start:stop] = terms[:, 0] if k == 1 else self.sum_array(terms, axis=1)
        return out.reshape(lead + (r, c)) if lead else out

    def _spread(self, x: np.ndarray) -> np.ndarray:
        """The base-p digits of canonical elements in W-bit lanes of one uint64,
        digit i at bit W i: one gather through a q-entry table built on first
        use up to _TABLE_MAX, digit arithmetic above it."""
        if self._spread_table is not None:
            return self._spread_table[x]
        tabled = self.order <= _TABLE_MAX
        reps = _as_words(np.arange(self.order) if tabled else x)
        out = np.zeros(reps.shape, dtype=np.uint64)
        for i in range(self.alpha):
            out |= reps // self.p ** i % self.p << i * self._lane_bits
        if not tabled:
            return out
        self._spread_table = out
        return out[x]

    def _unpack(self, packed: np.ndarray) -> np.ndarray:
        """Canonical elements from lane-packed sums of digit products: lane i
        reduced mod p is digit i. For p = 2 the lanes' low bits are masked and
        one multiplication modulo 2^64 moves bit W i to bit T + i, where
        T = 64 - alpha, with no carry into those bits: the other partial
        products land at distinct bits below T or past bit 63."""
        if self.p == 2:
            low, mover, top = self._unpacking
            packed &= low
            packed *= mover
            packed >>= top
            return packed.view(np.int64)
        shifts, mask, weights = self._unpacking
        lanes = packed[..., None] >> shifts
        lanes &= mask
        lanes %= self.p
        return (lanes @ weights).view(np.int64)

    def sum_array(self, terms: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of an int64 array of canonical elements along `axis`."""
        if self.p == 2:
            return np.bitwise_xor.reduce(terms, axis=axis)
        out = 0
        for i in range(self.alpha):
            power = self.p ** i
            out = out + (terms // power % self.p).sum(axis=axis) % self.p * power
        return out

    def sub_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a - b of two int64 arrays of canonical elements."""
        if self.p == 2:
            return a ^ b
        if self.alpha == 1:
            return (a - b) % self.p
        out = 0
        for i in range(self.alpha):
            power = self.p ** i
            out = out + (a // power - b // power) % self.p * power
        return out

    def rref_array(self, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """The reduced row echelon form of an r x c int64 array of canonical
        elements, with its pivot columns in order. Per pivot: one row swap,
        the pivot row scaled by the pivot's inverse and one rank-1 update of
        every row (each skipped when it would change nothing), all through
        `matmul_array` and `sub_array`, so each field regime is handled
        there."""
        red = np.array(a, dtype=np.int64)
        pivots: list[int] = []
        for c in range(red.shape[1]):
            r = len(pivots)
            if r == len(red):
                break
            below = red[r:, c].nonzero()[0]
            if not below.size:
                continue
            if below[0]:
                red[[r, r + below[0]]] = red[[r + below[0], r]]
            if red[r, c] != 1:
                inverse = np.array([[self.inv(int(red[r, c]))]], dtype=np.int64)
                red[r] = self.matmul_array(inverse, red[r:r + 1])
            factors = red[:, c:c + 1].copy()
            factors[r] = 0
            if factors.any():
                red = self.sub_array(red, self.matmul_array(factors, red[r:r + 1]))
            pivots.append(c)
        return red, pivots

    def null_space_array(self, a: np.ndarray) -> np.ndarray:
        """Rows spanning {x : a x^T = 0}, one per free column of rref(a): that
        column's unit vector minus its entries at the pivot columns."""
        red, pivots = self.rref_array(a)
        free = [c for c in range(red.shape[1]) if c not in pivots]
        basis = np.zeros((len(free), red.shape[1]), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, pivots] = self.sub_array(0, red[:len(pivots), free]).T
        return basis

    def inverse_array(self, a: np.ndarray) -> np.ndarray:
        """The inverse of a square int64 array, read off rref([a I]);
        RankDeficient if a is singular."""
        n = len(a)
        if a.shape != (n, n):
            raise DimensionMismatch(f"inverse of a non-square {a.shape} matrix")
        red, pivots = self.rref_array(np.hstack([a, np.eye(n, dtype=np.int64)]))
        if pivots != list(range(n)):
            raise RankDeficient("matrix is singular")
        return red[:, n:]

    def _gather_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """int64 (exp, log) for `matmul_array`, built on first use: log[0]
        points past the 2(q-1) powers into a zero tail, so a term with a zero
        factor gathers 0."""
        if self._gather is None:
            q = self.order
            exp = np.zeros(4 * q - 3, dtype=np.int64)
            exp[:2 * (q - 1)] = self._exp
            log = np.array(self._log, dtype=np.int64)
            log[0] = 2 * (q - 1)
            self._gather = exp, log
        return self._gather

    # --- structure ----------------------------------------------------------

    def extension(self, ell: int) -> "FiniteField":
        """GF(q^ell) as GF(p^(alpha*ell)), with this field's embedding cached."""
        if ell == 1:
            return self
        ext = field_make(self.p, self.alpha * ell)
        ext.embedding_from(self)  # precompute and cache
        return ext

    def embedding_from(self, sub: "FiniteField") -> list[int]:
        """Embedding table sub -> self (field homomorphism on canonical reps)."""
        if sub is self:
            return list(range(self.order))
        key = (sub.p, sub.alpha)
        cached = self._embeddings.get(key)
        if cached is not None:
            return cached
        if sub.p != self.p or self.alpha % sub.alpha != 0:
            raise FieldMismatch(
                f"GF({sub.p}^{sub.alpha}) is not a subfield of GF({self.p}^{self.alpha})")
        # map the representation generator x of `sub` to the smallest root of
        # sub.modulus inside this field, then extend linearly over GF(p)
        root = None
        for cand in range(self.order):
            acc = 0
            for coef in reversed(sub.modulus):
                acc = self.add(self.mul(acc, cand), coef % self.p)
            if acc == 0:
                root = cand
                break
        if root is None:
            raise FieldMismatch("no embedding root found")
        table = [0] * sub.order
        for rep in range(sub.order):
            digits = sub.to_digits(rep)
            acc = 0
            for coef in reversed(digits):
                acc = self.add(self.mul(acc, root), coef)
            table[rep] = acc
        self._embeddings[key] = table
        return table

    def embed_array(self, a: np.ndarray, sub: "FiniteField") -> np.ndarray:
        """An int64 array over the subfield `sub` embedded into this field by
        one gather through the embedding table. Every embedding fixes the
        prime field rep for rep, so an array over GF(p) is returned as it is."""
        if sub is self or sub.order == self.p:
            return a
        return np.asarray(self.embedding_from(sub), dtype=np.int64)[a]

    def __repr__(self) -> str:
        if self.alpha == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.alpha})"

    def __reduce__(self):
        return (field_make, (self.p, self.alpha))


_FIELD_CACHE: dict[tuple[int, int], FiniteField] = {}


def _as_words(x: np.ndarray) -> np.ndarray:
    """Canonical elements as uint64, for the lane-packed product."""
    return np.asarray(x, dtype=np.int64).view(np.uint64)


def field_make(p: int, alpha: int = 1) -> FiniteField:
    """The field GF(p^alpha) with its canonical modulus (cached singleton).
    BadParams, naming the field asked for, unless p and alpha are integers
    (`operator.index`: 2.9 and "7" are refused, numpy integers pass)."""
    try:
        key = (operator.index(p), operator.index(alpha))
    except TypeError:
        raise BadParams(f"GF({p!r}^{alpha!r}): p and alpha must be integers") from None
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FiniteField(*key)
        _FIELD_CACHE[key] = field
    return field


class Matrix:
    """Dense rows x cols matrix over a finite field: its canonical entries,
    validated once and held as one read-only int64 array (`array()`)."""

    __slots__ = ("field", "_array")

    def __init__(self, field: FiniteField, data: Sequence[Sequence[int]],
                 rows: int | None = None, cols: int | None = None):
        self.field = field
        try:
            data = [[operator.index(x) % field.order for x in row] for row in data]
        except TypeError:
            raise BadParams("matrix entries must be integers") from None
        cols = (len(data[0]) if data else 0) if cols is None else cols
        if rows not in (None, len(data)) or any(len(row) != cols for row in data):
            raise DimensionMismatch(
                f"{len(data)} rows of lengths {sorted({len(row) for row in data})} "
                f"do not make a {len(data) if rows is None else rows} x {cols} matrix")
        self._array = np.array(data, dtype=np.int64).reshape(len(data), cols)
        self._array.flags.writeable = False

    @staticmethod
    def from_array(field: FiniteField, a: np.ndarray) -> "Matrix":
        """The matrix of a 2-d int64 array of canonical elements that a
        kernel built, copied once: no checks (its output is canonical by
        construction)."""
        m = Matrix.__new__(Matrix)
        m.field, m._array = field, np.array(a, dtype=np.int64)
        m._array.flags.writeable = False
        return m

    rows = property(lambda self: self._array.shape[0])
    cols = property(lambda self: self._array.shape[1])

    def array(self) -> np.ndarray:
        """The entries as a read-only rows x cols int64 array (not a copy)."""
        return self._array

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and other.field is self.field
                and np.array_equal(other._array, self._array))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._array.tolist())
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def _factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            alpha = 0
            t = q
            while t % p == 0:
                t //= p
                alpha += 1
            if t != 1:
                raise NonPrime(f"{q} is not a prime power")
            return p, alpha
    raise NonPrime(f"{q} is not a prime power")


# --- matrices through the array kernels -------------------------------------

def mat_rref(M: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the ordered pivot column indices (0-based)."""
    red, pivots = M.field.rref_array(M.array())
    return Matrix.from_array(M.field, red), pivots


def mat_rank(M: Matrix) -> int:
    """Rank over the matrix's field; 0 for an all-zero or empty matrix."""
    return len(M.field.rref_array(M.array())[1])


def _one_field(A: Matrix, B: Matrix) -> FiniteField:
    if A.field is not B.field:
        raise FieldMismatch(f"{A.field} and {B.field} differ; embed one into "
                            f"the other with `embed_array` first")
    return A.field


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """The product A B of two matrices over one field (`matmul_array`)."""
    field = _one_field(A, B)
    return Matrix.from_array(field, field.matmul_array(A.array(), B.array()))


def mat_solve(A: Matrix, b: Matrix) -> Matrix:
    """The unique x with A x = b over their one field; RankDeficient if none
    or not unique."""
    if b.cols != 1 or b.rows != A.rows:
        raise DimensionMismatch("b must be a column matching A's row count")
    field = _one_field(A, b)
    red, pivots = field.rref_array(np.hstack([A.array(), b.array()]))
    if A.cols in pivots:
        raise RankDeficient("inconsistent system")
    if len(pivots) < A.cols:
        raise RankDeficient("rank-deficient system: no unique solution")
    return Matrix.from_array(field, red[:A.cols, A.cols:])
