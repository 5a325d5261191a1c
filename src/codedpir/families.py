"""Constructors for the code families the protocols are exercised on.

Families: generalized Reed-Solomon, binary Reed-Muller (with its translate
machinery), cyclic codes, distance-optimal (r, delta) information-locality
codes assembled Pyramid-style from a systematic MDS parity-check, and the
(U | U+V) construction with a repetition V. Each family also has a JSON
code-spec form so fixtures and CLI inputs are plain data files.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from .codes import LinearCode, code_from_generator, standard_form_parity
from .errors import (
    BadDimensions,
    BadParams,
    BadOrder,
    DuplicatePoint,
    NonBinary,
    NotDivisor,
    NotMdsCompliant,
    ZeroMultiplier,
)
from .fields import FiniteField, Matrix, _factor_prime_power, _poly_rem, field_make


# --- generalized Reed-Solomon -------------------------------------------------

def grs_code(field: FiniteField, n: int, k: int,
             eval_points: list[int] | None = None,
             multipliers: list[int] | None = None) -> LinearCode:
    """[n,k] GRS code; all-ones multipliers give a classical RS code."""
    if eval_points is None:
        if n > field.order:
            raise DuplicatePoint(f"n={n} exceeds field order {field.order}")
        eval_points = list(range(n))
    if multipliers is None:
        multipliers = [1] * n
    if len(set(eval_points)) != n or len(eval_points) != n:
        raise DuplicatePoint("evaluation points must be distinct")
    if len(multipliers) != n or any(m % field.order == 0 for m in multipliers):
        raise ZeroMultiplier("multipliers must be nonzero")
    G = Matrix(field, [[field.mul(multipliers[j], field.pow(eval_points[j], i))
                        for j in range(n)] for i in range(k)])
    meta = {"family": "grs", "points": list(eval_points),
            "multipliers": list(multipliers)}
    code = code_from_generator(G, meta=meta, known_dmin=n - k + 1)
    if n <= 16 and k < n:
        code.known_dmin = None
        d = code.min_distance()
        if d != n - k + 1:
            raise NotMdsCompliant("GRS construction is not MDS")  # pragma: no cover
    return code


# --- binary Reed-Muller ---------------------------------------------------------

def _rm_monomials(v: int, m: int) -> list[tuple[int, ...]]:
    """Variable-index masks of all monomials of degree <= v, graded lex order."""
    monos = [mu for mu in itertools.product((0, 1), repeat=m) if sum(mu) <= v]
    # degree first, then z1 < z2 < ...: higher mask earlier within a degree
    monos.sort(key=lambda mu: (sum(mu), [-x for x in mu]))
    return monos


def rm_code(v: int, m: int) -> LinearCode:
    """The v-th order binary Reed-Muller code of length 2^m.

    Coordinate i (0-based) corresponds to the evaluation point whose bits are
    (mu_1, ..., mu_m) with mu_j = (i >> (j-1)) & 1; generator rows are the
    monomial evaluations in graded lexicographic order.
    """
    if not (0 <= v <= m <= 10):
        raise BadOrder(f"need 0 <= v <= m <= 10, got ({v},{m})")
    f2 = field_make(2)
    n = 1 << m
    rows = []
    for mu in _rm_monomials(v, m):
        row = []
        for point in range(n):
            val = 1
            for j in range(m):
                if mu[j] and not (point >> j) & 1:
                    val = 0
                    break
            row.append(val)
        rows.append(row)
    G = Matrix(f2, rows)
    return code_from_generator(G, meta={"family": "reed-muller", "v": v, "m": m},
                               known_dmin=2 ** (m - v))


def rm_information_set(v: int, m: int) -> tuple[int, ...]:
    """Coordinates of all points of Hamming weight <= v (0-based)."""
    if not (0 <= v <= m):
        raise BadOrder(f"need 0 <= v <= m, got ({v},{m})")
    return tuple(sorted(point for point in range(1 << m)
                        if bin(point).count("1") <= v))


def rm_translate(coords, sigma) -> tuple[int, ...]:
    """Image of a coordinate set under the point translation mu -> mu + sigma."""
    if isinstance(sigma, int):
        shift = sigma
    else:
        shift = sum((int(b) & 1) << j for j, b in enumerate(sigma))
    return tuple(sorted(c ^ shift for c in coords))


# --- cyclic codes -----------------------------------------------------------------

def cyclic_code(field: FiniteField, n: int, genpoly: list[int]) -> LinearCode:
    """Cyclic [n, n - deg g] code with generator polynomial g (low-to-high)."""
    g = [x % field.order for x in genpoly]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        raise NotDivisor("zero generator polynomial")
    xn1 = [field.neg(1)] + [0] * (n - 1) + [1]
    if _poly_rem(xn1, g, field):
        raise NotDivisor("g(x) does not divide x^n - 1")
    k = n - (len(g) - 1)
    rows = [[0] * i + g + [0] * (n - len(g) - i + 1 - 1) for i in range(k)]
    G = Matrix(field, [row[:n] for row in rows])
    code = code_from_generator(G, meta={"family": "cyclic", "genpoly": g})
    shift = [(j + 1) % n for j in range(n)]
    assert code.is_automorphism(shift), "cyclic code must be shift-invariant"
    return code


# --- distance-optimal (r, delta) information-locality codes -------------------------

@dataclass
class LrcParams:
    """Blocks of the locality parity-check: local P_j and global mix M_j."""

    q: int
    r: int
    delta: int
    Lc: int
    n: int
    k: int
    local_parity: list[list[list[int]]] = dc_field(default_factory=list)  # P_j
    global_mix: list[list[list[int]]] = dc_field(default_factory=list)    # M_j

    @property
    def n_c(self) -> int:
        return self.r + self.delta - 1

    @property
    def L(self) -> int:
        return self.n // self.n_c

    @property
    def r_bar(self) -> int:
        return self.n % self.n_c

    @property
    def global_count(self) -> int:
        return self.n - self.Lc * self.n_c

    def parity_sets(self) -> list[list[int]]:
        """The coordinate sets P_1..P_{L+1} of local then global parities (0-based)."""
        sets = []
        for j in range(1, self.Lc + 1):
            sets.append(list(range((j - 1) * self.n_c + self.r, j * self.n_c)))
        for j in range(self.Lc + 1, self.L + 1):
            sets.append(list(range((j - 1) * self.n_c, j * self.n_c)))
        sets.append(list(range(self.L * self.n_c, self.n)))
        return sets


def lrc_optimal(params: LrcParams) -> LinearCode:
    """Code with the block locality parity-check, after checking that every
    local code and the assembled MDS-side matrix are MDS."""
    f = field_make(*_factor_prime_power(params.q))
    r, delta, Lc = params.r, params.delta, params.Lc
    n_c, n, k, a = params.n_c, params.n, params.k, params.global_count
    if k % r != 0 or Lc != k // r:
        raise BadDimensions("need r | k and Lc = k/r")
    if a < 0 or Lc * n_c + a != n:
        raise BadDimensions("n, r, delta, Lc inconsistent")
    if len(params.local_parity) != Lc or len(params.global_mix) != Lc:
        raise BadDimensions("need one P_j and one M_j per local code")
    dm1 = delta - 1
    hrows = []
    for j in range(Lc):
        P = params.local_parity[j]
        if len(P) != dm1 or any(len(row) != r for row in P):
            raise BadDimensions(f"P_{j+1} must be (delta-1) x r")
        for i in range(dm1):
            row = [0] * n
            for c in range(r):
                row[j * n_c + c] = P[i][c]
            row[j * n_c + r + i] = 1
            hrows.append(row)
    for i in range(a):
        row = [0] * n
        for j in range(Lc):
            M = params.global_mix[j]
            if len(M) != a or any(len(mrow) != r for mrow in M):
                raise BadDimensions(f"M_{j+1} must be a x r")
            for c in range(r):
                row[j * n_c + c] = M[i][c]
        row[Lc * n_c + i] = 1
        hrows.append(row)
    H = Matrix(f, hrows)
    # local codes must be [r+delta-1, r] MDS
    for j in range(Lc):
        if not _is_mds_parity_check(f, params.local_parity[j], r):
            raise NotMdsCompliant(f"local code {j+1} is not MDS")
    if not mds_compliant(params):
        raise NotMdsCompliant("assembled MDS-side parity check is not MDS")
    code = LinearCode.from_parity_check(H, meta={"family": "lrc", "params": params})
    if code.k != k:
        raise BadDimensions(f"parity check yields dimension {code.k}, expected {k}")
    return code


def mds_compliant(params: LrcParams) -> bool:
    """Does the stacked (P | M | I) matrix define an [n', k] MDS code?"""
    f = field_make(*_factor_prime_power(params.q))
    rows = []
    for i in range(params.delta - 1):
        rows.append([x for j in range(params.Lc) for x in params.local_parity[j][i]])
    for i in range(params.global_count):
        rows.append([x for j in range(params.Lc) for x in params.global_mix[j][i]])
    return _is_mds_parity_check(f, rows, params.Lc * params.r)


def _is_mds_parity_check(f: FiniteField, left: list[list[int]], width: int) -> bool:
    """Is (left | I) the parity check of an MDS code: is every set of
    len(left) columns an independent, hence correctable, erasure pattern?
    Level m of one column walk counts them. A parity check with no rows is
    trivially MDS."""
    m = len(left)
    h = Matrix(f, [list(row) + [int(t == i) for t in range(m)]
                   for i, row in enumerate(left)], m, width + m)
    code = LinearCode.from_parity_check(h)
    return code._count(m) == comb(h.cols, m)


def pyramid_code(field: FiniteField, r: int, delta: int, Lc: int, a: int,
                 eval_points: list[int] | None = None) -> tuple[LinearCode, LrcParams]:
    """Distance-optimal locality code built by splitting a systematic MDS code.

    Starts from a systematic [n' = Lc*r + delta - 1 + a, k = Lc*r] RS code,
    splits the first delta-1 parity rows into per-group local parities, and
    keeps the remaining a rows as global parities.
    """
    k = Lc * r
    nprime = k + (delta - 1) + a
    rs = grs_code(field, nprime, k, eval_points=eval_points)
    # systematic parity check (P' | I) on the parity coordinates
    pprime = standard_form_parity(rs, list(range(k)))[0].array()
    local_parity = [pprime[:delta - 1, j * r:(j + 1) * r].tolist() for j in range(Lc)]
    global_mix = [pprime[delta - 1:, j * r:(j + 1) * r].tolist() for j in range(Lc)]
    n = Lc * (r + delta - 1) + a
    params = LrcParams(q=field.order, r=r, delta=delta, Lc=Lc, n=n, k=k,
                       local_parity=local_parity, global_mix=global_mix)
    return lrc_optimal(params), params


# --- (U | U+V) with V the repetition code ------------------------------------------

def uuv_code(U: LinearCode) -> LinearCode:
    """[2*n1, k1+1] code (u | u+v) with v ranging over the repetition code."""
    if U.field.order != 2:
        raise NonBinary("component code must be binary")
    n1, k1 = U.n, U.k
    g = U.G.array()
    G = Matrix.from_array(U.field, np.vstack([np.hstack([g, g]), [0] * n1 + [1] * n1]))
    return code_from_generator(G, meta={"family": "uuv", "n1": n1, "k1": k1})


# --- JSON code specs -------------------------------------------------------------

def _ints(value, depth: int):
    """value as nested lists of integers, `depth` list levels deep; each
    integer through `operator.index`, so 2.5 or "2" raises TypeError."""
    if depth == 0:
        return operator.index(value)
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [_ints(x, depth - 1) for x in value]


def _spec_field(spec: dict, name: str, depth: int = 0, optional: bool = False):
    """spec[name] read by `_ints`; None for an absent optional field.
    BadParams naming the family and the field when it is missing or bad."""
    if optional and spec.get(name) is None:
        return None
    try:
        return _ints(spec[name], depth)
    except KeyError:
        raise BadParams(f"{spec['family']!r} code spec has no field {name!r}") from None
    except (TypeError, ValueError) as exc:
        raise BadParams(f"{spec['family']!r} code spec: bad field {name!r} "
                        f"({exc})") from None


def code_from_spec(spec: dict) -> LinearCode:
    """Build a code from its JSON spec; see each family for its fields."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise BadParams("a code spec is a JSON object with a \"family\" field")
    family = spec["family"]
    if family == "raw":
        f = field_make(*_factor_prime_power(_spec_field(spec, "q")))
        return code_from_generator(Matrix(f, _spec_field(spec, "generator", 2)))
    if family == "grs":
        f = field_make(*_factor_prime_power(_spec_field(spec, "q")))
        return grs_code(f, _spec_field(spec, "n"), _spec_field(spec, "k"),
                        eval_points=_spec_field(spec, "points", 1, optional=True),
                        multipliers=_spec_field(spec, "multipliers", 1, optional=True))
    if family == "reed-muller":
        return rm_code(_spec_field(spec, "v"), _spec_field(spec, "m"))
    if family == "cyclic":
        f = field_make(*_factor_prime_power(_spec_field(spec, "q")))
        return cyclic_code(f, _spec_field(spec, "n"), _spec_field(spec, "genpoly", 1))
    if family == "lrc":
        params = LrcParams(*[_spec_field(spec, name)
                             for name in ("q", "r", "delta", "Lc", "n", "k")],
                           local_parity=_spec_field(spec, "P", 3),
                           global_mix=_spec_field(spec, "M", 3))
        return lrc_optimal(params)
    if family == "uuv":
        if "U" not in spec:
            raise BadParams("'uuv' code spec has no field 'U'")
        return uuv_code(code_from_spec(spec["U"]))
    raise BadDimensions(f"unknown code family {family!r}")


def spec_from_code(code: LinearCode) -> dict:
    """Round-trippable raw spec (families keep their own spec if known)."""
    meta = code.meta
    if meta.get("family") == "grs":
        return {"family": "grs", "q": code.field.order, "n": code.n, "k": code.k,
                "points": meta["points"], "multipliers": meta["multipliers"]}
    if meta.get("family") == "reed-muller":
        return {"family": "reed-muller", "v": meta["v"], "m": meta["m"]}
    return code.to_json_dict()
