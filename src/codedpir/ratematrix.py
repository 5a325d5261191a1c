"""Achievable-rate matrices, interference matrices, the E-matrix view, capacity
formulas, and the capacity conditions.

A rate matrix Lambda_{kappa,nu} for an [n,k] code is a nu x n binary matrix
with kappa-regular columns whose row supports each contain an information set.
Its binary complement E stacks d weight-Gamma correctable erasure patterns over
beta complements of information sets; the two views are interchangeable and the
protocols consume whichever is closer to their bookkeeping. All rates are exact
`Fraction`s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from collections.abc import Sequence

from .codes import ErasurePattern, LinearCode, non_bit_entry
from .errors import (
    DimensionMismatch,
    KappaEqualsNu,
    NoValidSwap,
    NotAutomorphism,
    NotCoveringOrbit,
    ShapeMismatch,
)
from .families import LrcParams, lrc_optimal
from .rng import rng_for

Mask = tuple[int, ...]

LRC_BLOCK_ATTEMPTS = 60  # regular block layouts tried by lrc_E_matrix


@dataclass(frozen=True)
class RateMatrix:
    """Lambda_{kappa,nu}: nu x n binary, kappa-regular columns, rows cover
    information sets."""

    kappa: int
    nu: int
    rows: tuple[Mask, ...]

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def to_json_dict(self) -> dict:
        return {"kind": "lambda", "kappa": self.kappa, "nu": self.nu,
                "rows": [list(r) for r in self.rows]}


@dataclass(frozen=True)
class InterferencePair:
    """Per-column partition of 1..nu into covered (A) and uncovered (B) rows."""

    A: tuple[tuple[int, ...], ...]  # kappa x n, entries in 1..nu
    B: tuple[tuple[int, ...], ...]  # (nu-kappa) x n


@dataclass(frozen=True)
class ErasureMatrix:
    """E = (Ehat; Ebar): d weight-Gamma correctable rows over beta info-set
    complements; beta-column regular when valid."""

    d: int
    beta: int
    ehat: tuple[Mask, ...]
    ebar: tuple[Mask, ...]

    @property
    def n(self) -> int:
        return len((self.ehat + self.ebar)[0])

    @property
    def gamma(self) -> int:
        return sum(self.ehat[0]) if self.ehat else 0

    def info_sets(self) -> list[tuple[int, ...]]:
        """Information sets encoded by Ebar (supports of the complements)."""
        return [tuple(j for j, b in enumerate(row) if b == 0) for row in self.ebar]

    def stacked(self) -> list[Mask]:
        return list(self.ehat) + list(self.ebar)

    def to_json_dict(self) -> dict:
        return {"kind": "E", "d": self.d, "beta": self.beta,
                "ehat": [list(r) for r in self.ehat],
                "ebar": [list(r) for r in self.ebar]}


@dataclass(frozen=True)
class LambdaReport:
    """Outcome of validate_rate_matrix: either (kappa, nu) or a witness."""

    ok: bool
    kappa: int | None = None
    nu: int | None = None
    violation: str | None = None
    witness: int | tuple[int, int] | None = None


def validate_rate_matrix(code: LinearCode, rows: Sequence[Sequence[int]]) -> LambdaReport:
    """Check the two rate-matrix conditions; report the first violation, or
    "entry" with witness (row, column) for an entry other than integers 0, 1."""
    entry = non_bit_entry(rows)
    if entry is not None:
        return LambdaReport(False, violation="entry", witness=entry)
    rows = [tuple(int(x) for x in r) for r in rows]
    nu = len(rows)
    n = code.n
    if any(len(r) != n for r in rows):
        return LambdaReport(False, violation="shape", witness=None)
    col_weights = [sum(r[j] for r in rows) for j in range(n)]
    kappa = col_weights[0]
    for j, w in enumerate(col_weights):
        if w != kappa:
            return LambdaReport(False, violation="column-regularity", witness=j)
    for i, r in enumerate(rows):
        if not code.contains_information_set([j for j, b in enumerate(r) if b]):
            return LambdaReport(False, violation="row-information-set", witness=i)
    return LambdaReport(True, kappa=kappa, nu=nu)


def rate_matrix(code: LinearCode, rows: Sequence[Sequence[int]]) -> RateMatrix:
    """Validated RateMatrix; raises on violation."""
    report = validate_rate_matrix(code, rows)
    if not report.ok:
        from .errors import InvalidLambda
        raise InvalidLambda(f"{report.violation} at {report.witness}")
    # kappa/nu >= k/n always holds for a valid matrix; guard against regressions
    assert report.kappa * code.n >= report.nu * code.k
    return RateMatrix(report.kappa, report.nu, tuple(tuple(map(int, r)) for r in rows))


def interference_matrices(lam: RateMatrix) -> InterferencePair:
    """A/B with ascending row-index assignment per column (entries 1-based)."""
    n = lam.n
    a_cols = []
    b_cols = []
    for j in range(n):
        covered = [u + 1 for u in range(lam.nu) if lam.rows[u][j]]
        uncovered = [u + 1 for u in range(lam.nu) if not lam.rows[u][j]]
        a_cols.append(covered)
        b_cols.append(uncovered)
    A = tuple(tuple(a_cols[j][i] for j in range(n)) for i in range(lam.kappa))
    B = tuple(tuple(b_cols[j][i] for j in range(n)) for i in range(lam.nu - lam.kappa))
    return InterferencePair(A, B)


def s_set(a: int, A: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Columns of A containing the value a (0-based column indices)."""
    if not A:
        return tuple()
    n = len(A[0])
    return tuple(j for j in range(n) if any(row[j] == a for row in A))


# --- capacities and rates ---------------------------------------------------------

def capacity_finite(n: int, k: int, f: int) -> Fraction:
    """MDS-PIR capacity for f files on an [n,k]-coded system."""
    if f < 1 or not 0 <= k <= n or n < 1:
        raise DimensionMismatch("need f >= 1, n >= 1 and 0 <= k <= n")
    if k == n:
        return Fraction(0)
    return Fraction(n - k, n) / (1 - Fraction(k, n) ** f)


def capacity_asymptotic(n: int, k: int) -> Fraction:
    """MDS-PIR capacity in the infinite-file limit: (n-k)/n."""
    if not 0 <= k <= n or n < 1:
        raise DimensionMismatch("need n >= 1 and 0 <= k <= n")
    return Fraction(n - k, n)


def rate_protocol1(kappa: int, nu: int, k: int, n: int, f: int) -> Fraction:
    """Download rate of the file-dependent protocol for a Lambda_{kappa,nu}."""
    if kappa == nu:
        raise KappaEqualsNu("rate formula undefined for kappa = nu")
    return Fraction((nu - kappa) * k, kappa * n) / (1 - Fraction(kappa, nu) ** f)


def beta_d_minimal(k: int, gamma: int) -> tuple[int, int]:
    """Smallest (beta, d) with beta*k = gamma*d: LCM(k, Gamma)/k and /Gamma."""
    if gamma < 1:
        raise DimensionMismatch("Gamma must be >= 1")
    lcm = k * gamma // gcd(k, gamma)
    return lcm // k, lcm // gamma


# --- capacity conditions ------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    witness_s: int | None = None
    witness_value: int | None = None


def necessary_condition(code: LinearCode) -> ConditionReport:
    """Generalized-Hamming-weight test d_s >= (n/k) s for all s, each d_s
    exact (`LinearCode.generalized_hamming_weight`; TooLarge past its
    enumeration budget)."""
    for s in range(1, code.k + 1):
        ds = code.generalized_hamming_weight(s)
        if ds * code.k < code.n * s:
            return ConditionReport(False, witness_s=s, witness_value=ds)
    return ConditionReport(True)


def lambda_from_automorphisms(code: LinearCode, perms: Sequence[Sequence[int]],
                              info_set: Sequence[int] | None = None) -> RateMatrix:
    """Capacity-achieving Lambda_{k,n} from n automorphisms covering every
    orbit; DimensionMismatch unless `perms` is a sequence."""
    n = code.n
    if not isinstance(perms, Sequence):
        raise DimensionMismatch(f"automorphisms must be a list of n={n} permutations")
    if len(perms) != n:
        raise NotCoveringOrbit(f"need exactly n={n} automorphisms")
    for p in perms:
        if not code.is_automorphism(p):
            raise NotAutomorphism(f"{list(p)} does not preserve the code")
    for j in range(n):
        if sorted(p[j] for p in perms) != list(range(n)):
            raise NotCoveringOrbit(f"orbit of coordinate {j} does not cover 0..n-1")
    if info_set is None:
        info_set = code.information_set()
    rows = []
    for p in perms:
        image = {p[j] for j in info_set}
        rows.append(tuple(1 if j in image else 0 for j in range(n)))
    lam = rate_matrix(code, rows)
    assert lam.kappa * n == lam.nu * code.k, "automorphism matrix must hit k/n"
    return lam


def lambda_generic(code: LinearCode, seed: int = 0) -> RateMatrix:
    """The always-existing Lambda_{k, k+Gamma} with Gamma = min(k, d_min - 1).

    Fills the interference matrix A: row i gets value k+i on the i-th chosen
    information set, then the remaining slots take 1..k cyclically in
    column-major order, which keeps per-column values distinct.
    """
    n, k = code.n, code.k
    gamma = min(k, code.min_distance() - 1)
    rng = rng_for(seed, "lambda-generic")
    info_sets = [code.random_information_set(rng) for _ in range(gamma)]
    A = [[0] * n for _ in range(k)]
    for i, iset in enumerate(info_sets):
        for j in iset:
            A[i][j] = k + i + 1
    counter = 0
    for j in range(n):
        for i in range(k):
            if A[i][j] == 0:
                A[i][j] = counter % k + 1
                counter += 1
    nu = k + gamma
    rows = []
    for u in range(1, nu + 1):
        cols = {j for j in range(n) if any(A[i][j] == u for i in range(k))}
        rows.append(tuple(1 if j in cols else 0 for j in range(n)))
    return rate_matrix(code, rows)


# --- Lambda <-> E ------------------------------------------------------------------

def lambda_to_E(lam: RateMatrix) -> ErasureMatrix:
    """Binary complement, splitting the first kappa rows into Ehat."""
    d, beta = lam.kappa, lam.nu - lam.kappa
    comp = [tuple(1 - b for b in row) for row in lam.rows]
    return ErasureMatrix(d=d, beta=beta, ehat=tuple(comp[:d]), ebar=tuple(comp[d:]))


def E_to_lambda(E: ErasureMatrix) -> list[Mask]:
    """Binary complement of the stacked (Ehat; Ebar)."""
    rows = E.stacked()
    if any(len(r) != E.n for r in rows):
        raise ShapeMismatch("ragged erasure matrix")
    return [tuple(1 - b for b in row) for row in rows]


# --- locality-code E-matrix construction ----------------------------------------------

def lrc_E_matrix(params: LrcParams, code: LinearCode | None = None) -> ErasureMatrix:
    """(n-k)-regular n x n erasure matrix for a distance-optimal locality code.

    Initializes the rotating block structure (one rho_l-regular square block
    per column partition, cyclically shifted across row partitions) plus
    all-parity bottom rows, then runs the r-bar swap iterations moving one
    erasure per active column partition into the tail columns. Swap rows are
    chosen greedily (descending block weight, ascending row index) and each
    iteration is re-verified for correctability, backtracking over the
    active-partition choice if needed.

    The regular blocks are a free choice; plain circulants are tried first and
    seeded regular variants afterwards, because for some compliant codes a
    particular block choice leaves an initialized row uncorrectable.
    """
    if code is None:
        code = lrc_optimal(params)
    n, k = params.n, params.k
    n_c, L, r_bar = params.n_c, params.L, params.r_bar
    m = (n - k) // L
    t = (n - k) % L
    rho = [m + 1] * t + [m] * (L - t)
    psets = params.parity_sets()
    parity_all = [j for ps in psets for j in ps]
    rng = rng_for(0, "lrc-E-blocks")
    for attempt in range(LRC_BLOCK_ATTEMPTS):
        pis = _regular_blocks(rho, n_c, attempt, rng)
        E = [[0] * n for _ in range(n)]
        for part_i in range(L):
            for part_h in range(L):
                block = pis[(part_h - part_i) % L]
                for x in range(n_c):
                    for y in range(n_c):
                        if block[x][y]:
                            E[part_i * n_c + x][part_h * n_c + y] = 1
        for i in range(r_bar):
            for j in parity_all:
                E[L * n_c + i][j] = 1
        if not all(code.erasure_correctable(ErasurePattern(n, tuple(row)))
                   for row in E[:L * n_c]):
            continue
        ok = True
        for it in range(r_bar):
            if not _swap_iteration(E, code, params, psets, L * n_c + it):
                ok = False
                break
        if not ok:
            continue
        for row in E:
            assert sum(row) == n - k
            assert code.erasure_correctable(ErasurePattern(n, tuple(row)))
        for j in range(n):
            assert sum(E[i][j] for i in range(n)) == n - k
        return ErasureMatrix(d=k, beta=n - k,
                             ehat=tuple(tuple(r) for r in E[:k]),
                             ebar=tuple(tuple(r) for r in E[k:]))
    raise NoValidSwap(f"no correctable block layout found in {LRC_BLOCK_ATTEMPTS} attempts")


def _regular_blocks(rho: list[int], n_c: int, attempt: int, rng) -> list[list[list[int]]]:
    """One rho_l-regular n_c x n_c block per column partition.

    Attempt 0 is the plain circulant (consecutive windows); later attempts
    phase-shift each block and finally draw seeded unions of disjoint
    permutation matrices.
    """
    blocks = []
    for idx, r_l in enumerate(rho):
        block = [[0] * n_c for _ in range(n_c)]
        if attempt < n_c:
            phase = (attempt * (idx + 1)) % n_c
            for x in range(n_c):
                for y in range(r_l):
                    block[x][(x + phase + y) % n_c] = 1
        else:
            # union of r_l distinct cyclic shifts: regular by construction
            for shift in rng.sample(range(n_c), r_l):
                for x in range(n_c):
                    block[x][(x + shift) % n_c] = 1
        blocks.append(block)
    return blocks


def _swap_iteration(E, code: LinearCode, params: LrcParams, psets, z_col: int) -> bool:
    """One swap iteration: try each first-partition choice in ascending order."""
    n_c, L = params.n_c, params.L
    for j0 in range(L):
        moves = _plan_swaps(E, params, psets, j0)
        if moves is None:
            continue
        for row, p in moves:
            E[row][p] = 0
            E[row][z_col] = 1
        touched = {row for row, _ in moves}
        if all(code.erasure_correctable(
                ErasurePattern(params.n, tuple(E[row]))) for row in touched):
            return True
        for row, p in moves:  # undo and try the next candidate
            E[row][p] = 1
            E[row][z_col] = 0
    return False


def _plan_swaps(E, params: LrcParams, psets, j0: int):
    """Rows and parity columns to swap for active first partition j0, or None."""
    n_c, L = params.n_c, params.L
    moves = []
    for part_i in range(L):
        j_active = (j0 + part_i) % L
        pcols = psets[j_active]
        rows = list(range(part_i * n_c, (part_i + 1) * n_c))
        block = range(j_active * n_c, (j_active + 1) * n_c)
        weights = {r: sum(E[r][c] for c in block) for r in rows}
        candidates = sorted((r for r in rows if any(E[r][p] for p in pcols)),
                            key=lambda r: (-weights[r], r))
        assignment = _match_rows_to_parities(E, candidates, pcols)
        if assignment is None:
            return None
        moves.extend(assignment)
    return moves


def _match_rows_to_parities(E, candidates, pcols):
    """Assign each parity column a distinct candidate row holding a 1 there."""
    chosen: dict[int, int] = {}

    def augment(p, seen):
        for r in candidates:
            if r in seen or not E[r][p]:
                continue
            seen.add(r)
            if r not in chosen or augment(chosen[r], seen):
                chosen[r] = p
                return True
        return False

    for p in pcols:
        if not augment(p, set()):
            return None
    return [(r, p) for r, p in chosen.items()]
