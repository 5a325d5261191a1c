"""Rate optimization: enumerate correctable erasure patterns and solve the
column-matching selection problem for the best structure matrix.

Weight-Gamma structure rows must be correctable by the Hadamard product of
the storage and query codes; without a query code (the repetition code, the
noncolluding case) that product is the storage code. The one search loop
starts at the floor Gamma = min(k, d_min(product) - 1), where every
weight-Gamma row is correctable, so the window construction below finds a
structure whenever that pattern list is exhaustive; it raises Gamma until the
selection becomes infeasible. A `PatternList` holds support bitmasks only,
in ascending order, the one order every list is kept in: an exhaustive list
is one level of the code's column walk over H (`LinearCode.correctable_masks`),
which extends every independent subset of H's columns by each later column, a
block of subsets at a time in arrays. The code keeps the levels of its
deepest walk, so the column search of `min_distance`, a noncolluding code's
information-set list (weight n - k, asked first) and all its Gamma lists come
from one walk. A sampled list makes all its seeded draws at once (sort keys
from one `randbytes` call give each draw a column order and w of its n - k
pivot positions), takes every order's pivots in one batched call
(`LinearCode.pivot_columns`), decides every bit rotation of every distinct
find in one more (`LinearCode.correctable_shifts`), and lists the distinct
correctable rotations, sorted in place, all as arrays of masks. The
selection (d weight-Gamma rows and beta information-set complements, every
stacked column sum beta, rows may repeat) reads each list in that order, so
its answer depends on a list's set of masks only; it is solved exactly by a
depth-first search on the most constrained deficient column, memoizing
infeasible states.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .codes import LinearCode, mask_bits, pattern_weight
from .errors import BadParams, RateOneProduct, TooLarge
from .protocol3 import check_query_code
from .ratematrix import ErasureMatrix, beta_d_minimal
from .rng import rng_for, seed_index

EXHAUSTIVE_LIMIT = 100_000   # enumerate all weight-w patterns up to this count
SAMPLE_BUDGET = 100_000      # randomized pivot draws otherwise
STATE_BUDGET = 5_000_000     # DFS state guard
WINDOW_LAYOUTS = 200         # information-set complements the fast path tries
WINDOW_SHUFFLES = 60         # seeded window orders per complement


@dataclass(frozen=True)
class PatternList:
    """Distinct correctable erasure patterns of one weight on n positions,
    kept as support bitmasks (bit j set iff position j is erased) in
    ascending order (an information-set list serves every Gamma of its
    optimization)."""

    weight: int
    n: int
    masks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.masks)


def compute_erasure_pattern_list(code: LinearCode, w: int,
                                 budget: int = EXHAUSTIVE_LIMIT,
                                 sample_budget: int = SAMPLE_BUDGET,
                                 seed: int = 0) -> PatternList:
    """All weight-w patterns correctable by `code`, or a seeded random sample,
    as ascending masks.

    Exhaustive when C(n, w) fits the budget: `code.correctable_masks(w)`,
    level w of the code's kept column walk over H. Otherwise
    `_drawn_supports` makes `sample_budget` draws of a column order of H and
    w of the positions of its n - k pivots; the w drawn pivots are a find
    (independent by construction). Every cyclic shift (bit rotation) of every
    distinct find is then decided at once (`LinearCode.correctable_shifts`),
    and the list is the distinct correctable shifts, sorted in place: all
    as arrays of masks (int64 below 63 positions, Python integers
    otherwise). BadParams for a weight, budget or seed that is not an
    integer, or one that is negative.
    """
    budget, sample_budget = _check_budgets(budget, sample_budget)
    seed = seed_index(seed)
    w = pattern_weight(w)
    n = code.n
    if w == 0 or comb(n, w) <= budget:
        return PatternList(w, n, code.correctable_masks(w))
    if w > n - code.k:
        return PatternList(w, n, ())
    supports = _drawn_supports(code, w, sample_budget, rng_for(seed, "patterns", w))
    bits = mask_bits(n)
    masks = np.bitwise_or.reduce(bits[supports], axis=1)
    first = np.unique(masks, return_index=True)[1]  # one draw per distinct find
    # column t holds each find rotated by t bits (shift 0: the find itself),
    # its low n - t bits moved up and its high t bits down
    t = np.arange(n)
    rotations = masks[first, None] & (bits[n - t - 1] * 2 - 1)
    rotations <<= t
    rotations |= masks[first, None] >> (n - t)
    listed = rotations[code.correctable_shifts(supports[first])]
    del rotations
    listed.sort()  # in place: np.unique without indices would load numpy.ma (~1 MB)
    return PatternList(w, n, tuple(listed[np.diff(listed, prepend=-1) != 0].tolist()))


def _drawn_supports(code: LinearCode, w: int, draws: int, rng) -> np.ndarray:
    """The supports of `draws` draws from one `randbytes` call of n + (n - k)
    uint64 sort keys per draw, as a draws x w array: the stable sort of the
    first n is a column order, and the support is the order's pivot columns
    of H (one `LinearCode.pivot_columns` call for all orders) at the
    positions of the w smallest of the rest."""
    n, r = code.n, code.n - code.k
    keys = np.frombuffer(rng.randbytes(8 * draws * (n + r)), "<u8").reshape(draws, n + r)
    orders = np.argsort(keys[:, :n], axis=1, kind="stable")
    picks = np.argsort(keys[:, n:], axis=1, kind="stable")[:, :w]
    del keys
    return np.take_along_axis(code.pivot_columns(orders), picks, axis=1)


def _check_budgets(budget: int, sample_budget: int) -> tuple[int, int]:
    """Both budgets as ints: BadParams naming a budget that is not an integer
    (`seed_index`: 10.5 and "10" are refused), or for a negative one."""
    budget = seed_index(budget, "the budget")
    sample_budget = seed_index(sample_budget, "the sample budget")
    if budget < 0 or sample_budget < 0:
        raise BadParams(f"budgets must be >= 0; got budget {budget}, "
                        f"sample budget {sample_budget}")
    return budget, sample_budget


def compute_matrix(lgamma: PatternList, lnk: PatternList, d: int,
                   beta: int) -> ErasureMatrix | None:
    """Pick d rows from lgamma and beta rows from lnk whose stacked matrix is
    beta-column regular; None when infeasible. Exact search.

    A constructive fast path is tried first (one information-set complement
    repeated beta times, with the weight-Gamma rows laid out as cyclic windows
    over the information set); the exact branch-and-bound runs otherwise.
    """
    if not lgamma or not lnk:
        return None
    n = lgamma.n
    gamma, nk = lgamma.weight, lnk.weight
    if d * gamma + beta * nk != beta * n:
        return None
    masks_g, masks_k = lgamma.masks, lnk.masks
    fast = _window_construction(masks_g, masks_k, n, gamma, d, beta)
    if fast is not None:
        return fast
    cover_g = [[i for i, msk in enumerate(masks_g) if (msk >> j) & 1] for j in range(n)]
    cover_k = [[i for i, msk in enumerate(masks_k) if (msk >> j) & 1] for j in range(n)]
    supports_g = [[j for j in range(n) if msk >> j & 1] for msk in masks_g]
    supports_k = [[j for j in range(n) if msk >> j & 1] for msk in masks_k]
    chosen_g, chosen_k = [], []  # indices into masks_g and masks_k
    failed: set[tuple] = set()
    states = 0

    def dfs(counts: list[int], r1: int, r2: int) -> bool:
        nonlocal states
        deficits = [beta - c for c in counts]
        total = sum(deficits)
        if total != r1 * gamma + r2 * nk:
            return False
        if r1 == 0 and r2 == 0:
            return total == 0
        remaining = r1 + r2
        if any(df > remaining for df in deficits):
            return False
        key = (bytes(counts), r1, r2)
        if key in failed:
            return False
        states += 1
        if states > STATE_BUDGET:
            raise TooLarge("selection search exceeded the state budget")
        # branch on the deficient column with the fewest covering rows
        best_j, best_cands = -1, None
        for j in range(n):
            if deficits[j] <= 0:
                continue
            cands = (len(cover_g[j]) if r1 else 0) + (len(cover_k[j]) if r2 else 0)
            if best_cands is None or cands < best_cands:
                best_j, best_cands = j, cands
        options = []
        if r1:
            options.extend((supports_g[i], i, chosen_g, 1, 0) for i in cover_g[best_j])
        if r2:
            options.extend((supports_k[i], i, chosen_k, 0, 1) for i in cover_k[best_j])
        for support, i, chosen, dg, dk in options:
            if any(counts[j] >= beta for j in support):
                continue
            for j in support:
                counts[j] += 1
            chosen.append(i)
            if dfs(counts, r1 - dg, r2 - dk):
                return True
            chosen.pop()
            for j in support:
                counts[j] -= 1
        failed.add(key)
        return False

    if not dfs([0] * n, d, beta):
        return None
    return ErasureMatrix(d=d, beta=beta,
                         ehat=tuple(_unmask(masks_g[i], n) for i in chosen_g),
                         ebar=tuple(_unmask(masks_k[i], n) for i in chosen_k))


def _unmask(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 row of a support bitmask."""
    return tuple(mask >> j & 1 for j in range(n))


def _window_construction(masks_g: tuple[int, ...], masks_k: tuple[int, ...],
                         n: int, gamma: int, d: int, beta: int) -> ErasureMatrix | None:
    """Repeat one info-set complement beta times; tile its complement with d
    cyclic weight-Gamma windows (offsets i*Gamma cover each coordinate beta
    times). Window layouts are tried over rotations of the sorted coordinate
    order and then over seeded shuffles; a layout is accepted only if every
    window is itself a listed pattern."""
    set_g = set(masks_g)
    rng = rng_for(0, "window-layout")

    def try_order(order: list[int]) -> ErasureMatrix | None:
        k_eff = len(order)
        windows = []
        for i in range(d):
            start = (i * gamma) % k_eff
            msk = 0
            for t in range(gamma):
                msk |= 1 << order[(start + t) % k_eff]
            if msk not in set_g:
                return None
            windows.append(msk)
        counts = [sum((m >> j) & 1 for m in windows) for j in order]
        if any(c != beta for c in counts):
            return None
        return ErasureMatrix(d=d, beta=beta,
                             ehat=tuple(_unmask(m, n) for m in windows),
                             ebar=tuple(_unmask(s_mask, n) for _ in range(beta)))

    for s_mask in masks_k[:WINDOW_LAYOUTS]:
        comp = [j for j in range(n) if not (s_mask >> j) & 1]
        k_eff = len(comp)
        if gamma > k_eff:
            return None  # windows cannot fit inside the information set
        for rot in range(k_eff):
            result = try_order(comp[rot:] + comp[:rot])
            if result is not None:
                return result
        order = list(comp)
        for _ in range(WINDOW_SHUFFLES):
            rng.shuffle(order)
            result = try_order(order)
            if result is not None:
                return result
    return None


def optimize_rate(code: LinearCode, query_code: LinearCode | None = None,
                  seed: int = 0,
                  budget: int = EXHAUSTIVE_LIMIT, sample_budget: int = SAMPLE_BUDGET
                  ) -> tuple[ErasureMatrix | None, int]:
    """Largest Gamma with a feasible structure matrix, and that matrix.

    query_code None stands for the repetition code, whose product with the
    storage code is the storage code; a query code zero at some position
    raises StructureViolation (`protocol3.check_query_code`). Each Gamma
    is tried with the LCM-minimal (beta, d) of `beta_d_minimal`.
    """
    budget, sample_budget = _check_budgets(budget, sample_budget)
    if query_code is None:
        product = code
    else:
        check_query_code(query_code)
        product = code.hadamard_product(query_code)
    n, k = code.n, code.k
    if product.k >= n:
        raise RateOneProduct("Hadamard product has rate 1")
    # d_min = 1 degenerates the floor to 0; a single-symbol subquery is still
    # the smallest meaningful start
    gamma = max(1, min(k, product.min_distance() - 1))
    e_opt: ErasureMatrix | None = None
    gamma_opt = gamma
    lnk = compute_erasure_pattern_list(code, n - k, budget=budget,
                                       sample_budget=sample_budget, seed=seed)
    while gamma <= n - product.k:
        lg = compute_erasure_pattern_list(product, gamma, budget=budget,
                                          sample_budget=sample_budget, seed=seed)
        if len(lg):
            beta, d = beta_d_minimal(k, gamma)
            e = compute_matrix(lg, lnk, d, beta)
            if e is not None:
                e_opt, gamma_opt = e, gamma
            else:
                return e_opt, gamma_opt
        gamma += 1
    return e_opt, gamma_opt
