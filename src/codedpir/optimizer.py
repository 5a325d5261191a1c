"""Rate optimization: enumerate correctable erasure patterns and solve the
column-matching selection problem for the best structure matrix.

Weight-Gamma structure rows must be correctable by the Hadamard product of
the storage and query codes; without a query code (the repetition code, the
noncolluding case) that product is the storage code. The one search loop
starts at the floor Gamma = min(k, d_min(product) - 1), where every
weight-Gamma row is correctable, so the window construction below finds a
structure whenever that pattern list is exhaustive; it raises Gamma until the
selection becomes infeasible. The
selection itself (d weight-Gamma rows plus beta information-set complements
whose stacked column sums all equal beta) is solved exactly by a depth-first
search branching on the most constrained deficient column, with memoized
infeasible states. Row repetition is allowed by default, matching the fact
that structure rows may repeat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb

from .codes import ErasurePattern, LinearCode
from .errors import RateOneProduct, TooLarge
from .ratematrix import ErasureMatrix, beta_d_minimal
from .rng import rng_for

EXHAUSTIVE_LIMIT = 100_000   # enumerate all weight-w patterns up to this count
SAMPLE_BUDGET = 100_000      # randomized pivot draws otherwise
STATE_BUDGET = 5_000_000     # DFS state guard
WINDOW_LAYOUTS = 200         # information-set complements the fast path tries
WINDOW_SHUFFLES = 60         # seeded window orders per complement


@dataclass(frozen=True)
class PatternList:
    """Deduplicated correctable erasure patterns of one weight, with the
    support bitmask of each (bit j set iff position j is erased)."""

    weight: int
    patterns: tuple[ErasurePattern, ...]
    _masks: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._masks is None:
            object.__setattr__(self, "_masks", tuple(_bitmask(p.support)
                                                     for p in self.patterns))

    def masks(self) -> tuple[int, ...]:
        return self._masks

    def __len__(self) -> int:
        return len(self.patterns)


def _bitmask(support) -> int:
    return sum(1 << j for j in support)


def compute_erasure_pattern_list(code: LinearCode, w: int,
                                 budget: int = EXHAUSTIVE_LIMIT,
                                 sample_budget: int = SAMPLE_BUDGET,
                                 seed: int = 0) -> PatternList:
    """All weight-w patterns correctable by `code`, or a seeded random sample.

    Exhaustive when C(n, w) fits the budget. Otherwise repeatedly permute the
    parity-check columns, take the pivot columns of H in that order, take w of
    them (independent by construction), and also keep correctable cyclic
    shifts of each find.
    """
    n = code.n
    if w == 0:
        return PatternList(0, (ErasurePattern(n, tuple([0] * n)),), (0,))
    if w > n - code.k:
        return PatternList(w, (), ())
    if comb(n, w) <= budget:
        pats, masks = [], []
        for support in itertools.combinations(range(n), w):
            pat = ErasurePattern.from_support(n, support)
            if code.erasure_correctable(pat):
                pats.append(pat)
                masks.append(_bitmask(support))
        return PatternList(w, tuple(pats), tuple(masks))
    rng = rng_for(seed, "patterns", w)
    found: dict[tuple[int, ...], ErasurePattern] = {}
    for _ in range(sample_budget):
        perm = list(range(n))
        rng.shuffle(perm)
        pivot_cols = code.pivot_columns(perm)
        if len(pivot_cols) < w:
            continue
        support = tuple(sorted(rng.sample(pivot_cols, w)))
        if support not in found:
            found[support] = ErasurePattern.from_support(n, support)
            for shift in range(1, n):
                shifted = tuple(sorted((j + shift) % n for j in support))
                if shifted in found:
                    continue
                pat = ErasurePattern.from_support(n, shifted)
                if code.erasure_correctable(pat):
                    found[shifted] = pat
    return PatternList(w, tuple(found.values()), tuple(_bitmask(s) for s in found))


def compute_matrix(lgamma: PatternList, lnk: PatternList, d: int,
                   beta: int) -> ErasureMatrix | None:
    """Pick d rows from lgamma and beta rows from lnk whose stacked matrix is
    beta-column regular; None when infeasible. Exact search.

    A constructive fast path is tried first (one information-set complement
    repeated beta times, with the weight-Gamma rows laid out as cyclic windows
    over the information set); the exact branch-and-bound runs otherwise.
    """
    if not lgamma.patterns or not lnk.patterns:
        return None
    n = lgamma.patterns[0].n
    gamma, nk = lgamma.weight, lnk.weight
    if d * gamma + beta * nk != beta * n:
        return None
    masks_g = sorted(set(lgamma.masks()))
    masks_k = sorted(set(lnk.masks()))
    fast = _window_construction(masks_g, masks_k, n, gamma, d, beta)
    if fast is not None:
        return fast
    cover_g = [[i for i, msk in enumerate(masks_g) if (msk >> j) & 1] for j in range(n)]
    cover_k = [[i for i, msk in enumerate(masks_k) if (msk >> j) & 1] for j in range(n)]
    failed: set[tuple] = set()
    states = 0

    def dfs(counts: list[int], r1: int, r2: int,
            chosen_g: list[int], chosen_k: list[int]):
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
            options.extend(("g", i) for i in cover_g[best_j])
        if r2:
            options.extend(("k", i) for i in cover_k[best_j])
        for tag, i in options:
            msk = masks_g[i] if tag == "g" else masks_k[i]
            ok = True
            mm = msk
            while mm:
                low = mm & -mm
                j = low.bit_length() - 1
                if counts[j] + 1 > beta:
                    ok = False
                    break
                mm ^= low
            if not ok:
                continue
            mm = msk
            while mm:
                low = mm & -mm
                counts[low.bit_length() - 1] += 1
                mm ^= low
            if tag == "g":
                chosen_g.append(i)
                if dfs(counts, r1 - 1, r2, chosen_g, chosen_k):
                    return True
                chosen_g.pop()
            else:
                chosen_k.append(i)
                if dfs(counts, r1, r2 - 1, chosen_g, chosen_k):
                    return True
                chosen_k.pop()
            mm = msk
            while mm:
                low = mm & -mm
                counts[low.bit_length() - 1] -= 1
                mm ^= low
        failed.add(key)
        return False

    chosen_g: list[int] = []
    chosen_k: list[int] = []
    if not dfs([0] * n, d, beta, chosen_g, chosen_k):
        return None

    def unmask(msk: int) -> tuple[int, ...]:
        return tuple(1 if (msk >> j) & 1 else 0 for j in range(n))

    return ErasureMatrix(d=d, beta=beta,
                         ehat=tuple(unmask(masks_g[i]) for i in chosen_g),
                         ebar=tuple(unmask(masks_k[i]) for i in chosen_k))


def _window_construction(masks_g: list[int], masks_k: list[int], n: int,
                         gamma: int, d: int, beta: int) -> ErasureMatrix | None:
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
        unmask = lambda msk: tuple(1 if (msk >> j) & 1 else 0 for j in range(n))
        return ErasureMatrix(d=d, beta=beta,
                             ehat=tuple(unmask(m) for m in windows),
                             ebar=tuple(unmask(s_mask) for _ in range(beta)))

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
                  beta_d_rule: str = "minimal", seed: int = 0,
                  budget: int = EXHAUSTIVE_LIMIT, sample_budget: int = SAMPLE_BUDGET
                  ) -> tuple[ErasureMatrix | None, int]:
    """Largest Gamma with a feasible structure matrix, and that matrix.

    query_code None stands for the repetition code, whose product with the
    storage code is the storage code. beta_d_rule: "minimal" takes the
    LCM-minimal (beta, d); "gamma-k" fixes (beta, d) = (Gamma, k).
    """
    product = code if query_code is None else code.hadamard_product(query_code)
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
            beta, d = _beta_d(beta_d_rule, k, gamma)
            e = compute_matrix(lg, lnk, d, beta)
            if e is not None:
                e_opt, gamma_opt = e, gamma
            else:
                return e_opt, gamma_opt
        gamma += 1
    return e_opt, gamma_opt


def _beta_d(rule: str, k: int, gamma: int) -> tuple[int, int]:
    if rule == "minimal":
        return beta_d_minimal(k, gamma)
    if rule == "gamma-k":
        return gamma, k
    raise ValueError(f"unknown beta/d rule {rule!r}")
