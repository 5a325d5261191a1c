"""File-dependent retrieval protocol achieving the finite MDS-PIR capacity.

The plan downloads symbol sums over kappa repetitions of f rounds. Round 1
fetches desired rows and single-file side information; round l+1 fetches sums
of one new desired row with side-information sums of l other files, whose
aligned values were made decodable by round l's downloads. Stripe indices are
privately permuted per file and the per-node query order is shuffled, which is
what the privacy of the scheme rests on.

A plan therefore has two parts. The schedule (beta, d, every node's canonical
atom list and the decode map that routes each atom's answer to the word it
feeds) depends only on the code, Lambda, f and m; it is built and checked
once per such tuple and shared, immutable, by every plan. The private part,
the stripe permutations `perms` and the query-order `shuffles`, is drawn for
each plan from one seeded numpy generator (`rng.generator(seed, "p1")`): one
`Generator.permuted` over the (f, beta) stripe indices, then one over the
(n, d) query positions, both handed out as lists of plain ints.

Row indices inside atoms are 1-based logical rows into the interleaved array;
nodes only ever see physical rows (the private permutation applied).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .dss import MAX_STRIPES
from .errors import DecodeFailure, DimensionMismatch, InvalidLambda, KappaEqualsNu, OutOfRange
from .fields import FiniteField, Matrix
from .ratematrix import RateMatrix, interference_matrices, validate_rate_matrix
from .rng import generator


def u_of(l: int, kappa: int, nu: int, f: int) -> int:
    """Block-count prefix sum for undesired downloads through round l."""
    if not 1 <= l <= f - 1:
        raise OutOfRange(f"l={l} outside 1..{f - 1}")
    return _u(l, kappa, nu, f)


def _u(l: int, kappa: int, nu: int, f: int) -> int:
    return sum(kappa ** (f - h - 1) * (nu - kappa) ** (h - 1)
               for h in range(1, l + 1))


def d_of(l: int, kappa: int, nu: int, f: int) -> int:
    """Desired stripe-block count through round l+1."""
    if not 0 <= l <= f - 1:
        raise OutOfRange(f"l={l} outside 0..{f - 1}")
    return kappa ** (f - 1) + sum(
        comb(f - 1, h) * kappa ** (f - h - 1) * (nu - kappa) ** h
        for h in range(1, l + 1))


def n_of(l: int, f: int) -> int:
    """Number of l-sized side-information file subsets."""
    if not 1 <= l <= f - 1:
        raise OutOfRange(f"l={l} outside 1..{f - 1}")
    return comb(f - 1, l)


def _colex_subsets(universe: Sequence[int], size: int) -> list[tuple[int, ...]]:
    import itertools
    subs = [tuple(sorted(s)) for s in itertools.combinations(sorted(universe), size)]
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


@dataclass(frozen=True)
class P1Atom:
    """One requested symbol sum: sum over `terms` of y^(file)_(row) at a node."""

    kind: str                      # "desired1" | "undesired" | "desired"
    rep: int                       # repetition, 1..kappa
    rnd: int                       # round, 1..f
    subset: tuple[int, ...]        # side-information files (empty for desired1)
    terms: tuple[tuple[int, int], ...]  # (file 1-based, logical row 1-based), by file
    block: int = -1                # side-information block index (if any)
    srow: int = -1                 # B-row index used (desired atoms)


@dataclass(frozen=True, eq=False)
class P1DecodeMap:
    """Where each response of a schedule goes in decoding (seed-independent).

    `p1_decode` fills a flat `words` x n array: row r < beta is the stripe of
    logical row r + 1, the rows after it the aligned side-information sums.
    Node j's answer to its canonical atom i goes to entry dst[j, i]; once the
    sums are decoded, each entry in `cancel` (a desired sum above round 1)
    loses the aligned symbol at the same index of `side`. A batch pairs the
    nodes missing from some sums (or stripes) with those words' rows.
    """

    words: int
    dst: np.ndarray
    cancel: np.ndarray
    side: np.ndarray
    sum_batches: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    stripe_batches: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    info: tuple[int, ...]  # the information set all messages are read off


@dataclass
class P1Plan:
    code: LinearCode
    lam: RateMatrix
    f: int
    m: int
    seed: int
    beta: int
    d: int
    perms: list[list[int]]                 # per file: logical row-1 -> physical row (0-based); user-private
    node_atoms: tuple[tuple[P1Atom, ...], ...]  # canonical order per node; shared schedule
    decode_map: P1DecodeMap                # shared schedule
    shuffles: list[list[int]]              # visible position -> canonical index

    @property
    def rate(self) -> Fraction:
        return Fraction(self.beta * self.code.k, self.code.n * self.d)

    def node_query(self, node: int) -> list[tuple[tuple[int, int], ...]]:
        """Node-visible query list: physical rows, shuffled order, no labels;
        each sum's terms in file order, as its atom lists them."""
        atoms, perms = self.node_atoms[node], self.perms
        return [tuple((mp, perms[mp - 1][row - 1]) for mp, row in atoms[idx].terms)
                for idx in self.shuffles[node]]


def p1_plan(code: LinearCode, lam: RateMatrix, f: int, m: int, seed: int) -> P1Plan:
    """Full request schedule for retrieving file m (1-based) out of f: the
    shared schedule of (code, lam, f, m) plus this seed's perms and shuffles."""
    beta, d, node_atoms, decode_map = _schedule(code, lam, f, m)
    rng = generator(seed, "p1")
    perms = _row_permutations(rng, f, beta)
    shuffles = _row_permutations(rng, code.n, d)
    return P1Plan(code=code, lam=lam, f=f, m=m, seed=seed, beta=beta, d=d,
                  perms=perms, node_atoms=node_atoms, decode_map=decode_map,
                  shuffles=shuffles)


def _row_permutations(rng: np.random.Generator, rows: int, size: int) -> list[list[int]]:
    """`rows` independent uniform permutations of range(size), as plain ints."""
    return rng.permuted(np.arange(size)[None].repeat(rows, axis=0), axis=1).tolist()


@lru_cache(maxsize=16)
def _schedule(code: LinearCode, lam: RateMatrix, f: int, m: int) -> tuple:
    """Seed-independent part of a plan: (beta, d, node_atoms, decode_map).

    Bad input raises on every call (lru_cache stores only returned values).
    """
    report = validate_rate_matrix(code, lam.rows)
    if not report.ok:
        raise InvalidLambda(f"{report.violation} at {report.witness}")
    if f < 1 or not 1 <= m <= f:
        raise DimensionMismatch(f"bad f={f}, m={m}")
    kappa, nu = lam.kappa, lam.nu
    if kappa == nu and f > 1:
        raise KappaEqualsNu("side information needs kappa < nu")
    n = code.n
    beta = nu ** f
    if beta > MAX_STRIPES:
        raise DimensionMismatch(f"nu^f = {beta} stripes exceed the memory guard")
    ab = interference_matrices(lam)
    A, B = ab.A, ab.B
    d = kappa if f == 1 else (kappa * (nu ** f - kappa ** f)) // (nu - kappa)

    others = [x for x in range(1, f + 1) if x != m]
    kf1 = kappa ** (f - 1)
    uf1 = _u(f - 1, kappa, nu, f) if f >= 2 else 0
    node_atoms: list[list[P1Atom]] = [[] for _ in range(n)]

    for i in range(1, kappa + 1):
        base = (i - 1) * uf1
        # round 1: desired rows, then single-file side information
        for s in range(1, kf1 + 1):
            for j in range(n):
                row = kf1 * (A[i - 1][j] - 1) + s
                node_atoms[j].append(P1Atom("desired1", i, 1, (), ((m, row),)))
        if f >= 2:
            for subset in _colex_subsets(others, 1):
                for block in range(base, base + _u(1, kappa, nu, f)):
                    for t in range(1, kappa + 1):
                        for j in range(n):
                            row = block * nu + A[t - 1][j]
                            node_atoms[j].append(P1Atom(
                                "undesired", i, 1, subset,
                                tuple((mp, row) for mp in subset), block=block))
        for l in range(1, f):
            # round l+1 desired sums, one new stripe block per (subset, block, srow)
            mu = d_of(l - 1, kappa, nu, f)
            for subset in _colex_subsets(others, l):
                for block in range(base + _u(l - 1, kappa, nu, f),
                                   base + _u(l, kappa, nu, f)):
                    for srow in range(1, nu - kappa + 1):
                        for j in range(n):
                            terms = tuple(sorted(((m, mu * nu + A[i - 1][j]),) + tuple(
                                (mp, block * nu + B[srow - 1][j]) for mp in subset)))
                            node_atoms[j].append(P1Atom(
                                "desired", i, l + 1, subset, terms,
                                block=block, srow=srow))
                        mu += 1
            if l + 1 <= f - 1:
                for subset in _colex_subsets(others, l + 1):
                    for block in range(base + _u(l, kappa, nu, f),
                                       base + _u(l + 1, kappa, nu, f)):
                        for t in range(1, kappa + 1):
                            for j in range(n):
                                row = block * nu + A[t - 1][j]
                                node_atoms[j].append(P1Atom(
                                    "undesired", i, l + 1, subset,
                                    tuple((mp, row) for mp in subset), block=block))

    for j in range(n):
        if len(node_atoms[j]) != d:
            raise DecodeFailure(
                f"schedule for node {j} has {len(node_atoms[j])} requests, expected {d}")

    node_atoms = tuple(tuple(atoms) for atoms in node_atoms)
    return beta, d, node_atoms, _decode_map(code, nu, B, beta, d, m, node_atoms)


def _decode_map(code: LinearCode, nu: int, B, beta: int, d: int, m: int,
                node_atoms: tuple[tuple[P1Atom, ...], ...]) -> P1DecodeMap:
    """Route each atom at node j to coordinate j of the word it feeds: an
    undesired atom to its aligned sum (subset, block, u), a desired atom to
    the stripe of its file-m row, cancelling the aligned sum
    (subset, block, B[srow][j])."""
    n = code.n
    sum_ids: dict[tuple, int] = {}
    dst, cancel = [], []   # flat entry per atom; (stripe entry, aligned entry)
    for j, atoms in enumerate(node_atoms):
        for atom in atoms:
            if atom.kind == "undesired":
                u = atom.terms[0][1] - atom.block * nu
                word = beta + sum_ids.setdefault((atom.subset, atom.block, u), len(sum_ids))
            else:
                word = dict(atom.terms)[m] - 1
                if atom.kind == "desired":
                    key = (atom.subset, atom.block, B[atom.srow - 1][j])
                    side = beta + sum_ids.setdefault(key, len(sum_ids))
                    cancel.append((word * n + j, side * n + j))
            dst.append(word * n + j)
    known = np.zeros((beta + len(sum_ids), n), dtype=bool)
    known.flat[dst] = True
    batches: tuple[dict, dict] = ({}, {})  # stripes, sums: missing nodes -> rows
    for word, row in enumerate(known):
        missing = tuple(np.flatnonzero(~row).tolist())
        batches[word >= beta].setdefault(missing, []).append(word)
    stripe_batches, sum_batches = (tuple((missing, np.array(rows)) for missing, rows
                                         in group.items()) for group in batches)
    cancel = np.array(cancel, dtype=np.int64).reshape(-1, 2)
    return P1DecodeMap(words=len(known), dst=np.array(dst).reshape(n, d),
                       cancel=cancel[:, 0], side=cancel[:, 1], sum_batches=sum_batches,
                       stripe_batches=stripe_batches, info=code.information_set())


def p1_answer(dss, node: int, visible_query: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Node-side evaluation: each entry is a sum of the node's stored symbols."""
    f, beta = dss.msg_field, dss.beta
    content = dss.node_content(node)
    out = []
    for terms in visible_query:
        if not terms:
            raise DimensionMismatch("empty symbol sum is not a legal request")
        acc = 0
        for mp, phys_row in terms:
            acc = f.add(acc, content[(mp - 1) * beta + phys_row])
        out.append(acc)
    return out


def p1_decode(plan: P1Plan, responses: Sequence[Sequence[int]],
              msg_field: FiniteField) -> Matrix:
    """Reconstruct all nu^f stripes of the requested file from the responses,
    through the plan's decode map: aligned side-information sums, then the
    stripes they leave, each erasure-decoded in one batch per set of missing
    nodes; the messages are read off one information set.

    Detects: an aligned sum or a stripe raises DecodeFailure, naming it,
    where no codeword matches all its known coordinates (which needs it known
    at more than k nodes); a stripe known on no information set raises
    NotCorrectable."""
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
    return Matrix.wrap(msg_field, decoded.tolist(), plan.beta, code.k)


@dataclass
class SymmetryReport:
    ok: bool
    violations: list[str]
    counts: dict  # (node, rep, rnd) -> {frozenset(files): count}


def p1_symmetry_audit(plan: P1Plan) -> SymmetryReport:
    """File symmetry within nodes and symmetry across nodes, per-file
    request-frequency balance over each node's full query list, and no
    (file, logical row) requested twice at one node: the private permutation
    maps logical rows one to one, so a repeat shows the node one stored
    symbol twice. Repeats are reported once per (node, file), naming the
    first row requested most often."""
    counts: dict = {}
    for j in range(plan.code.n):
        for atom in plan.node_atoms[j]:
            files = frozenset(mp for mp, _ in atom.terms)
            key = (j, atom.rep, atom.rnd)
            counts.setdefault(key, {}).setdefault(files, 0)
            counts[key][files] += 1
    violations = []
    for (j, rep, rnd), table in counts.items():
        by_size: dict[int, set[int]] = {}
        for files, c in table.items():
            by_size.setdefault(len(files), set()).add(c)
        for size, values in by_size.items():
            if len(values) != 1:
                violations.append(
                    f"node {j} rep {rep} round {rnd}: unequal counts for "
                    f"{size}-file sums: {sorted(values)}")
    # same (rep, rnd) tables must agree across nodes
    reference = {key[1:]: table for key, table in counts.items() if key[0] == 0}
    for (j, rep, rnd), table in counts.items():
        if table != reference.get((rep, rnd)):
            violations.append(f"node {j} differs from node 0 at rep {rep} round {rnd}")
    for j in range(plan.code.n):
        per_file = {mp: 0 for mp in range(1, plan.f + 1)}
        for atom in plan.node_atoms[j]:
            for mp, _ in atom.terms:
                per_file[mp] += 1
        if len(set(per_file.values())) != 1:
            violations.append(f"node {j}: per-file request frequencies {per_file}")
        requests = Counter(chain.from_iterable(atom.terms for atom in plan.node_atoms[j]))
        repeats: dict[int, list[tuple[int, int]]] = {}  # file -> (-count, row)
        for (mp, row), count in requests.items():
            if count > 1:
                repeats.setdefault(mp, []).append((-count, row))
        for mp in sorted(repeats):
            count, row = min(repeats[mp])
            violations.append(f"node {j}: file {mp} row {row} requested {-count} "
                              f"times ({len(repeats[mp])} rows of file {mp} "
                              "requested more than once)")
    return SymmetryReport(ok=not violations, violations=violations, counts=counts)
