"""File-dependent retrieval protocol achieving the finite MDS-PIR capacity.

The plan downloads symbol sums over kappa repetitions of f rounds. Round 1
fetches desired rows and single-file side information; round l+1 fetches sums
of one new desired row with side-information sums of l other files, whose
aligned values were made decodable by round l's downloads. Each undesired
file has its own run of row blocks, one block per aligned-sum group it is in,
so a node is asked for each stored symbol at most once (`p1_symmetry_audit`
checks this). Stripe indices are privately permuted per file and the per-node
query order is shuffled, which is what the privacy of the scheme rests on.

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
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .codes import LinearCode
from .dss import MAX_STRIPES
from .errors import DecodeFailure, DimensionMismatch, InvalidLambda, KappaEqualsNu
from .fields import FiniteField, Matrix
from .ratematrix import RateMatrix, interference_matrices, validate_rate_matrix
from .rng import generator


@dataclass(frozen=True)
class P1Atom:
    """One requested symbol sum: sum over `terms` of y^(file)_(row) at a node."""

    kind: str                      # "desired1" | "undesired" | "desired"
    rep: int                       # repetition, 1..kappa
    rnd: int                       # round, 1..f
    subset: tuple[int, ...]        # side-information files (empty for desired1)
    terms: tuple[tuple[int, int], ...]  # (file 1-based, logical row 1-based), by file
    block: int = -1                # the atom's aligned-sum group (if any)
    srow: int = -1                 # B-row index used (desired atoms)


@dataclass(frozen=True, eq=False)
class P1DecodeMap:
    """Where each response of a schedule goes in decoding (seed-independent).

    `p1_decode` fills a flat `words` x n array: row r < beta is the stripe of
    logical row r + 1, row beta + g*nu + u - 1 the aligned side-information
    sum of group g at row offset u.
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

    One pass lays out every row and routes every answer. Per repetition,
    round 1 asks each node for kappa^(f-1) rows of file m. Then, for each
    side-information size s, the aligned-sum groups of that size (each
    subset of s undesired files, kappa^(f-s-1) (nu-kappa)^(s-1) times) each
    take every file's next own block of nu rows: a node asks for the
    group's kappa rows A[:, j] of every file in it (round s), then for nu -
    kappa sums of a new desired row with the group's rows B[:, j] (round
    s+1). The answer to an undesired atom is coordinate j of the group's
    aligned sum at that row offset; a desired sum loses the aligned sum of
    its side rows. Desired rows above round 1 come in blocks of nu from one
    counter per repetition.

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
    others = [x for x in range(1, f + 1) if x != m]
    kf1 = kappa ** (f - 1)
    node_atoms: list[list[P1Atom]] = [[] for _ in range(n)]
    dst: list[list[int]] = [[] for _ in range(n)]  # each atom's entry word * n + j
    cancel: list[int] = []  # entries of the desired sums above round 1 ...
    side: list[int] = []    # ... and of the aligned sums they lose
    block = dict.fromkeys(others, 0)  # each undesired file's next row block
    groups = 0

    def ask(j: int, atom: P1Atom, word: int, aligned: int | None = None) -> None:
        node_atoms[j].append(atom)
        dst[j].append(word * n + j)
        if aligned is not None:
            cancel.append(word * n + j)
            side.append(aligned * n + j)

    def aligned_sum(g: int, starts: tuple, u: int) -> tuple[list, int]:
        """Terms and word of group g's aligned sum at row offset u."""
        return [(x, r + u) for x, r in starts], beta + g * nu + u - 1

    for i, a in enumerate(A, 1):
        for s in range(1, kf1 + 1):
            for j in range(n):
                row = kf1 * (a[j] - 1) + s
                ask(j, P1Atom("desired1", i, 1, (), ((m, row),)), row - 1)
        mu = kf1  # next desired row block
        for size in range(1, f):
            layout = []  # (group, subset, (file, row before its block) per file)
            for subset in combinations(others, size):
                for _ in range(kappa ** (f - size - 1) * (nu - kappa) ** (size - 1)):
                    layout.append((groups, subset, tuple((x, block[x] * nu) for x in subset)))
                    groups += 1
                    for x in subset:
                        block[x] += 1
            for g, subset, starts in layout:
                for t in range(kappa):
                    for j in range(n):
                        terms, word = aligned_sum(g, starts, A[t][j])
                        ask(j, P1Atom("undesired", i, size, subset, tuple(terms), block=g),
                            word)
            for g, subset, starts in layout:
                for srow in range(1, nu - kappa + 1):
                    for j in range(n):
                        terms, aligned = aligned_sum(g, starts, B[srow - 1][j])
                        row = mu * nu + a[j]
                        ask(j, P1Atom("desired", i, size + 1, subset,
                                      tuple(sorted(terms + [(m, row)])), block=g, srow=srow),
                            row - 1, aligned)
                    mu += 1
    node_atoms = tuple(tuple(atoms) for atoms in node_atoms)
    decode_map = _decode_map(code, beta, beta + groups * nu, dst, cancel, side)
    return beta, len(node_atoms[0]), node_atoms, decode_map


def _decode_map(code: LinearCode, beta: int, words: int, dst: list[list[int]],
                cancel: list[int], side: list[int]) -> P1DecodeMap:
    """Batch the schedule's words by the nodes missing from them."""
    dst = np.array(dst)
    known = np.zeros((words, code.n), dtype=bool)
    known.flat[dst] = True
    batches: tuple[dict, dict] = ({}, {})  # stripes, sums: missing nodes -> rows
    for word, row in enumerate(known):
        missing = tuple(np.flatnonzero(~row).tolist())
        batches[word >= beta].setdefault(missing, []).append(word)
    stripe_batches, sum_batches = (tuple((missing, np.array(rows)) for missing, rows
                                         in group.items()) for group in batches)
    return P1DecodeMap(words=words, dst=dst, cancel=np.array(cancel, dtype=np.int64),
                       side=np.array(side, dtype=np.int64), sum_batches=sum_batches,
                       stripe_batches=stripe_batches, info=code.information_set())


def p1_answer(dss, node: int, visible_query: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Node-side evaluation: each entry is a sum of the node's stored symbols,
    each term a file 1..f and a row 0..beta-1 of the store."""
    add, f, beta = dss.msg_field.add, dss.f, dss.beta
    content = dss.node_content(node)
    out = []
    for terms in visible_query:
        if not terms:
            raise DimensionMismatch("empty symbol sum is not a legal request")
        acc = 0
        for mp, phys_row in terms:
            if not (0 < mp <= f and 0 <= phys_row < beta):
                raise DimensionMismatch(f"term {(mp, phys_row)} lies outside files "
                                        f"1..{f}, rows 0..{beta - 1}")
            acc = add(acc, content[(mp - 1) * beta + phys_row])
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
