"""File-dependent retrieval protocol achieving the finite MDS-PIR capacity.

The plan downloads symbol sums over kappa repetitions of f rounds. Round 1
fetches desired rows and single-file side information; round l+1 fetches sums
of one new desired row with side-information sums of l other files, whose
aligned values were made decodable by round l's downloads. Each undesired
file has its own run of row blocks, one block per aligned-sum group it is in,
so a node is asked for each stored symbol at most once (`p1_symmetry_audit`
checks this). Stripe indices are privately permuted per file and the per-node
query order is shuffled, which is what the privacy of the scheme rests on.

A plan therefore has two parts. The schedule (beta, d, the canonical request
rows, their labels and the decode map that routes each answer to the word it
feeds) depends only on the code, Lambda, f and m; it is built and checked
once per such tuple and shared by every plan, its row and label arrays
read-only. The private part,
the stripe permutations `perms` and the query-order `shuffles`, is drawn for
each plan from one seeded numpy generator (`rng.generator(seed, "p1")`): one
`Generator.permuted` over the (f, beta) stripe indices, then one over the
(n, d) query positions, kept as int64 arrays.

The schedule is arrays. `rows[j, i, x - 1]` is the 1-based logical row of
file x in node j's canonical request i, 0 where file x is absent; request i
has the same (repetition, round), `labels[i]`, and the same files at every
node. Node j sees only row j of `P1Plan.queries()`, an (n, d, f) int64
array built in one gather: its requests in its shuffled order, entry
(i, x - 1) the physical row of file x (the private permutation applied), -1
where the file is absent. `p1_answer` answers every node at once, one field
sum per request, from one gather of the store; `p1_decode` takes the (n, d)
answers and decodes them stage by stage (aligned sums, then stripes), each
stage one product per set of missing nodes through tables built once per
schedule and value field, and one decision on all its checks.
`dss.run` keeps these arrays in its transcript, which renders them as JSON
lists (each request its [file, physical row] terms in file order) only in
`Transcript.to_json_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .codes import LinearCode
from .dss import MAX_STRIPES, response_array
from .errors import DecodeFailure, DimensionMismatch, InvalidLambda, KappaEqualsNu
from .fields import FiniteField
from .ratematrix import RateMatrix, interference_matrices, validate_rate_matrix
from .rng import generator


@dataclass(frozen=True, eq=False)
class P1DecodeMap:
    """Where each response of a schedule goes in decoding (seed-independent).

    `p1_decode` fills a flat `words` x n array: row r < beta is the stripe of
    logical row r + 1, row beta + g*nu + u - 1 the aligned side-information
    sum of group g at row offset u.
    Node j's answer to its canonical request i goes to entry dst[j, i]; once
    the sums are decoded, each entry in `cancel` (a desired sum above round 1)
    loses the aligned symbol at the same index of `side`. A batch pairs the
    nodes missing from some sums (or stripes) with those words' rows; per
    value field, `lifted` keeps both stages' batches ready to decode
    (`_lift`), built on the first decode over that field.
    """

    words: int
    dst: np.ndarray
    cancel: np.ndarray
    side: np.ndarray
    sum_batches: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    stripe_batches: tuple[tuple[tuple[int, ...], np.ndarray], ...]
    info: tuple[int, ...]  # the information set all messages are read off
    lifted: dict = dc_field(default_factory=dict, repr=False)


@dataclass
class P1Plan:
    code: LinearCode
    lam: RateMatrix
    f: int
    m: int
    seed: int
    beta: int
    d: int
    perms: np.ndarray        # (f, beta): logical row r of file x -> physical row
                             # perms[x - 1, r - 1]; user-private
    rows: np.ndarray         # (n, d, f) canonical logical rows, 0 = file absent; shared
    labels: np.ndarray       # (d, 2) (repetition, round) per canonical request; shared
    decode_map: P1DecodeMap  # shared schedule
    shuffles: np.ndarray     # (n, d): node j's visible position -> canonical index

    @property
    def rate(self) -> Fraction:
        return Fraction(self.beta * self.code.k, self.code.n * self.d)

    @property
    def file_sets(self) -> np.ndarray:
        """(n, d) bitmask of the files in each canonical request (bit x - 1
        for file x)."""
        return (self.rows > 0) @ (1 << np.arange(self.f))

    def queries(self) -> np.ndarray:
        """Every node's visible query, one gather: (n, d, f) physical rows,
        row j node j's requests in its shuffled order, -1 where the file is
        absent; no labels."""
        rows = np.take_along_axis(self.rows, self.shuffles[:, :, None], axis=1)
        return np.where(rows > 0, self.perms[np.arange(self.f), rows - 1], -1)


def p1_plan(code: LinearCode, lam: RateMatrix, f: int, m: int, seed: int) -> P1Plan:
    """Full request schedule for retrieving file m (1-based) out of f: the
    shared schedule of (code, lam, f, m) plus this seed's perms and shuffles."""
    beta, rows, labels, decode_map = _schedule(code, lam, f, m)
    rng = generator(seed, "p1")
    perms = _row_permutations(rng, f, beta)
    shuffles = _row_permutations(rng, code.n, len(labels))
    return P1Plan(code=code, lam=lam, f=f, m=m, seed=seed, beta=beta, d=len(labels),
                  perms=perms, rows=rows, labels=labels, decode_map=decode_map,
                  shuffles=shuffles)


def _row_permutations(rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
    """`rows` independent uniform permutations of range(size)."""
    return rng.permuted(np.arange(size)[None].repeat(rows, axis=0), axis=1)


@lru_cache(maxsize=16)
def _schedule(code: LinearCode, lam: RateMatrix, f: int, m: int) -> tuple:
    """Seed-independent part of a plan: (beta, rows, labels, decode_map).

    One pass lays out every row and routes every answer. Per repetition,
    round 1 asks each node for kappa^(f-1) rows of file m. Then, for each
    side-information size s, the aligned-sum groups of that size (each
    subset of s undesired files, kappa^(f-s-1) (nu-kappa)^(s-1) times) each
    take every file's next own block of nu rows: a node asks for the
    group's kappa rows A[:, j] of every file in it (round s), then for nu -
    kappa sums of a new desired row with the group's rows B[:, j] (round
    s+1). The answer to an undesired request is coordinate j of the group's
    aligned sum at that row offset; a desired sum loses the aligned sum of
    its side rows. Desired rows above round 1 come in blocks of nu from one
    counter per repetition. Every node's request i comes from the same step,
    so all nodes share its label and files; only the row offsets (columns of
    A and B) differ, and each step fills all nodes at once.

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
    A = np.array(ab.A, dtype=np.int64).reshape(kappa, n)
    B = np.array(ab.B, dtype=np.int64).reshape(nu - kappa, n)
    others = [x for x in range(1, f + 1) if x != m]
    kf1 = kappa ** (f - 1)
    rows: list[np.ndarray] = []     # per step, [request, node, file]
    words: list[np.ndarray] = []    # per step, [request, node]: the word each answer feeds
    aligned: list[np.ndarray] = []  # ... and the aligned sum it loses (-1: none)
    labels: list[tuple[int, int]] = []
    block = dict.fromkeys(others, 0)  # each undesired file's next row block
    groups = 0

    def ask(rep: int, rnd: int, step: np.ndarray, word: np.ndarray, loses=-1) -> None:
        """One step's requests: rows step[..., j, :] at node j, feeding
        word[..., j], each losing the aligned sum `loses` (desired sums
        above round 1)."""
        rows.append(step.reshape(-1, n, f))
        words.append(word.reshape(-1, n))
        aligned.append(np.broadcast_to(loses, word.shape).reshape(-1, n))
        labels.extend([(rep, rnd)] * len(words[-1]))

    for i, a in enumerate(A, 1):
        step = np.zeros((kf1, n, f), dtype=np.int64)
        step[..., m - 1] = kf1 * (a - 1) + np.arange(1, kf1 + 1)[:, None]
        ask(i, 1, step, step[..., m - 1] - 1)
        mu = kf1  # next desired row block
        for size in range(1, f):
            # the groups of this size: each file's row before its block, and
            # whether the file is in the group, shaped [group, 1, 1, file]
            per_subset = kappa ** (f - size - 1) * (nu - kappa) ** (size - 1)
            subsets = list(combinations(others, size))
            starts = np.zeros((len(subsets) * per_subset, 1, 1, f), dtype=np.int64)
            member = np.zeros(starts.shape, dtype=bool)
            for s, subset in enumerate(subsets):
                span = slice(s * per_subset, (s + 1) * per_subset)
                for x in subset:
                    starts[span, 0, 0, x - 1] = (block[x] + np.arange(per_subset)) * nu
                    member[span, 0, 0, x - 1] = True
                    block[x] += per_subset
            # word of group g's aligned sum at row offset u: beta + g*nu + u - 1
            base = beta + (groups + np.arange(len(starts)))[:, None, None] * nu - 1
            groups += len(starts)
            ask(i, size, np.where(member, starts + A[..., None], 0), base + A)
            step = np.where(member, starts + B[..., None], 0)
            desired = mu + np.arange(len(starts) * (nu - kappa)).reshape(-1, nu - kappa, 1)
            mu += len(starts) * (nu - kappa)
            step[..., m - 1] = desired * nu + a
            ask(i, size + 1, step, step[..., m - 1] - 1, base + B)
    rows = np.concatenate(rows).transpose(1, 0, 2).copy()
    labels = np.array(labels, dtype=np.int64)
    rows.flags.writeable = labels.flags.writeable = False
    dst = n * np.concatenate(words).T + np.arange(n)[:, None]
    lost = np.concatenate(aligned).T
    side = lost >= 0
    decode_map = _decode_map(code, beta, beta + groups * nu, dst, dst[side],
                             (n * lost + np.arange(n)[:, None])[side])
    return beta, rows, labels, decode_map


def _decode_map(code: LinearCode, beta: int, words: int, dst: np.ndarray,
                cancel: np.ndarray, side: np.ndarray) -> P1DecodeMap:
    """Batch the schedule's words by the nodes missing from them: stripes
    and aligned sums apart, each batch's rows ascending and the batches in
    order of their first row."""
    missing = np.ones((words, code.n), dtype=bool)
    missing.flat[dst] = False

    def batches(start: int, stop: int) -> tuple:
        first, count, number = _first_seen(missing[start:stop])
        rows = np.argsort(number, kind="stable") + start
        ends = np.cumsum(count).tolist()
        return tuple((tuple(np.flatnonzero(missing[start + pos]).tolist()), rows[end - c:end])
                     for pos, c, end in zip(first.tolist(), count.tolist(), ends))

    return P1DecodeMap(words=words, dst=dst, cancel=cancel, side=side,
                       sum_batches=batches(beta, words), stripe_batches=batches(0, beta),
                       info=code.information_set())


def p1_answer(dss, queries) -> np.ndarray:
    """Node-side evaluation of every node's query in one gather from the
    store and one field-sum reduce: `queries` is the (n, d, f) array of
    physical rows, node j's (d, f) query at row j, -1 where a file is absent;
    entry (j, i) of the (n, d) answer is the field sum of node j's stored
    symbols of row queries[j, i, x - 1] of file x over the files present in
    that request. Every request must name at least one symbol, and each
    symbol lies in rows 0..beta-1 of files 1..f; anything else, or a number
    of queries other than n, raises DimensionMismatch."""
    n, f, beta = dss.code.n, dss.f, dss.beta
    queries = np.asarray(queries)
    if queries.ndim != 3 or queries.shape[2] != f or queries.dtype.kind not in "iu":
        raise DimensionMismatch(f"a query is a (d, {f}) integer array of rows, one "
                                f"per node; got {queries.dtype} of shape {queries.shape}")
    if len(queries) != n:
        raise DimensionMismatch(f"{len(queries)} queries for {n} nodes")
    if queries.size and (queries.min() < -1 or queries.max() >= beta):
        raise DimensionMismatch(f"a term lies outside files 1..{f}, rows "
                                f"0..{beta - 1} (-1 for a file not in the sum)")
    queries = queries.astype(np.int64, copy=False)
    absent = queries < 0
    if absent.all(axis=2).any():
        raise DimensionMismatch("empty symbol sum is not a legal request")
    # stored row of each term (file-major); an absent term reads some row, zeroed
    terms = dss.stored[queries + np.arange(0, f * beta, beta), np.arange(n)[:, None, None]]
    terms[absent] = 0
    return dss.msg_field.sum_array(terms, axis=2)


def p1_decode(plan: P1Plan, responses, msg_field: FiniteField) -> np.ndarray:
    """Reconstruct all nu^f stripes of the requested file from the (n, d)
    responses (row j: node j's answers in its visible order) through the
    plan's decode map: one scatter of the responses into words, the aligned
    side-information sums decoded, one array subtraction of them from the
    desired sums above round 1, the stripes decoded, and the messages read
    off one information set in one product, returned as a (beta, k) array.

    Each stage erasure-decodes its words in the storage code, one product
    per set of missing nodes with tables built once per schedule and value
    field (`_lift`), and then takes one decision on all its checks.

    Detects: a response that is not an element of GF(q^ell) raises
    DecodeFailure naming its node; an aligned sum or a stripe raises
    DecodeFailure, naming it and its word, where no codeword matches all its
    known coordinates (which needs it known at more than k nodes), the first
    such word of the first failing batch in stage order."""
    code, dmap = plan.code, plan.decode_map
    n = code.n
    rho = response_array(responses, (n, plan.d), msg_field)
    flat = np.zeros(dmap.words * n, dtype=np.int64)
    flat[dmap.dst[np.arange(n)[:, None], plan.shuffles]] = rho
    lifted = dmap.lifted.get(msg_field)
    if lifted is None:
        lifted = dmap.lifted[msg_field] = (_lift(code, dmap.sum_batches, msg_field),
                                           _lift(code, dmap.stripe_batches, msg_field))
    _decode(plan, flat, dmap.sum_batches, lifted[0], msg_field)
    flat[dmap.cancel] = msg_field.sub_array(flat[dmap.cancel], flat[dmap.side])
    _decode(plan, flat, dmap.stripe_batches, lifted[1], msg_field)
    words = flat.reshape(dmap.words, n)
    decoded = np.empty((plan.beta, code.k), dtype=np.int64)
    decoded[plan.perms[plan.m - 1]] = code.message_from_information_set(
        dmap.info, words[:plan.beta, dmap.info], msg_field)
    return decoded


def _lift(code: LinearCode, batches, msg_field: FiniteField) -> tuple:
    """A stage's batches ready to decode over `msg_field`: per batch, the
    flat indices of its words' known symbols, |K| x rows (so the gathered
    words come out column-major, the layout in which `matmul_array` reduces
    fastest over an extension field), those of their erased symbols, rows x
    |E|, and [R_E; C_E]^T from the storage code's `_erasure_decoder` lifted
    into the field."""
    lifted = []
    for missing, rows in batches:
        known, recover_check = code._erasure_decoder(missing)
        at = rows[:, None] * code.n
        lifted.append((np.ascontiguousarray((at + known).T),
                       at + np.array(missing, dtype=np.int64),
                       msg_field.embed_array(recover_check, code.field)))
    return tuple(lifted)


def _decode(plan: P1Plan, flat: np.ndarray, batches, lifted: tuple,
            msg_field: FiniteField) -> None:
    """Fill every erased symbol of a stage's words in `flat` (the flat words
    x n array), one product per batch whose columns past |E| are its checks;
    then raise DecodeFailure on the first word, in batch order, that matches
    no codeword off its erased positions, named as the per-batch decode
    names it."""
    bad = [np.zeros(0, dtype=bool)]  # a stage may have no batches (f = 1: no sums)
    for known, erased, recover_check in lifted:
        solved = msg_field.matmul_array(flat[known].T, recover_check)
        e = erased.shape[1]
        flat[erased] = solved[:, :e]
        bad.append(solved[:, e:].any(axis=1))
    failing = np.flatnonzero(np.concatenate(bad))
    if failing.size:
        ends = np.cumsum([len(rows) for _, rows in batches])
        batch = int(np.searchsorted(ends, failing[0], side="right"))
        missing, rows = batches[batch]
        word = int(failing[0] - ends[batch] + len(rows))
        row = int(rows[word])
        name = f"stripe {row + 1}" if row < plan.beta else f"aligned sum {row - plan.beta + 1}"
        raise DecodeFailure(f"{name}: word {word}: no codeword agrees with it off "
                            f"the erased positions {list(missing)}")


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
    first row requested most often.

    One count over (node, rep, rnd, file set) fills `counts`, each table in
    order of first appearance; one bincount over (file, row) per node finds
    the repeats."""
    n, d, f = plan.rows.shape
    present = plan.rows > 0
    keys = np.stack(np.broadcast_arrays(np.arange(n)[:, None], *plan.labels.T,
                                        plan.file_sets), axis=2).reshape(n * d, 4)
    first, count, _ = _first_seen(keys)
    counts: dict = {}
    for (j, rep, rnd, mask), c in zip(keys[first].tolist(), count.tolist()):
        files = frozenset(x + 1 for x in range(f) if mask >> x & 1)
        counts.setdefault((j, rep, rnd), {})[files] = c
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
    width = int(plan.rows.max()) + 1
    for j, per_file in enumerate(present.sum(axis=1).tolist()):
        if len(set(per_file)) != 1:
            violations.append(f"node {j}: per-file request frequencies "
                              f"{dict(enumerate(per_file, 1))}")
        hits = np.bincount((plan.rows[j] + np.arange(f) * width)[present[j]],
                           minlength=f * width).reshape(f, width)
        repeated = hits > 1
        for x in np.flatnonzero(repeated.any(axis=1)).tolist():
            row = int(hits[x].argmax())
            violations.append(f"node {j}: file {x + 1} row {row} requested "
                              f"{hits[x, row]} times ({repeated[x].sum()} rows of "
                              f"file {x + 1} requested more than once)")
    return SymmetryReport(ok=not violations, violations=violations, counts=counts)


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct entries of `keys` (its rows, for a 2-D array), numbered
    in order of first appearance: the position of each one's first
    appearance, how often each appears, and each entry's number."""
    columns = keys if keys.ndim == 2 else keys[:, None]
    order = np.lexsort(columns.T[::-1])  # stable: equal keys keep their order
    ordered = columns[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    by_first = np.argsort(order[starts])
    number = np.empty(len(starts), dtype=np.int64)
    number[by_first] = np.arange(len(starts))
    index = np.empty(len(keys), dtype=np.int64)
    index[order] = number[np.cumsum(new) - 1]
    return order[starts][by_first], np.diff(np.append(starts, len(keys)))[by_first], index
