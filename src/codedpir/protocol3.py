"""The retrieval engine: a protocol private against up to T colluding nodes.

Each subquery sends every node one coordinate of a fresh batch of beta*f
random codewords of a query code, plus a deterministic unit offset on the
nodes that should leak one desired symbol. The response vector of a subquery
is a codeword of the Hadamard product of storage and query codes plus the
offset symbols, so erasure decoding in the product code, with the offset
nodes erased, exposes exactly those symbols. T is one less than the minimum
distance of the query code's dual.

`p3_queries` draws a query's query-code messages, all d*beta*f*kq symbols in
one call of one seeded numpy generator (`rng.generator(seed, "p3")`);
`query_batch`, the array step that encodes them and adds the offsets, also
runs the statistical audit's trials, drawn the same way.

From query to answer a retrieval stays in int64 arrays: the query is one
(n, d, beta*f) array, row l node l's; `p3_respond` answers every node in one
stacked array product with the stored columns, an (n, d) response array; and
`p3_decode` is one product of the flattened responses with
`P3Setup.decode_map`, built once per setup. Decoding is linear once Ehat and
the information sets are fixed: erasure decoding each subquery in the product
code with its support erased exposes rho_l - R_E rho_K there, and each stripe's
message is its exposed symbols on its information set times the inverse of G
there. The map composes both, over the code's field, and adds one column per
consistency check C_E rho_K = 0 of every subquery; a nonzero check raises
DecodeFailure with the text of the per-row decode (`decode_erasures` on each
distinct Ehat row in turn), which the tests keep as the reference.

With the [n,1] repetition code as the query code the product is the storage
code and T = 1: that is protocol 2, the file-independent noncolluding
protocol (see `protocol2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .codes import ErasurePattern, LinearCode, _integer_positions, non_bit_entry
from .dss import response_array
from .errors import (
    DecodeFailure,
    DimensionMismatch,
    OrderOverflow,
    RateOneProduct,
    StructureViolation,
)
from .fields import FiniteField
from .families import rm_code, rm_information_set, rm_translate
from .ratematrix import ConditionReport
from .rng import generator

Mask = tuple[int, ...]


@dataclass(frozen=True)
class P3Setup:
    """A (storage code, query code, structure) triple, checked when built.

    Construction refuses, with DimensionMismatch, StructureViolation or
    RateOneProduct, any triple the retrieval cannot run on: codes of another
    length or field, a query code zero at some position, a rate-one Hadamard
    product, Ehat entries other than integers 0 and 1, Ehat rows of unequal
    weight or not correctable by the product, a set position that is not an
    integer, sets that are not information sets of the storage code, and a
    column of Ehat whose weight is not the number of sets holding that node. Every
    later step (`stripes`, `decode_map`, `p3_decode`) relies on this and
    checks none of it again. Ehat and the sets are kept as int tuples, each
    set sorted.
    """

    code: LinearCode
    query_code: LinearCode
    ehat: tuple[Mask, ...]
    info_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        code, query_code, n = self.code, self.query_code, self.code.n
        if query_code.n != n or query_code.field is not code.field:
            raise DimensionMismatch("storage and query codes must share length and field")
        check_query_code(query_code)
        product = self.product
        if product.k >= n:
            raise RateOneProduct("Hadamard product has rate 1; no redundancy to exploit")
        entry = non_bit_entry(self.ehat)
        if entry is not None:
            raise StructureViolation(f"Ehat entry {entry} is not 0 or 1")
        ehat = tuple(tuple(int(b) for b in row) for row in self.ehat)
        info_sets = tuple(tuple(sorted(_integer_positions(s))) for s in self.info_sets)
        object.__setattr__(self, "ehat", ehat)
        object.__setattr__(self, "info_sets", info_sets)
        if not ehat or any(len(row) != n for row in ehat):
            raise StructureViolation("Ehat must be nonempty with n columns")
        gamma = sum(ehat[0])
        if gamma < 1:
            raise StructureViolation("zero-weight subquery row")
        for i, row in enumerate(ehat):
            if sum(row) != gamma:
                raise StructureViolation(f"row {i} weight {sum(row)} != {gamma}")
            if not product.erasure_correctable(ErasurePattern(n, row)):
                raise StructureViolation(f"row {i} not correctable by the product code")
        for t, iset in enumerate(info_sets):
            if len(iset) != code.k or not code.is_information_set(iset):
                raise StructureViolation(f"set {t} is not an information set of the storage code")
        # summed over the nodes, this also gives beta*k = Gamma*d
        for l in range(n):
            expected = sum(1 for iset in info_sets if l in iset)
            got = sum(row[l] for row in ehat)
            if got != expected:
                raise StructureViolation(f"column {l} weight {got}, expected {expected}")

    @cached_property
    def product(self) -> LinearCode:
        return self.code.hadamard_product(self.query_code)

    @cached_property
    def collusion_threshold(self) -> int:
        return collusion_threshold(self.query_code)

    @property
    def gamma(self) -> int:
        return sum(self.ehat[0])

    @property
    def beta(self) -> int:
        return len(self.info_sets)

    @property
    def d(self) -> int:
        return len(self.ehat)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.gamma, self.code.n)

    @property
    def rate_upper_bound(self) -> Fraction:
        return Fraction(self.code.n - self.product.k, self.code.n)

    @cached_property
    def stripes(self) -> tuple[tuple[int | None, ...], ...]:
        """Per node, the stripe each subquery downloads there (None = masked).

        Ascending first-unused rule over the node's information-set indices;
        the column-profile check at construction makes the counts line up.
        """
        out = []
        for node in range(self.code.n):
            available = (t for t, iset in enumerate(self.info_sets) if node in iset)
            out.append(tuple(next(available) if row[node] else None
                             for row in self.ehat))
        return tuple(out)

    @cached_property
    def leaks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nodes, subqueries, stripes): every place where a subquery has a
        node leak a symbol, as three int64 arrays in node-major order."""
        return tuple(np.array(x, dtype=np.int64) for x in zip(*[
            (l, i, t) for l, stripes in enumerate(self.stripes)
            for i, t in enumerate(stripes) if t is not None]))

    @cached_property
    def decode_map(self) -> tuple[np.ndarray, tuple[tuple[int, int, list[int]], ...]]:
        """The decode as one linear map over the code's field, built once.

        A (d*n) x (beta*k + c) int64 array sends the responses, flattened
        subquery-major (entry i*n + l is node l's answer to subquery i), to
        the beta*k symbols of the file, then to the c consistency checks of
        every subquery. Subquery i with support E exposes rho_l - R_E rho_K at
        each l in E, R_E and the check rows C_E from the product code's
        `_erasure_decoder(E)`; stripe t's message is its exposed symbols on
        its information set I times the inverse of G restricted to I. Next to
        the map, per check column, (subquery, word in its Ehat row's batch,
        support), the columns ordered as the per-row decode raises: distinct
        rows by first appearance, then word, then check row. The column
        profile checked at construction exposes each stripe's symbol at each
        node of its information set exactly once."""
        code, field, n, k, beta = self.code, self.code.field, self.code.n, self.code.k, self.beta
        size = self.d * n
        symbols = np.zeros((size, beta, n), dtype=np.int64)  # form of stripe t's symbol l
        checks, keys = [], []
        rows: dict[Mask, list[int]] = {}
        for i, row in enumerate(self.ehat):
            rows.setdefault(row, []).append(i)
        for row, batch in rows.items():
            support = np.flatnonzero(row)
            known, recover_check = self.product._erasure_decoder(tuple(support.tolist()))
            e = len(support)
            recover = field.sub_array(np.zeros_like(recover_check[:, :e]),
                                      recover_check[:, :e])
            for j, i in enumerate(batch):
                at = i * n + np.array(known, dtype=np.int64)
                stripes = [self.stripes[l][i] for l in support]
                symbols[i * n + support, stripes, support] = 1
                symbols[at[:, None], stripes, support] = recover
                check = np.zeros((size, recover_check.shape[1] - e), dtype=np.int64)
                check[at] = recover_check[:, e:]
                checks.append(check)
                keys += [(i, j, support.tolist())] * check.shape[1]
        inverses = np.stack([code.message_from_information_set(
            iset, np.eye(k, dtype=np.int64), field) for iset in self.info_sets])
        read = symbols[:, np.arange(beta)[:, None], np.array(self.info_sets)]
        messages = field.matmul_array(read.transpose(1, 0, 2), inverses)
        out = np.concatenate([messages.transpose(1, 0, 2).reshape(size, beta * k),
                              *checks], axis=1)
        out.flags.writeable = False
        return out, tuple(keys)

    def to_json_dict(self) -> dict:
        from .families import spec_from_code
        return {"code": spec_from_code(self.code),
                "query_code": spec_from_code(self.query_code),
                "ehat": [list(r) for r in self.ehat],
                "info_sets": [list(s) for s in self.info_sets],
                "T": self.collusion_threshold}


def collusion_threshold(query_code: LinearCode) -> int:
    """T = d_min(dual of the query code) - 1."""
    return query_code.dual().min_distance() - 1


def check_query_code(query_code: LinearCode) -> None:
    """StructureViolation when the query code is zero at some position: the
    node there sees its bare unit offsets, and T = d_min(dual) - 1 = 0."""
    zero = np.flatnonzero(~query_code.G.array().any(axis=0)).tolist()
    if zero:
        raise StructureViolation(f"query code is zero at positions {zero} "
                                 "(0-based), so T = 0: a node there would see "
                                 "its bare unit offsets")


def p3_setup(code: LinearCode, query_code: LinearCode,
             ehat: Sequence[Sequence[int]],
             info_sets: Sequence[Sequence[int]]) -> P3Setup:
    """The setup of (Ehat, information sets) over the storage and query
    codes; raises as `P3Setup` does on a structure the retrieval cannot run on."""
    return P3Setup(code, query_code, ehat, info_sets)


def p3_queries(setup: P3Setup, f: int, m: int, seed: int) -> np.ndarray:
    """The (n, d, beta*f) int64 query array over the query field: node l's
    d x beta*f query is row l, a fresh codeword batch per subquery."""
    d, bf = setup.d, setup.beta * f
    msgs = generator(seed, "p3").integers(
        0, setup.query_code.field.order, size=(1, d, bf, setup.query_code.k))
    return query_batch(setup, f, m, msgs)[0]


def query_batch(setup: P3Setup, f: int, m: int, msgs: np.ndarray) -> np.ndarray:
    """Node queries (T, n, d, beta*f) for file m from T draws of messages
    msgs[t, i] (beta*f x kq, subquery i): node l's row i is coordinate l of the
    codewords plus the unit offset where Ehat has node l leak a symbol."""
    qcode = setup.query_code
    T, d, bf, kq = msgs.shape
    if not 1 <= m <= f or bf != setup.beta * f:
        raise DimensionMismatch(f"m={m} outside 1..{f}, or {bf} != beta*f columns")
    words = qcode.encode(msgs.reshape(T * d * bf, kq))
    out = words.reshape(T, d, bf, qcode.n).transpose(0, 3, 1, 2)
    nodes, subs, stripes = setup.leaks
    cols = (m - 1) * setup.beta + stripes
    hit = out[:, nodes, subs, cols]
    out[:, nodes, subs, cols] = qcode.field.sum_array(
        np.stack([hit, np.ones_like(hit)]), axis=0)
    return out


def p3_respond(dss, queries) -> np.ndarray:
    """Every node's responses as an (n, d) array over the message field: the
    subquery dot products of node l's query rows with its stored column, all
    nodes in one stacked array product. The queries must be an (n, d, beta*f)
    integer array over the storage code's field; anything else raises
    DimensionMismatch."""
    field, stored, code = dss.msg_field, dss.stored, dss.code
    queries = np.asarray(queries)
    if (queries.ndim != 3 or queries.shape[0] != code.n
            or queries.shape[2] != len(stored) or queries.dtype.kind not in "iu"):
        raise DimensionMismatch(f"queries are an (n={code.n}, d, {len(stored)}) "
                                f"integer array for {len(stored)} stored stripes; "
                                f"got {queries.dtype} of shape {queries.shape}")
    if queries.size and (queries.min() < 0 or queries.max() >= code.field.order):
        raise DimensionMismatch(f"a query symbol lies outside {code.field}")
    rows = field.embed_array(queries.astype(np.int64, copy=False), code.field)
    return field.matmul_array(rows, stored.T[:, :, None])[..., 0]


def p3_decode(setup: P3Setup, responses, f: int, m: int,
              msg_field: FiniteField) -> np.ndarray:
    """Decode the (n, d) responses over GF(q^ell) in one product with
    `P3Setup.decode_map`: the file, returned as a (beta, k) int64 array, and
    every subquery's consistency checks. An inconsistent response raises
    DecodeFailure, naming the subquery and the word of its Ehat row's batch
    as the per-row decode would, only when Gamma < n - ktilde (the support
    leaves parity checks unused, so the map has check columns); otherwise it
    decodes to a wrong stripe."""
    code = setup.code
    rho = response_array(responses, (code.n, setup.d), msg_field)
    linear, keys = setup.decode_map
    out = msg_field.matmul_array(rho.T.reshape(1, -1),
                                 msg_field.embed_array(linear, code.field))[0]
    size = setup.beta * code.k
    failing = np.flatnonzero(out[size:])
    if failing.size:
        i, word, support = keys[failing[0]]
        raise DecodeFailure(f"subquery {i}: word {word}: no codeword agrees with "
                            f"it off the erased positions {support}")
    return out[:size].reshape(setup.beta, code.k)


# --- maximum-rate matrices ----------------------------------------------------------

def p3_rm_max_rate(v: int, vbar: int, m: int) -> P3Setup:
    """Reed-Muller setup achieving the upper bound (n - ktilde)/n.

    Takes the weight-bounded information sets of the product code R(v+vbar, m)
    and the storage code R(v, m), and translates them: product sets by the k
    points of the storage information set, storage sets by the n - ktilde
    points outside the product information set. The Ehat rows are the
    complements of the product sets, so `P3Setup` checking them correctable
    checks that those are information sets of the product, and its column
    profile is the maximum-rate matrix's k-column regularity.
    """
    if v + vbar > m:
        raise OrderOverflow(f"v + vbar = {v + vbar} exceeds m = {m}")
    code = rm_code(v, m)
    query_code = rm_code(vbar, m)
    product = code.hadamard_product(query_code)
    expected = rm_code(v + vbar, m)
    if product.k != expected.k or not expected.contains_codewords(product.G.array()):
        raise StructureViolation("product is not the expected Reed-Muller code")
    n = code.n
    i_tilde = rm_information_set(v + vbar, m)
    i_store = rm_information_set(v, m)
    ehat = [tuple(0 if j in s else 1 for j in range(n))
            for s in (set(rm_translate(i_tilde, mu)) for mu in i_store)]
    store_sets = [rm_translate(i_store, sigma) for sigma in range(n)
                  if sigma not in i_tilde]
    setup = p3_setup(code, query_code, ehat, store_sets)
    if setup.rate != setup.rate_upper_bound:
        raise StructureViolation(f"rate {setup.rate} is below the bound "
                                 f"{setup.rate_upper_bound}")
    return setup


def necessary_condition_p3(code: LinearCode, query_code: LinearCode) -> ConditionReport:
    """GHW condition for a maximum-rate matrix to exist: d_s(storage) >=
    (n - ktilde) s / k for every s.

    Every column of the matrix sums to k, and each row is an information set
    of its code (the product for the first k rows, the storage code for the
    other n - ktilde), so it meets the support of any s-dimensional subcode of
    that code in at least s positions. Summed over such a support, the storage
    rows give this inequality and the product rows give k d_s(product) >= k s,
    which every code meets: only the storage side can fail.
    """
    n, k = code.n, code.k
    ktilde = code.hadamard_product(query_code).k
    for s in range(1, k + 1):
        ds = code.generalized_hamming_weight(s)
        if ds * k < (n - ktilde) * s:
            return ConditionReport(False, witness_s=s, witness_value=ds)
    return ConditionReport(True)
