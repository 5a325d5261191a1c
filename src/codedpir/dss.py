"""Simulated distributed storage system and the protocol runner.

The Dss holds f files of beta stripes over GF(q^ell) as one read-only
(f, beta, k) int64 array, `files` (drawn, or a copy of the caller's array;
a caller embeds a file over a subfield with `FiniteField.embed_array`),
encoded in one array product with the storage code into `stored`, a
read-only (f*beta) x n int64 array and the one copy of the coded data; node
l stores its column l, the l-th coordinate of every encoded stripe, and the
protocols' node-side steps (`p1_answer`, `p3_respond`) answer every node at
once from `stored`. `run` makes one round trip of protocol 1, or of the
protocol-3 engine, which serves protocol 2 with the repetition query code;
both decoders take the responses through `response_array`, which refuses any
symbol outside the files' field, and return the file as a (beta, k) array.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .codes import LinearCode
from .errors import BadParams, DecodeFailure
from .fields import FiniteField
from .rng import generator, seed_index

MAX_STRIPES = 10 ** 6  # memory guard on the f*beta stripes of a store (protocol 1: nu^f a file)


class Dss:
    """n-node storage system holding f encoded files of beta stripes."""

    def __init__(self, code: LinearCode, f: int, beta: int, ell: int = 1,
                 seed: int = 0, files: np.ndarray | None = None):
        if f < 1 or beta < 1 or ell < 1:
            raise BadParams(f"need f, beta, ell >= 1; got {f}, {beta}, {ell}")
        if f * beta > MAX_STRIPES:
            raise BadParams(f"{f} files of {beta} stripes exceed the memory "
                            f"guard of {MAX_STRIPES} stripes")
        self.code, self.f, self.beta, self.ell = code, f, beta, ell
        self.seed = seed_index(seed)
        self.msg_field: FiniteField = code.field.extension(ell)
        shape, order = (f, beta, code.k), self.msg_field.order
        if files is None:
            files = generator(seed, "dss", "files").integers(0, order, size=shape)
        else:
            try:
                files = np.array(files)  # a copy: the caller keeps no write access
            except ValueError:  # ragged
                files = np.array(None)
            if files.shape != shape or files.dtype.kind not in "iu":
                raise BadParams(f"files must be an integer array of shape {shape}, "
                                f"not a {files.dtype} array of shape {files.shape}")
            if files.min() < 0 or files.max() >= order:
                raise BadParams(f"file symbols must be elements of {self.msg_field}")
            files = files.astype(np.int64, copy=False)
        files.flags.writeable = False
        self.files = files
        self._hashes: dict[int, str] = {}
        # file-major, stripe-minor: column l is node l's content
        self.stored = code.encode(files.reshape(f * beta, code.k), self.msg_field)
        if not code.contains_codewords(self.stored, self.msg_field):
            raise BadParams("encoded stripe is not a codeword")
        self.stored.flags.writeable = False

    def node_content(self, node: int) -> list[int]:
        """The f coded chunks stored by a node: file-major, stripe-minor."""
        return self.stored[:, node].tolist()

    def file_hash(self, m: int) -> str:
        """Canonical digest of file m (1-based) for transcript comparison,
        computed on first request (files are read-only after init)."""
        digest = self._hashes.get(m)
        if digest is None:
            payload = json.dumps(self.files[m - 1].tolist()).encode()
            digest = self._hashes[m] = hashlib.sha256(payload).hexdigest()
        return digest


@dataclass
class Transcript:
    """One protocol round trip: node views, responses, and the achieved rate.

    Queries, responses and the user part are held as the protocol made them,
    int64 arrays (protocol 1: (n, d, f) physical rows; protocols 2 and 3:
    (n, d, beta*f) query symbols over GF(`q`)), and rendered as JSON only by
    `to_json_dict`."""

    protocol: str
    n: int
    f: int
    requested: int
    seed: int
    queries: object          # per-node, node-visible form
    responses: object        # per-node response symbols
    decoded_hash: str = ""
    downloaded: int = 0
    rate: Fraction = Fraction(0)
    user: dict = dc_field(default_factory=dict)  # user-private bookkeeping
    q: int = 0               # order of the query symbols' field (protocols 2, 3)

    def to_json_dict(self, include_user: bool = True) -> dict:
        if self.protocol == "p1":
            # a query row lists its (file, physical row) terms in file order
            queries = [[[[x, row] for x, row in enumerate(request, 1) if row >= 0]
                        for request in node] for node in self.queries.tolist()]
        else:
            _, d, cols = self.queries.shape
            queries = [{"q": self.q, "rows": d, "cols": cols, "entries": node}
                       for node in self.queries.tolist()]
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "files": self.f,
            "seed": self.seed,
            "queries": queries,
            "responses": _plain(self.responses),
            "decoded_hash": self.decoded_hash,
            "downloaded": self.downloaded,
            "rate": [self.rate.numerator, self.rate.denominator],
        }
        if include_user:
            out["requested"] = self.requested
            out["user"] = {key: _plain(value) for key, value in self.user.items()}
        return out


def response_array(responses, shape: tuple[int, int], msg_field: FiniteField) -> np.ndarray:
    """The responses of a round trip as an int64 array of the given (n, d)
    shape, each symbol an element of `msg_field`, for a decoder: DecodeFailure
    for a ragged or misshapen set ("incomplete responses"), a non-integer
    array, or a symbol outside 0..q^ell-1, naming the first node that sent
    one."""
    try:
        rho = np.asarray(responses)
    except ValueError:  # ragged
        rho = None
    if rho is None or rho.shape != shape:
        raise DecodeFailure("incomplete responses")
    if rho.dtype.kind not in "iu":
        raise DecodeFailure(f"responses must be integer symbols of {msg_field}, "
                            f"not a {rho.dtype} array")
    order = msg_field.order
    if rho.size and (rho.min() < 0 or rho.max() >= order):
        outside = (rho < 0) | (rho >= order)
        node, pos = (int(i[0]) for i in np.nonzero(outside))
        raise DecodeFailure(f"node {node}: response {rho[node, pos]} is not an "
                            f"element of {msg_field} (0..{order - 1})")
    return rho.astype(np.int64, copy=False)


def _plain(value):
    """JSON form of a value that may be an array."""
    return value.tolist() if isinstance(value, np.ndarray) else value


# --- protocol runner -----------------------------------------------------------

def run(protocol: int, dss: Dss, config: dict) -> Transcript:
    """One full round trip; raises DecodeFailure if the file is not recovered.

    config keys: "m" (1-based requested file), "seed", and the protocol
    structure: "lam" (protocol 1), "structure" (protocol 2, a P3Setup with the
    repetition query code), "setup" (protocol 3).
    """
    from .protocol1 import p1_answer, p1_decode, p1_plan
    from .protocol3 import p3_decode, p3_queries, p3_respond

    m = seed_index(config.get("m", 1), "a file index")
    seed = seed_index(config.get("seed", dss.seed))
    if protocol == 1:
        plan = p1_plan(dss.code, config["lam"], dss.f, m, seed)
        if plan.beta != dss.beta:
            raise BadParams(f"plan wants beta={plan.beta}, storage has {dss.beta}")
        queries = plan.queries()
        responses = p1_answer(dss, queries)
        decoded = p1_decode(plan, responses, dss.msg_field)
        user = {"perms": plan.perms, "shuffles": plan.shuffles}
    elif protocol in (2, 3):
        setup = config["structure" if protocol == 2 else "setup"]
        if setup.beta != dss.beta:
            raise BadParams("setup and storage disagree on beta")
        if setup.code.field is not dss.code.field or setup.code.G != dss.code.G:
            raise BadParams("setup was built for another storage code than the "
                            "store's (field or generator matrix differs)")
        queries = p3_queries(setup, dss.f, m, seed)
        responses = p3_respond(dss, queries)
        decoded = p3_decode(setup, responses, dss.f, m, dss.msg_field)
        user = {"ehat": [list(r) for r in setup.ehat],
                "info_sets": [list(s) for s in setup.info_sets],
                "T": setup.collusion_threshold, "seed": seed}
    else:
        raise BadParams(f"unknown protocol {protocol}")

    if not np.array_equal(decoded, dss.files[m - 1]):
        raise DecodeFailure("decoded file differs from stored file")
    return Transcript(protocol=f"p{protocol}", n=dss.code.n, f=dss.f, requested=m,
                      seed=seed, queries=queries, responses=responses,
                      decoded_hash=dss.file_hash(m), downloaded=responses.size,
                      rate=Fraction(dss.beta * dss.code.k, responses.size),
                      user=user, q=dss.code.field.order)
