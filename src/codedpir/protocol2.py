"""File-independent retrieval protocol for noncolluding nodes.

Protocol 2 is protocol 3 with the [n,1] repetition code as its query code:
the Hadamard product of the repetition code and the storage code is the
storage code itself, and the collusion threshold is T = 1. Every subquery
sends all nodes the same fresh uniform row plus a unit offset on the nodes
that leak a desired symbol, and the decoder reads those symbols through the
storage code's parity check. This module only names that case; validation,
queries, responses and decoding are the `protocol3` engine's, which the rest
of the package calls directly (`p2_queries`, `p2_respond` and `p2_decode` are
plain forwards to it).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .codes import LinearCode, repetition_code
from .fields import FiniteField
from .protocol3 import P3Setup, p3_decode, p3_queries, p3_respond, p3_setup


def p2_build_structure(code: LinearCode, info_sets: Sequence[Sequence[int]],
                       ehat: Sequence[Sequence[int]]) -> P3Setup:
    """The validated protocol-3 setup of (Ehat, information sets) with the
    repetition query code; raises StructureViolation on a bad structure."""
    return p3_setup(code, repetition_code(code.field, code.n), ehat, info_sets)


def p2_queries(setup: P3Setup, f: int, m: int, seed: int) -> np.ndarray:
    return p3_queries(setup, f, m, seed)


def p2_respond(dss, queries) -> np.ndarray:
    return p3_respond(dss, queries)


def p2_decode(setup: P3Setup, responses, f: int, m: int,
              msg_field: FiniteField) -> np.ndarray:
    return p3_decode(setup, responses, f, m, msg_field)
