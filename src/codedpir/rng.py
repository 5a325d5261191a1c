"""Deterministic seed derivation.

Every random choice in the package flows from a single 64-bit integer seed
through `derive_seed`, so transcripts replay bit-exactly across runs and
platforms. A (seed, labels) pair names one stream, of one of two kinds:

- `generator`: a numpy `Generator` (PCG64), one per plan, query or store:
  protocol 1's stripe permutations and query shuffles (`protocol1.p1_plan`),
  the query-code messages of protocols 2 and 3 (`protocol3.p3_queries`), each
  file index's trials of the p2/p3 statistical audit (`audit`), and the files
  a `Dss` stores, in one `integers` call per store.
- `rng_for`: a `random.Random`, for the optimizer's pattern samples (sort keys
  from one `randbytes` call per list, so the optimizer never loads
  `numpy.random`) and window layouts, and for the information sets of
  `lambda_generic` and `lrc_E_matrix`, which the packaged fixtures pin.

NumPy keeps PCG64's bit stream fixed but does not promise that `Generator`
methods map it to the same values in every release, so a numpy upgrade may
change query transcripts and stored files (never whether a run decodes).
"""

from __future__ import annotations

import hashlib
import operator
import os
import random

import numpy as np

from .errors import BadParams

DEFAULT_SEED = 0x5EED_C0DE
ENV_SEED = "CODEDPIR_SEED"


def seed_index(value, what: str = "a seed") -> int:
    """`value` as an int: BadParams naming it, as `what`, if it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParams(f"{what} must be an integer, not {value!r}") from None


def derive_seed(seed: int, *labels) -> int:
    """Derive a child seed from (seed, labels) via SHA-256. Stable across runs."""
    h = hashlib.sha256()
    h.update(str(seed_index(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    """A `random.Random` seeded from the derived child seed."""
    return random.Random(derive_seed(seed, *labels))


def generator(seed: int, *labels) -> np.random.Generator:
    """A numpy `Generator` seeded from the derived child seed."""
    return np.random.default_rng(derive_seed(seed, *labels))


def default_seed() -> int:
    """Package default seed, overridable through the CODEDPIR_SEED env var
    (an integer literal such as 7 or 0x123); BadParams naming the variable
    and its value for anything else."""
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise BadParams(f"{ENV_SEED}={raw!r} is not an integer seed") from None
