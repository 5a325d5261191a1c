"""Empirical privacy auditing.

The protocols' privacy is exact by construction; these audits are regression
tripwires. Exact mode enumerates the query randomness for tiny parameter sets
and compares the per-collusion-set query distributions across requested files
symbol by symbol. Statistical mode samples the query symbols every node sees
and chi-squares the per-position (joint, for colluding sets) histograms across
the requested file index, passing when every p-value clears a
Bonferroni-corrected 0.01 threshold. For protocols 2 and 3 the query-code
messages of all trials of a file index come from one draw of one seeded numpy
generator and go through the protocol's own query step
(`protocol3.query_batch`) at once; protocol 1 draws one plan per trial
(`protocol1.p1_plan`, one generator each). Protocol 2 is audited as protocol 3
with the repetition query code (T = 1, single spies).

A statistical audit holds every sampled symbol in one int64 array; one larger
than `SAMPLE_LIMIT` symbols raises `TooLarge` before any trial is drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dss import Dss
from .errors import BadParams, TooLarge
from .protocol1 import p1_plan, p1_symmetry_audit
from .protocol3 import P3Setup, query_batch
from .rng import derive_seed, generator

EXACT_SPACE_LIMIT = 1 << 16
SAMPLE_LIMIT = 1 << 25  # symbols a statistical audit samples (int64 each)


@dataclass
class AuditOutcome:
    collusion: tuple[int, ...]
    position: str
    p_value: float | None   # None in exact mode
    identical: bool | None  # None in statistical mode
    flagged: bool


@dataclass
class PrivacyReport:
    protocol: int
    mode: str
    trials: int
    threshold: float        # per-test threshold after Bonferroni
    outcomes: list[AuditOutcome] = dc_field(default_factory=list)
    controls: list[AuditOutcome] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(o.flagged for o in self.outcomes)

    def worst(self) -> AuditOutcome | None:
        stat = [o for o in self.outcomes if o.p_value is not None]
        return min(stat, key=lambda o: o.p_value) if stat else None


def _homogeneity_p(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    keep = counts.sum(axis=0) > 0
    counts = counts[:, keep]
    if counts.shape[1] <= 1:
        return 1.0
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / counts.sum()
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
    return chi2_sf(stat, dof)


def chi2_sf(stat: float, dof: int) -> float:
    """Upper tail P(X >= stat) of the chi-square law with integer dof >= 1.

    Closed form: with h = stat/2, the tail for even dof is the Poisson sum
    e^-h sum_{j < dof/2} h^j / j!, and for odd dof it is erfc(sqrt(h)) plus
    e^-h sum_{j < (dof-1)/2} h^(j+1/2) / Gamma(j+3/2). Every term is positive,
    so nothing cancels, and each is formed in log space, so none overflows.
    """
    if stat <= 0:
        return 1.0
    h = stat / 2
    log_h = math.log(h)
    if dof % 2 == 0:
        head, powers = 0.0, range(dof // 2)
    else:
        head, powers = math.erfc(math.sqrt(h)), [j + 0.5 for j in range(dof // 2)]
    terms = [math.exp(a * log_h - h - math.lgamma(a + 1)) for a in powers]
    return min(1.0, math.fsum([head, *terms]))


def _default_sets(n: int, t: int) -> list[tuple[int, ...]]:
    sets: list[tuple[int, ...]] = []
    for size in range(1, t + 1):
        sets.extend(itertools.combinations(range(n), size))
    return sets


def privacy_audit(protocol: int, dss: Dss, config: dict,
                  collusion_sets=None, trials: int = 10_000, seed: int = 0,
                  mode: str = "statistical",
                  control_sets=()) -> PrivacyReport:
    """Audit query distributions across all requested-file indices.

    `control_sets` are audited and reported but never counted toward pass/fail
    (used for oversized collusion sets that are expected to leak).
    """
    if dss.f < 2:
        raise BadParams("privacy audit needs at least two files to compare")
    n = dss.code.n
    for tset in [*(collusion_sets or ()), *control_sets]:
        if not tset or not all(0 <= l < n for l in tset):
            raise BadParams(f"collusion set {tuple(tset)} must be nonempty "
                            f"with 0-based nodes in 0..{n - 1}")
    if trials < 1 and (protocol == 1 or mode != "exact"):
        raise BadParams(f"statistical audit needs trials >= 1; got {trials}")
    if protocol == 1:
        return _audit_p1(dss, config, collusion_sets, trials, seed)
    if protocol not in (2, 3):
        raise BadParams(f"unknown protocol {protocol}")
    setup: P3Setup = config["structure" if protocol == 2 else "setup"]
    legal = _default_sets(dss.code.n, setup.collusion_threshold)
    if mode == "exact":
        # exact mode audits every legal set when given none (even an empty list)
        return _audit_p23_exact(protocol, setup, dss, collusion_sets or legal,
                                control_sets)
    if collusion_sets is None:
        collusion_sets = legal
    return _audit_p23_statistical(protocol, setup, dss, collusion_sets, trials,
                                  seed, control_sets)


# --- protocols 2 and 3: exact per-subquery enumeration ---------------------------

def _audit_p23_exact(protocol: int, setup: P3Setup, dss: Dss, collusion_sets,
                     control_sets) -> PrivacyReport:
    code, qcode = setup.code, setup.query_code
    q = code.field.order
    bf = setup.beta * dss.f
    space = (q ** qcode.k) ** bf
    if space > EXACT_SPACE_LIMIT:
        raise TooLarge(f"exact mode would enumerate {space} codeword batches")
    report = PrivacyReport(protocol=protocol, mode="exact", trials=space,
                           threshold=0.0)
    codewords = list(qcode.codewords())
    add = code.field.add

    def outcome(tset) -> AuditOutcome:
        per_sub_identical = True
        for i in range(setup.d):
            dists = []
            for m in range(1, dss.f + 1):
                # the unit offset each node of the set adds in subquery i
                offsets = [(m - 1) * setup.beta + setup.stripes[l][i]
                           if setup.ehat[i][l] else None for l in tset]
                hist: dict[tuple, int] = {}
                for batch in itertools.product(codewords, repeat=bf):
                    key = []
                    for l, col in zip(tset, offsets):
                        row = [cw[l] for cw in batch]
                        if col is not None:
                            row[col] = add(row[col], 1)
                        key.extend(row)
                    key = tuple(key)
                    hist[key] = hist.get(key, 0) + 1
                dists.append(hist)
            if not all(h == dists[0] for h in dists[1:]):
                per_sub_identical = False
                break
        return AuditOutcome(collusion=tuple(tset), position="joint-subqueries",
                            p_value=None, identical=per_sub_identical,
                            flagged=not per_sub_identical)

    for tset in collusion_sets:
        report.outcomes.append(outcome(tset))
    for tset in control_sets:
        report.controls.append(outcome(tset))
    return report


# --- protocols 2 and 3: statistical sampling -----------------------------------

def _audit_p23_statistical(protocol: int, setup: P3Setup, dss: Dss,
                           collusion_sets, trials: int, seed: int,
                           control_sets) -> PrivacyReport:
    q, kq = dss.code.field.order, setup.query_code.k
    n, d, bf = dss.code.n, setup.d, setup.beta * dss.f
    shape = (dss.f, trials, n, d, bf)
    _check_sample_size(shape)
    samples = np.empty(shape, dtype=np.int64)
    for m in range(1, dss.f + 1):
        msgs = generator(seed, "audit", protocol, m).integers(
            0, q, size=(trials, d, bf, kq))
        samples[m - 1] = query_batch(setup, dss.f, m, msgs)
    samples = samples.reshape(dss.f, trials, n, d * bf)
    threshold = 0.01 / max(len(collusion_sets) * d * bf, 1)
    report = PrivacyReport(protocol=protocol, mode="statistical", trials=trials,
                           threshold=threshold)
    names = [f"subquery {i} col {j}" for i in range(d) for j in range(bf)]
    _homogeneity_outcomes(samples, q, collusion_sets, threshold, names,
                          report.outcomes)
    _homogeneity_outcomes(samples, q, control_sets, threshold, names,
                          report.controls)
    return report


def _check_sample_size(shape: tuple[int, ...]) -> None:
    size = math.prod(shape)
    if size > SAMPLE_LIMIT:
        raise TooLarge(f"the audit would sample {size} symbols {shape}, over "
                       f"the limit of {SAMPLE_LIMIT}; use fewer trials")


def _homogeneity_outcomes(samples: np.ndarray, base: int, sets, threshold: float,
                          names: list[str], sink: list) -> None:
    """One chi-square homogeneity test across file indices per (set, position):
    samples[g, t, l, pos] is the symbol (in 0..base-1) node l sees at position
    names[pos] in trial t for file g + 1; a set is tested on its joint symbol."""
    f = samples.shape[0]
    for tset in sets:
        vmax = base ** len(tset)
        bins = np.arange(f)[:, None] * vmax
        for pos, name in enumerate(names):
            joint = 0
            for l in tset:
                joint = joint * base + samples[:, :, l, pos]
            # file g + 1 counts in bins g*vmax .. (g+1)*vmax - 1
            counts = np.bincount((joint + bins).ravel(), minlength=f * vmax)
            p = _homogeneity_p(counts.reshape(f, vmax))
            sink.append(AuditOutcome(collusion=tuple(tset), position=name,
                                     p_value=p, identical=None,
                                     flagged=p <= threshold))


# --- protocol 1: positional subset distributions plus exact balance checks -------

def _audit_p1(dss: Dss, config: dict, collusion_sets, trials: int,
              seed: int) -> PrivacyReport:
    lam = config["lam"]
    n = dss.code.n
    if collusion_sets is None:
        collusion_sets = _default_sets(n, 1)
    plans = {}
    for m in range(1, dss.f + 1):
        plans[m] = p1_plan(dss.code, lam, dss.f, m, seed)
    d = plans[1].d
    shape = (dss.f, trials, n, d)
    _check_sample_size(shape)
    # exact structural audits on one plan per file index
    notes = []
    for m, plan in plans.items():
        sym = p1_symmetry_audit(plan)
        if not sym.ok:
            notes.extend(f"m={m}: {v}" for v in sym.violations)
    # the canonical atoms depend only on m, so label each one's file subset once;
    # a trial's node-j view is then that label row in the plan's shuffled order
    subset_index: dict[tuple, int] = {}
    rows = np.arange(n)[:, None]
    samples = np.empty(shape, dtype=np.int64)
    for m, plan in plans.items():
        labels = np.array([[subset_index.setdefault(
            tuple(sorted(mp for mp, _ in atom.terms)), len(subset_index))
            for atom in atoms] for atoms in plan.node_atoms], dtype=np.int64)
        # each trial's shuffle orders first, then replaced by the labels they pick
        for t in range(trials):
            child = derive_seed(seed, "audit-p1", m, t)
            samples[m - 1, t] = p1_plan(dss.code, lam, dss.f, m, child).shuffles
        samples[m - 1] = labels[rows, samples[m - 1]]
    threshold = 0.01 / max(len(collusion_sets) * d, 1)
    skipped = [f"skipping non-singleton set {tset}: the noncolluding protocol "
               "defends single spies" for tset in collusion_sets if len(tset) != 1]
    report = PrivacyReport(protocol=1, mode="statistical", trials=trials,
                           threshold=threshold, notes=notes + skipped)
    _homogeneity_outcomes(samples, len(subset_index),
                          [tset for tset in collusion_sets if len(tset) == 1],
                          threshold, [f"position {pos}" for pos in range(d)],
                          report.outcomes)
    # only the structural notes are violations; skipped sets are not
    report.outcomes += [AuditOutcome(collusion=(), position=f"structural: {note}",
                                     p_value=None, identical=False, flagged=True)
                        for note in notes]
    return report
