"""Empirical privacy auditing.

The protocols' privacy is exact by construction; these audits are regression
tripwires. Exact mode enumerates the query randomness for tiny parameter sets
and compares the per-collusion-set query distributions across requested files
symbol by symbol. Statistical mode samples protocol runs and chi-squares the
per-position (joint, for colluding sets) query-symbol histograms across the
requested file index, passing when every p-value clears a Bonferroni-corrected
0.01 threshold. Protocol 2 is audited as protocol 3 with the repetition query
code (T = 1, single spies).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dss import Dss
from .errors import BadParams, TooLarge
from .protocol1 import p1_plan, p1_symmetry_audit
from .protocol3 import P3Setup, p3_queries
from .rng import derive_seed

EXACT_SPACE_LIMIT = 1 << 16


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

def _collect_queries(protocol: int, setup: P3Setup, f: int, m: int,
                     trials: int, seed: int) -> np.ndarray:
    """Query tensors: shape (trials, n, d, beta*f), entries in [0, q)."""
    out = np.empty((trials, setup.code.n, setup.d, setup.beta * f), dtype=np.int64)
    for t in range(trials):
        child = derive_seed(seed, "audit", protocol, m, t)
        out[t] = [Q.data for Q in p3_queries(setup, f, m, child)]
    return out


def _audit_p23_statistical(protocol: int, setup: P3Setup, dss: Dss,
                           collusion_sets, trials: int, seed: int,
                           control_sets) -> PrivacyReport:
    q = dss.code.field.order
    tensors = [_collect_queries(protocol, setup, dss.f, m, trials, seed)
               for m in range(1, dss.f + 1)]
    d, bf = setup.d, setup.beta * dss.f
    n_tests = (len(collusion_sets)) * d * bf
    threshold = 0.01 / max(n_tests, 1)
    report = PrivacyReport(protocol=protocol, mode="statistical", trials=trials,
                           threshold=threshold)

    def outcomes_for(tset, sink):
        size = len(tset)
        vmax = q ** size
        for i in range(d):
            for j in range(bf):
                counts = np.zeros((dss.f, vmax), dtype=np.int64)
                for g, tensor in enumerate(tensors):
                    joint = np.zeros(trials, dtype=np.int64)
                    for pos, l in enumerate(tset):
                        joint = joint * q + tensor[:, l, i, j]
                    counts[g] = np.bincount(joint, minlength=vmax)
                p = _homogeneity_p(counts)
                sink.append(AuditOutcome(
                    collusion=tuple(tset), position=f"subquery {i} col {j}",
                    p_value=p, identical=None, flagged=p <= threshold))

    for tset in collusion_sets:
        outcomes_for(tset, report.outcomes)
    for tset in control_sets:
        outcomes_for(tset, report.controls)
    return report


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
    samples = np.empty((dss.f, trials, n, d), dtype=np.int64)
    for m, plan in plans.items():
        labels = np.array([[subset_index.setdefault(
            tuple(sorted(mp for mp, _ in atom.terms)), len(subset_index))
            for atom in atoms] for atoms in plan.node_atoms], dtype=np.int64)
        # each trial's shuffle orders first, then replaced by the labels they pick
        for t in range(trials):
            child = derive_seed(seed, "audit-p1", m, t)
            samples[m - 1, t] = p1_plan(dss.code, lam, dss.f, m, child).shuffles
        samples[m - 1] = labels[rows, samples[m - 1]]
    vmax = len(subset_index)
    n_tests = len(collusion_sets) * d
    threshold = 0.01 / max(n_tests, 1)
    report = PrivacyReport(protocol=1, mode="statistical", trials=trials,
                           threshold=threshold, notes=notes)
    for tset in collusion_sets:
        if len(tset) != 1:
            report.notes.append(f"skipping non-singleton set {tset}: the "
                                "noncolluding protocol defends single spies")
            continue
        (j,) = tset
        for pos in range(d):
            counts = np.zeros((dss.f, vmax), dtype=np.int64)
            for g in range(dss.f):
                counts[g] = np.bincount(samples[g, :, j, pos], minlength=vmax)
            p = _homogeneity_p(counts)
            report.outcomes.append(AuditOutcome(
                collusion=(j,), position=f"position {pos}",
                p_value=p, identical=None, flagged=p <= threshold))
    if notes:
        for note in notes:
            report.outcomes.append(AuditOutcome(
                collusion=(), position=f"structural: {note}", p_value=None,
                identical=False, flagged=True))
    return report
