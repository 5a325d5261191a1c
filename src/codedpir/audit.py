"""Privacy auditing.

Exact mode (protocols 2 and 3) decides privacy: a set S of nodes sees, in
every (subquery, column), a uniform point of V_S + offset, V_S the row space
of the query code's generator restricted to S, so S learns nothing about the
requested file iff every unit offset it adds lies in V_S, whatever f and the
files are. Statistical mode, the only audit of protocol 1 and a tripwire on
all three, samples the query symbols every node sees and chi-squares the
per-position (joint, for colluding sets) histograms across the requested file
index, passing when every p-value clears a 0.01 threshold Bonferroni-corrected
over the sets it tests. The tests are counted in batches: the sets of one size
go in blocks, one bincount counts every (set, position, file index) of a
block, and every statistic of the block is formed at once; only the p-value
itself (`chi2_sf`) is one call per test. For protocols 2 and 3 the query-code
messages of all trials of a file index come from one draw of one seeded numpy
generator and go through the protocol's own query step
(`protocol3.query_batch`) at once; protocol 1 draws one plan per trial
(`protocol1.p1_plan`, one generator each). Protocol 2 is audited as protocol 3
with the repetition query code (T = 1, single spies).

Auditing every legal set checks at most `SET_LIMIT` sets, counted before any
is built; a statistical audit holds every sampled symbol in one int64 array,
and one larger than `SAMPLE_LIMIT` symbols raises `TooLarge` before any trial
is drawn. The counting blocks hold at most `fields.MATMUL_CHUNK` keys and as
many counts, the block size of the field layer's array products, down to one
(set, position) test, whose f x trials keys and f x q^|S| table alone may be
larger; so counting adds little to the memory the samples hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .dss import Dss
from .errors import BadParams, TooLarge
from .fields import MATMUL_CHUNK
from .protocol1 import _first_seen, p1_plan, p1_symmetry_audit
from .protocol3 import P3Setup, query_batch
from .rng import derive_seed, generator

SET_LIMIT = 1 << 12  # collusion sets an audit of every legal set checks
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
    """Every set of 1..t of the n nodes; TooLarge, before any set is built,
    when there are more than SET_LIMIT."""
    count = sum(math.comb(n, size) for size in range(1, t + 1))
    if count > SET_LIMIT:
        raise TooLarge(f"the audit would check {count} collusion sets (every "
                       f"set of at most {t} of {n} nodes), over the limit of "
                       f"{SET_LIMIT}; name the sets to audit")
    return [tset for size in range(1, t + 1)
            for tset in combinations(range(n), size)]


def privacy_audit(protocol: int, dss: Dss, config: dict,
                  collusion_sets=None, trials: int = 10_000, seed: int = 0,
                  mode: str = "statistical",
                  control_sets=()) -> PrivacyReport:
    """Audit the query views of `collusion_sets` across all requested-file
    indices: None audits every legal set (single nodes for protocols 1 and 2,
    every set of at most T nodes for protocol 3), [] audits none.

    mode "statistical" samples `trials` queries per file index (protocols 1,
    2 and 3); mode "exact" decides each set by linear algebra (protocols 2
    and 3 only), reads no trials and reports trials = 0. `control_sets` are
    audited and reported but never counted toward pass/fail (protocols 2 and
    3 only; used for oversized collusion sets that are expected to leak).
    """
    if mode not in ("statistical", "exact"):
        raise BadParams(f"unknown audit mode {mode!r}; use statistical or exact")
    if protocol == 1 and (mode == "exact" or control_sets):
        raise BadParams("protocol 1 has only the statistical audit, and no control sets")
    if dss.f < 2:
        raise BadParams("privacy audit needs at least two files to compare")
    n = dss.code.n
    for tset in [*(collusion_sets or ()), *control_sets]:
        if not tset or not all(0 <= l < n for l in tset):
            raise BadParams(f"collusion set {tuple(tset)} must be nonempty "
                            f"with 0-based nodes in 0..{n - 1}")
    if mode == "statistical" and trials < 1:
        raise BadParams(f"statistical audit needs trials >= 1; got {trials}")
    if protocol == 1:
        return _audit_p1(dss, config, collusion_sets, trials, seed)
    if protocol not in (2, 3):
        raise BadParams(f"unknown protocol {protocol}")
    setup: P3Setup = config["structure" if protocol == 2 else "setup"]
    if collusion_sets is None:
        collusion_sets = _default_sets(n, setup.collusion_threshold)
    if mode == "exact":
        return _audit_p23_exact(protocol, setup, collusion_sets, control_sets)
    return _audit_p23_statistical(protocol, setup, dss, collusion_sets, trials,
                                  seed, control_sets)


# --- protocols 2 and 3: exact decision by linear algebra ---------------------

def _audit_p23_exact(protocol: int, setup: P3Setup, collusion_sets,
                     control_sets) -> PrivacyReport:
    """S is private iff N_S u = 0 for N_S the null space of G restricted to
    S and u each leak indicator (nodes of S leaking stripe t in subquery i)."""
    f, g, beta = setup.query_code.field, setup.query_code.G.array(), setup.beta
    # leaks[l, i*beta + t] = 1 iff node l leaks stripe t in subquery i
    nodes, subs, stripes = setup.leaks
    leaks = np.zeros((setup.code.n, setup.d * beta), dtype=np.int64)
    leaks[nodes, subs * beta + stripes] = 1

    def outcome(tset) -> AuditOutcome:
        null = f.null_space_array(g[:, list(tset)])
        bad = np.flatnonzero(f.matmul_array(null, leaks[list(tset)]).any(axis=0)).tolist()
        position = ("subquery {} stripe {}".format(*divmod(bad[0], beta))
                    if bad else "joint-subqueries")
        return AuditOutcome(collusion=tuple(tset), position=position,
                            p_value=None, identical=not bad, flagged=bool(bad))

    return PrivacyReport(protocol=protocol, mode="exact", trials=0,
                         threshold=0.0,
                         outcomes=[outcome(tset) for tset in collusion_sets],
                         controls=[outcome(tset) for tset in control_sets])


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
    names[pos] in trial t for file g + 1; a set is tested on its joint symbol.

    The sets of one size are counted in blocks: each set's joint symbols are
    built from the views samples[:, :, l] of its nodes, and one bincount counts
    every (set, position, file) of the block. A block is as many sets as keep
    its keys and its counts within MATMUL_CHUNK entries each or, when one
    set's do not fit, as many of that set's positions (at least one: a lone
    test's f x trials keys and f x base^|set| table may be larger); all its
    tests are scored at once (`_homogeneity_ps`)."""
    f, trials, _, npos = samples.shape
    p_values: dict[int, list[float]] = {}
    for size in sorted({len(tset) for tset in sets}):
        group = [i for i, tset in enumerate(sets) if len(tset) == size]
        vmax = base ** size
        fit = max(1, MATMUL_CHUNK // (f * max(trials, vmax)))  # tests per block
        width, block = min(npos, fit), max(1, fit // npos)
        for start in range(0, len(group), block):
            part = group[start:start + block]
            for lo in range(0, npos, width):
                cols = slice(lo, min(lo + width, npos))
                w = cols.stop - lo
                keys = np.empty((len(part), f, trials, w), dtype=np.int64)
                for key, i in zip(keys, part):
                    first, *rest = sets[i]
                    key[...] = samples[:, :, first, cols]
                    for l in rest:
                        key *= base
                        key += samples[:, :, l, cols]
                # set b, position lo + p, file g + 1 counts in bins
                # ((b*w + p)*f + g)*vmax .. + vmax - 1
                keys += ((np.arange(len(part))[:, None, None, None] * w + np.arange(w))
                         * f + np.arange(f)[:, None, None]) * vmax
                counts = np.bincount(keys.ravel(), minlength=len(part) * w * f * vmax)
                ps = _homogeneity_ps(counts.reshape(len(part) * w, f, vmax))
                for b, i in enumerate(part):
                    p_values.setdefault(i, []).extend(ps[b * w:(b + 1) * w])
    for i, tset in enumerate(sets):
        sink.extend(AuditOutcome(collusion=tuple(tset), position=name, p_value=p,
                                 identical=None, flagged=p <= threshold)
                    for name, p in zip(names, p_values[i]))


def _homogeneity_ps(counts: np.ndarray) -> list[float]:
    """The chi-square homogeneity p-value of each files x values table
    counts[b]: the values no file shows are dropped, a table left with at most
    one value reads 1.0, and the tables that keep the same number of values
    are scored together."""
    tests, f, vmax = counts.shape
    seen = counts.any(axis=1)
    kept = seen.sum(axis=1)
    ps = [1.0] * tests
    for k in set(kept[kept > 1].tolist()):
        rows = np.flatnonzero(kept == k)
        mask = np.broadcast_to(seen[rows, None], (len(rows), f, vmax))
        table = counts[rows][mask].reshape(len(rows), f, k).astype(float)
        row = table.sum(axis=2, keepdims=True)
        col = table.sum(axis=1, keepdims=True)
        expected = row * col / table.sum(axis=(1, 2))[:, None, None]
        stats = ((table - expected) ** 2 / expected).reshape(len(rows), f * k).sum(axis=1)
        dof = (f - 1) * (k - 1)
        for r, stat in zip(rows.tolist(), stats.tolist()):
            ps[r] = chi2_sf(stat, dof)
    return ps


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
    # the canonical requests depend only on m, so label each one's file set
    # once, numbered by first appearance over (m, node, request); a trial's
    # node-j view is then that label row in the plan's shuffled order
    masks = np.stack([plan.file_sets for plan in plans.values()])
    first, _, labels = _first_seen(masks.ravel())
    labels = labels.reshape(masks.shape)
    rows = np.arange(n)[:, None]
    samples = np.empty(shape, dtype=np.int64)
    for m in plans:
        # each trial's shuffle orders first, then replaced by the labels they pick
        for t in range(trials):
            child = derive_seed(seed, "audit-p1", m, t)
            samples[m - 1, t] = p1_plan(dss.code, lam, dss.f, m, child).shuffles
        samples[m - 1] = labels[m - 1][rows, samples[m - 1]]
    audited = [tset for tset in collusion_sets if len(tset) == 1]
    threshold = 0.01 / max(len(audited) * d, 1)
    skipped = [f"skipping non-singleton set {tset}: the noncolluding protocol "
               "defends single spies" for tset in collusion_sets if len(tset) != 1]
    report = PrivacyReport(protocol=1, mode="statistical", trials=trials,
                           threshold=threshold, notes=notes + skipped)
    _homogeneity_outcomes(samples, len(first), audited, threshold,
                          [f"position {pos}" for pos in range(d)], report.outcomes)
    # only the structural notes are violations; skipped sets are not
    report.outcomes += [AuditOutcome(collusion=(), position=f"structural: {note}",
                                     p_value=None, identical=False, flagged=True)
                        for note in notes]
    return report
