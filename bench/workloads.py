"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `__init__` (this is
set-up, timed as part of `setup_s`) and then runs repeatable units of work
through `run_unit`. A unit returns one record per operation: its kind, its
start and end by the workload's clock, and whether every check on its output
held. Where every unit repeats the same operations (`repeats = True`), the
kind names the operation, so its repeats can be told apart from the others.

The program is reached only through module attributes of the imported
package, never through names bound here, so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

# --- worked examples (also used by the repository's acceptance suite) --------

GOOD_G = [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]
G73 = [[1, 0, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 1, 0, 1]]
H73 = [[0, 1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 1, 0, 0],
       [1, 1, 0, 0, 0, 1, 0], [1, 1, 1, 0, 0, 0, 1]]
H124 = [[0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0],
        [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]]
EHAT_EX5 = [[1, 0, 1, 0, 0], [1, 1, 0, 0, 0], [0, 1, 1, 0, 0]]
ISETS_EX5 = [[0, 1, 2], [0, 1, 2]]
EHAT_EX6 = [[0, 0, 1, 1, 1, 1, 0], [1, 1, 0, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1, 1]]
ISETS_EX6 = [[2, 3, 5], [1, 5, 6], [0, 2, 3], [0, 4, 5]]
LAM35 = [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1), (0, 1, 0, 1, 1),
         (0, 1, 1, 1, 0), (1, 0, 1, 0, 1)]
EHAT_P3 = [(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
           (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)]
ISETS_P3 = [(1, 2, 8, 11)]


def _note(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _next_op(rec) -> None:
    if rec is not None:
        rec.op += 1


class Workload:
    unit = "pass"      # what one call of run_unit does
    repeats = True     # every unit runs the same operations

    def details(self) -> dict:
        """Run details for the result's info line."""
        return {}


# --- tables -------------------------------------------------------------------

TABLE_I_II = ["c1", "c2", "c3", "c4", "c5", "c8", "c9", "c10"]
TABLE_III = ["c9", "c10", "c11", "c12", "c13", "c14"]
TOLERANCE = 1e-4
# r_opt values the acceptance suite asserts for table reproduction
R_OPT = {
    ("I/II", "c1"): 0.4, ("I/II", "c2"): 0.4545, ("I/II", "c3"): 0.3333,
    ("I/II", "c4"): 0.3333, ("I/II", "c5"): 0.3750, ("I/II", "c8"): 0.5714,
    ("I/II", "c9"): 0.5555, ("I/II", "c10"): 0.5,
    ("III", "c9"): 0.3333, ("III", "c10"): 0.3333, ("III", "c11"): 0.1667,
    ("III", "c12"): 0.4167, ("III", "c14"): 0.5,
}


class Tables(Workload):
    """Tables I-III through `reports.report_tables(seed)`; one unit is one full
    report (14 rows), one operation is one row."""

    def __init__(self, cp, seed: int, clock):
        self.cp = cp
        self.seed = seed
        self.clock = clock
        # warm the field cache (GF(13), GF(16), GF(17), ...) the rows use
        reports = cp.reports
        for name in sorted(set(TABLE_I_II + TABLE_III)):
            reports.fixture_code(reports.load_fixture(name))

    def run_unit(self, rec=None) -> list[tuple[str, float, float, bool]]:
        reports = self.cp.reports
        rows = len(TABLE_I_II) + len(TABLE_III)
        spans: list[tuple[float, float]] = []
        _next_op(rec)
        t0 = self.clock()
        with _timed(reports, ("noncolluding_row", "colluding_row"), spans, self.clock):
            try:
                report = reports.report_tables(seed=self.seed)
            except self.cp.CodedPirError as exc:
                _note(f"tables: report_tables raised {exc!r}")
                end = self.clock()
                return [(f"row {i}", t0, end, False) for i in range(rows)]
        out = []
        for row, (start, end) in zip(report.rows, spans):
            ok = row.ok
            table = "III" if row.table == "III" else "I/II"
            want = R_OPT.get((table, row.name))
            if want is not None and abs(float(row.computed["r_opt"]) - want) > TOLERANCE:
                ok = False
            if not ok:
                _note(f"tables: row {table} {row.name} failed: {row.deltas}")
            out.append((f"row {table} {row.name}", start, end, ok))
        if len(out) != rows:
            _note(f"tables: {len(out)} rows returned")
            end = self.clock()
            out += [(f"row {i}", end, end, False) for i in range(len(out), rows)]
        return out


@contextmanager
def _timed(module, attrs, sink: list[tuple[float, float]], clock):
    """Append (start, end) of every call to module.<attr> to sink."""
    originals = {a: getattr(module, a) for a in attrs}

    def timed(fn):
        def call(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append((t0, clock()))
        return call

    for a, fn in originals.items():
        setattr(module, a, timed(fn))
    try:
        yield
    finally:
        for a, fn in originals.items():
            setattr(module, a, fn)


# --- audit --------------------------------------------------------------------

AUDIT_TRIALS = 1000
AUDIT_CASES = ["p2_exact", "p2_stat_532", "p2_stat_73", "p1_stat_532",
               "p3_stat_124", "p3_exact_control", "p3_stat_rm13"]


class Audit(Workload):
    """The seven privacy audits of the acceptance suite at AUDIT_TRIALS trials;
    one unit runs all seven, one operation is one audit."""

    def __init__(self, cp, seed: int, clock):
        self.cp = cp
        self.clock = clock
        rng = random.Random(f"audit/{seed}")
        # each statistical audit has a designed false-alarm rate <= 0.01; the
        # seeds follow from the workload seed and are reported, never chosen
        self.seeds = {case: rng.getrandbits(32) for case in AUDIT_CASES}
        # a statistical audit that flags is run once more on an independent
        # seed; it fails only if that flags too (false alarms: <= 1e-4)
        self.confirm_seeds = {case: rng.getrandbits(32) for case in AUDIT_CASES}
        self.confirmations: dict[str, dict] = {}
        F, M = cp.fields, cp.fields.Matrix
        f2 = F.field_make(2)
        good532 = cp.codes.code_from_generator(M(f2, GOOD_G))
        code73 = cp.codes.LinearCode(M(f2, G73), M(f2, H73))
        code124 = cp.codes.LinearCode.from_parity_check(M(f2, H124))
        s5 = cp.protocol2.p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
        s6 = cp.protocol2.p2_build_structure(code73, ISETS_EX6, EHAT_EX6)
        lam = cp.ratematrix.rate_matrix(good532, LAM35)
        setup = cp.protocol3.p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        setup_rm = cp.protocol3.p3_rm_max_rate(1, 1, 3)
        Dss = cp.dss.Dss
        dss5 = Dss(good532, f=2, beta=2, seed=self.seeds["p2_exact"])
        dss6 = Dss(code73, f=2, beta=4, seed=self.seeds["p2_stat_73"])
        dss1 = Dss(good532, f=2, beta=25, seed=self.seeds["p1_stat_532"])
        dss3 = Dss(code124, f=2, beta=1, seed=self.seeds["p3_stat_124"])
        dss_rm = Dss(setup_rm.code, f=2, beta=setup_rm.beta,
                     seed=self.seeds["p3_stat_rm13"])
        # case -> (protocol, dss, config, keyword arguments, expected outcome)
        t, s = AUDIT_TRIALS, self.seeds
        self.cases = {
            "p2_exact": (2, dss5, {"structure": s5}, {"mode": "exact"}, "identical"),
            "p2_stat_532": (2, dss5, {"structure": s5},
                            {"trials": t, "seed": s["p2_stat_532"]}, "pass"),
            "p2_stat_73": (2, dss6, {"structure": s6},
                           {"trials": t, "seed": s["p2_stat_73"]}, "pass"),
            "p1_stat_532": (1, dss1, {"lam": lam},
                            {"trials": t, "seed": s["p1_stat_532"]}, "pass"),
            "p3_stat_124": (3, dss3, {"setup": setup},
                            {"trials": t, "seed": s["p3_stat_124"]}, "pass"),
            "p3_exact_control": (3, dss3, {"setup": setup},
                                 {"collusion_sets": [], "mode": "exact",
                                  "control_sets": [(3, 5, 8)]}, "flagged"),
            "p3_stat_rm13": (3, dss_rm, {"setup": setup_rm},
                             {"trials": t, "seed": s["p3_stat_rm13"]}, "pass"),
        }

    def run_unit(self, rec=None) -> list[tuple[str, float, float, bool]]:
        audit = self.cp.audit
        out = []
        for case in AUDIT_CASES:
            protocol, dss, config, kwargs, expect = self.cases[case]
            _next_op(rec)
            t0 = self.clock()
            if rec is None:
                report = audit.privacy_audit(protocol, dss, config, **kwargs)
            else:
                with rec.span(f"audit.privacy_audit.{case}"):
                    report = audit.privacy_audit(protocol, dss, config, **kwargs)
            t1 = self.clock()
            if expect == "identical":
                ok = report.passed and all(o.identical for o in report.outcomes)
            elif expect == "flagged":
                ok = bool(report.controls) and all(o.flagged for o in report.controls)
            else:
                ok = report.passed or self._confirm(case, report)
            if not ok:
                _note(f"audit: {case} (seed {self.seeds[case]}) failed; worst "
                      f"outcome {report.worst()}")
            out.append((case, t0, t1, ok))
        return out

    def _confirm(self, case: str, report) -> bool:
        """Rerun a flagged statistical audit on its confirmation seed (once per
        run: every unit repeats the same seeds); True if that one passes."""
        if case not in self.confirmations:
            protocol, dss, config, kwargs, _ = self.cases[case]
            seed = self.confirm_seeds[case]
            again = self.cp.audit.privacy_audit(protocol, dss, config,
                                                **dict(kwargs, seed=seed))
            self.confirmations[case] = {"flagged": str(report.worst()),
                                        "seed": seed, "passed": again.passed}
            _note(f"audit: {case} flagged at seed {self.seeds[case]}; rerun at "
                  f"seed {seed} passed={again.passed}")
        return self.confirmations[case]["passed"]

    def details(self) -> dict:
        return {"seeds": self.seeds, "confirmations": self.confirmations}


# --- retrieve -----------------------------------------------------------------

FILES = 16
STORES_PER_ROUND = 1      # per instance: one store ...
RETRIEVALS_PER_ROUND = 7  # ... and seven retrievals, so one operation in eight is a store


class Instance:
    """One storage system plus the protocol structure that retrieves from it."""

    def __init__(self, name, protocol, code, f, beta, ell, config, rate):
        self.name, self.protocol, self.code = name, protocol, code
        self.f, self.beta, self.ell = f, beta, ell
        self.config, self.rate = config, rate
        self.dss = None


class Retrieve(Workload):
    """Closed loop, one client: one unit is a shuffled round of 40 operations,
    a store and seven retrievals on each of five instances."""

    unit = "round"
    repeats = False

    def __init__(self, cp, seed: int, clock):
        self.cp = cp
        self.clock = clock
        self.rng = random.Random(f"retrieve/{seed}")
        F, M = cp.fields, cp.fields.Matrix
        f2 = F.field_make(2)
        good532 = cp.codes.code_from_generator(M(f2, GOOD_G))
        code73 = cp.codes.LinearCode(M(f2, G73), M(f2, H73))
        code124 = cp.codes.LinearCode.from_parity_check(M(f2, H124))
        pyr, params = cp.families.pyramid_code(F.field_make(13), r=4, delta=2,
                                               Lc=2, a=2)
        em = cp.ratematrix.lrc_E_matrix(params, pyr)
        s_pyr = cp.protocol2.p2_build_structure(pyr, em.info_sets(), em.ehat)
        s73 = cp.protocol2.p2_build_structure(code73, ISETS_EX6, EHAT_EX6)
        p124 = cp.protocol3.p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        rm4 = cp.protocol3.p3_rm_max_rate(1, 1, 4)
        lam = cp.ratematrix.rate_matrix(good532, LAM35)
        self.instances = [
            Instance("p1-532-f3", 1, good532, 3, 125, 1, {"lam": lam}, Fraction(25, 49)),
            Instance("p2-73", 2, code73, FILES, s73.beta, 4, {"structure": s73},
                     Fraction(4, 7)),
            Instance("p2-pyr13", 2, pyr, FILES, s_pyr.beta, 2, {"structure": s_pyr},
                     Fraction(1, 3)),
            Instance("p3-124", 3, code124, FILES, p124.beta, 4, {"setup": p124},
                     Fraction(1, 6)),
            Instance("p3-rm4", 3, rm4.code, FILES, rm4.beta, 4, {"setup": rm4},
                     Fraction(5, 16)),
        ]
        # stores and one retrieval per instance, so lazy tables are built here
        for inst in self.instances:
            self._store(inst, self.rng.getrandbits(32))
            if not self._retrieve(inst, 1, self.rng.getrandbits(32))[2]:
                raise RuntimeError(f"warm-up retrieval on {inst.name} failed")

    def _store(self, inst: Instance, seed: int) -> tuple[float, float, bool]:
        t0 = self.clock()
        try:
            inst.dss = self.cp.dss.Dss(inst.code, inst.f, inst.beta, ell=inst.ell,
                                       seed=seed)
        except self.cp.CodedPirError as exc:
            _note(f"retrieve: store on {inst.name} raised {exc!r}")
            return t0, self.clock(), False
        return t0, self.clock(), True

    def _retrieve(self, inst: Instance, m: int, seed: int) -> tuple[float, float, bool]:
        config = dict(inst.config, m=m, seed=seed)
        t0 = self.clock()
        try:
            tx = self.cp.dss.run(inst.protocol, inst.dss, config)
        except self.cp.CodedPirError as exc:
            t1 = self.clock()
            _note(f"retrieve: {inst.name} m={m} seed={seed} raised {exc!r}")
            return t0, t1, False
        t1 = self.clock()
        ok = tx.decoded_hash == inst.dss.file_hash(m) and tx.rate == inst.rate
        if not ok:
            _note(f"retrieve: {inst.name} m={m} seed={seed}: hash or rate "
                  f"{tx.rate} wrong")
        return t0, t1, ok

    def run_unit(self, rec=None) -> list[tuple[str, float, float, bool]]:
        rng = self.rng
        plan = [(inst, kind) for inst in self.instances
                for kind in ["store"] * STORES_PER_ROUND
                + ["retrieval"] * RETRIEVALS_PER_ROUND]
        rng.shuffle(plan)
        out = []
        for inst, kind in plan:
            _next_op(rec)
            if kind == "store":
                record = self._store(inst, rng.getrandbits(32))
            else:
                record = self._retrieve(inst, rng.randrange(1, inst.f + 1),
                                        rng.getrandbits(32))
            out.append((kind, *record))
        return out


WORKLOADS = {"tables": Tables, "audit": Audit, "retrieve": Retrieve}
