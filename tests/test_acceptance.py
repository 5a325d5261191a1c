"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (use `pytest tests/test_acceptance.py -v -s` to see the
lines for passing criteria too)."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import numpy as np

from codedpir.audit import privacy_audit
from codedpir.codes import ErasurePattern, code_from_generator
from codedpir.dss import Dss, run
from codedpir.families import (LrcParams, cyclic_code, lrc_optimal,
                               pyramid_code, rm_code, rm_information_set,
                               uuv_code)
from codedpir.fields import Matrix, field_make
from codedpir.optimizer import compute_erasure_pattern_list, compute_matrix
from codedpir.protocol1 import p1_answer, p1_decode, p1_plan
from codedpir.protocol2 import p2_build_structure
from codedpir.protocol3 import p3_rm_max_rate, p3_setup
from codedpir.ratematrix import (beta_d_minimal, capacity_asymptotic,
                                 capacity_finite, lambda_from_automorphisms,
                                 lrc_E_matrix, necessary_condition,
                                 rate_matrix)
from codedpir.reports import report_tables
from conftest import (EHAT_EX5, EHAT_EX6, EHAT_P3, ISETS_EX5, ISETS_EX6,
                      ISETS_P3, LAM35, all_codewords, compute_matrix_bruteforce,
                      rank_reference)

TOL = 1e-4


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:2d}: FAIL - {desc}")
        raise
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num:2d}: PASS - {desc} ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def test_criterion_1_protocol1_worked_example(good532):
    with criterion(1, "file-dependent protocol hits 5/8 on the [5,3,2] run and "
                      "the finite capacity at f = 2..5"):
        lam = rate_matrix(good532, LAM35)
        dss = Dss(good532, f=2, beta=25, seed=0)
        t0 = time.time()
        plan = p1_plan(good532, lam, f=2, m=1, seed=0)
        queries = plan.queries()
        responses = p1_answer(dss, queries)
        decoded = p1_decode(plan, responses, dss.msg_field)
        elapsed = time.time() - t0
        assert sum(len(q) for q in queries) == 3 * 40
        assert decoded.shape[0] == 25 and np.array_equal(decoded, dss.files[0])
        assert plan.rate == Fraction(5, 8) == capacity_finite(5, 3, 2)
        assert elapsed < 1.0
        # the finite capacity at every small number of files, either end of the file list
        for f in range(2, 6):
            dss = Dss(good532, f=f, beta=lam.nu ** f, seed=f)
            for m in (1, f):
                assert p1_plan(good532, lam, f, m, seed=m).rate == capacity_finite(5, 3, f)
                tx = run(1, dss, {"lam": lam, "m": m, "seed": m})
                assert tx.decoded_hash == dss.file_hash(m)
                assert tx.rate == capacity_finite(5, 3, f)


def test_criterion_2_protocol2_worked_examples(good532, code73):
    with criterion(2, "file-independent protocol hits 2/5 and 4/7 exactly"):
        for code, isets, ehat, want, beta in (
                (good532, ISETS_EX5, EHAT_EX5, Fraction(2, 5), 2),
                (code73, ISETS_EX6, EHAT_EX6, Fraction(4, 7), 4)):
            structure = p2_build_structure(code, isets, ehat)
            assert structure.rate == want
            t0 = time.time()
            for seed in range(20):
                for m in (1, 2):
                    dss = Dss(code, f=2, beta=beta, seed=seed)
                    tx = run(2, dss, {"structure": structure, "m": m,
                                      "seed": seed})
                    assert tx.rate == want
                    assert tx.decoded_hash == dss.file_hash(m)
            assert time.time() - t0 < 1.0


def test_criterion_3_protocol3_worked_example(code124):
    with criterion(3, "colluding protocol: T=2, rate 1/6 = upper bound, "
                      "unimproved rate 1/12"):
        setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        assert setup.collusion_threshold == 2
        assert setup.rate == Fraction(1, 6) == setup.rate_upper_bound
        assert setup.rate_nonopt == Fraction(1, 12)
        t0 = time.time()
        dss = Dss(code124, f=2, beta=1, seed=0)
        tx = run(3, dss, {"setup": setup, "m": 1, "seed": 0})
        assert tx.rate == Fraction(1, 6)
        assert time.time() - t0 < 1.0


def test_criterion_4_necessary_condition(good532, bad532, rs53):
    with criterion(4, "weight-hierarchy condition separates the two [5,3,2] "
                      "codes"):
        rep = necessary_condition(bad532)
        assert not rep.ok and rep.witness_s == 2 and rep.witness_value == 3
        assert necessary_condition(good532).ok
        assert necessary_condition(rs53).ok


def test_criterion_5_automorphism_constructions(f2):
    with criterion(5, "automorphism constructions hit kappa/nu = k/n",
                   budget=5.0):
        ham = cyclic_code(f2, 7, [1, 1, 0, 1])
        shifts = [[(j + i) % 7 for j in range(7)] for i in range(7)]
        lam = lambda_from_automorphisms(ham, shifts)
        assert Fraction(lam.kappa, lam.nu) == Fraction(4, 7)
        for m in (3, 4):
            code = rm_code(1, m)
            n = 1 << m
            translations = [[j ^ s for j in range(n)] for s in range(n)]
            lam_rm = lambda_from_automorphisms(code, translations,
                                               rm_information_set(1, m))
            assert Fraction(lam_rm.kappa, lam_rm.nu) == Fraction(code.k, n)


def test_criterion_6_lrc_E_matrices():
    with criterion(6, "locality-code structure matrices: regular, rows "
                      "correctable, rate 1/3"):
        p74 = LrcParams(q=8, r=2, delta=2, Lc=2, n=7, k=4,
                        local_parity=[[[3, 1]], [[3, 2]]],
                        global_mix=[[[6, 1]], [[7, 7]]])
        code74 = lrc_optimal(p74)
        em = lrc_E_matrix(p74, code74)
        rows = em.stacked()
        assert all(sum(r) == 3 for r in rows)
        assert all(sum(r[j] for r in rows) == 3 for j in range(7))
        assert all(code74.erasure_correctable(ErasurePattern(7, r))
                   for r in rows)
        for field_order, r, delta in ((13, 4, 2), (17, 6, 3)):
            code, params = pyramid_code(field_make(field_order), r=r,
                                        delta=delta, Lc=2, a=2)
            em = lrc_E_matrix(params, code)
            n, k = params.n, params.k
            assert all(sum(row) == n - k for row in em.stacked())
            assert all(sum(row[j] for row in em.stacked()) == n - k
                       for j in range(n))
            assert all(code.erasure_correctable(ErasurePattern(n, row))
                       for row in em.stacked())
            structure = p2_build_structure(code, em.info_sets(), em.ehat)
            assert structure.rate == Fraction(1, 3) == capacity_asymptotic(n, k)


def test_criterion_7_table_reproduction():
    with criterion(7, "optimizer reproduces the published rate tables",
                   budget=600.0):
        report = report_tables()
        assert report.passed, report.render()
        got = {r.name: r for r in report.rows if r.table in ("I", "II")}
        for name, want in (("c1", 0.4), ("c2", 0.4545), ("c3", 0.3333),
                           ("c4", 0.3333), ("c5", 0.3750), ("c8", 0.5714),
                           ("c9", 0.5555), ("c10", 0.5)):
            assert abs(float(got[name].computed["r_opt"]) - want) <= TOL
        coll = {r.name: r for r in report.rows if r.table == "III"}
        for name, want in (("c9", 0.3333), ("c10", 0.3333), ("c11", 0.1667),
                           ("c12", 0.4167), ("c14", 0.5)):
            assert abs(float(coll[name].computed["r_opt"]) - want) <= TOL


def test_criterion_8_uuv_dimension_bound(f2):
    with criterion(8, "(U|U+V) product-dimension bound over binary families",
                   budget=120.0):
        rng = random.Random(2024)
        checked = 0
        for n1 in range(3, 9):
            gens: list[Matrix] = []
            # all cyclic codes of length n1 (proper dimensions)
            for genpoly_deg in range(1, n1):
                for bits in range(1 << genpoly_deg):
                    coeffs = [bits >> i & 1 for i in range(genpoly_deg)] + [1]
                    try:
                        c = cyclic_code(f2, n1, coeffs)
                    except Exception:
                        continue
                    if 1 <= c.k <= n1 - 2:
                        gens.append(c.G)
            for k1 in range(1, n1 - 1):
                made = 0
                while made < 10:
                    rows = [[rng.randrange(2) for _ in range(n1)]
                            for _ in range(k1)]
                    g = Matrix(f2, rows)
                    if rank_reference(g) == k1:
                        gens.append(g)
                        made += 1
            for g in gens:
                u = code_from_generator(g)
                k1, n1_eff = u.k, u.n
                c = uuv_code(u)
                prod = c.hadamard_product(c)
                if n1_eff - k1 <= comb(k1, 2):
                    assert prod.k <= k1 + n1_eff + 1
                else:
                    assert prod.k <= 2 * k1 + comb(k1, 2) + 1
                assert prod.k < c.n  # n1 >= k1 + 2 guarantees redundancy
                checked += 1
        assert checked >= 200


def test_criterion_9_privacy_audits(good532, code73, code124):
    with criterion(9, "privacy audits: exact equality and 1e4-trial "
                      "statistics on all protocol fixtures", budget=300.0):
        trials = 10_000
        # exact mode over GF(2) for the file-independent protocol
        s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
        dss5 = Dss(good532, f=2, beta=2, seed=0)
        rep = privacy_audit(2, dss5, {"structure": s5}, mode="exact")
        assert rep.passed
        # statistical: protocol 2 on both worked structures, all single spies
        rep = privacy_audit(2, dss5, {"structure": s5}, trials=trials, seed=1)
        assert rep.passed
        s6 = p2_build_structure(code73, ISETS_EX6, EHAT_EX6)
        dss6 = Dss(code73, f=2, beta=4, seed=0)
        rep = privacy_audit(2, dss6, {"structure": s6}, trials=trials, seed=2)
        assert rep.passed
        # statistical: protocol 1 on the capacity-achieving run, every node
        lam = rate_matrix(good532, LAM35)
        dss1 = Dss(good532, f=2, beta=25, seed=0)
        rep = privacy_audit(1, dss1, {"lam": lam}, trials=trials, seed=3)
        assert rep.passed
        # statistical: protocol 3 on the worked example, every legal set,
        # plus the provably leaking T+1 control (reported, not asserted pass)
        setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        dss3 = Dss(code124, f=2, beta=1, seed=0)
        rep = privacy_audit(3, dss3, {"setup": setup}, trials=trials, seed=4)
        assert rep.passed
        control = privacy_audit(3, dss3, {"setup": setup}, collusion_sets=[],
                                mode="exact", control_sets=[(3, 5, 8)])
        assert control.controls and control.controls[0].flagged
        print("  size-(T+1) control set (3,5,8): flagged =",
              control.controls[0].flagged)
        # statistical: protocol 3 on the Reed-Muller maximum-rate setup
        setup_rm = p3_rm_max_rate(1, 1, 3)
        dss_rm = Dss(setup_rm.code, f=2, beta=setup_rm.beta, seed=0)
        rep = privacy_audit(3, dss_rm, {"setup": setup_rm}, trials=trials,
                            seed=5)
        assert rep.passed


def test_criterion_10_property_suites(good532, bad532, code73, rs53, f2):
    with criterion(10, "exhaustive code-level property suites",
                   budget=600.0):
        ham = cyclic_code(f2, 7, [1, 1, 0, 1])
        rm13 = rm_code(1, 3)
        small = [good532, bad532, code73, ham, rm13, rs53]
        # every (n - d + 1)-subset contains an information set; minimal size
        for code in small:
            d = code.min_distance()
            size = code.n - d + 1
            for coords in itertools.combinations(range(code.n), size):
                assert code.contains_information_set(coords)
            assert any(not code.contains_information_set(c)
                       for c in itertools.combinations(range(code.n), size - 1))
        # information-set duality
        for code in small:
            dual = code.dual()
            for coords in itertools.combinations(range(code.n), code.k):
                comp = [j for j in range(code.n) if j not in coords]
                assert code.is_information_set(coords) == \
                    dual.is_information_set(comp)
        # |I ∩ chi(D)| >= s on small codes
        for code in (good532, bad532):
            info_sets = [c for c in itertools.combinations(range(code.n), code.k)
                         if code.is_information_set(c)]
            cws = [cw for cw in all_codewords(code) if any(cw)]
            for s in (1, 2):
                for subset in itertools.combinations(cws, s):
                    if rank_reference(Matrix(code.field,
                                       [list(c) for c in subset])) != s:
                        continue
                    support = set()
                    for c in subset:
                        support.update(j for j, x in enumerate(c) if x)
                    assert all(len(set(i) & support) >= s for i in info_sets)
        # strict weight-hierarchy monotonicity
        for code in small:
            weights = [code.generalized_hamming_weight(s)
                       for s in range(1, code.k + 1)]
            assert all(a < b for a, b in zip(weights, weights[1:]))
        # erasure decoding round-trips on every correctable pattern
        rng = random.Random(10)
        for code in (good532, code73):
            word = code.encode(np.array([[rng.randrange(2)
                               for _ in range(code.k)]])).tolist()[0]
            for w in range(code.n - code.k + 1):
                for support in itertools.combinations(range(code.n), w):
                    pat = ErasurePattern.from_support(code.n, support)
                    if not code.erasure_correctable(pat):
                        continue
                    erased = [0 if j in support else word[j]
                              for j in range(code.n)]
                    assert code.decode_erasures([erased], support).tolist() == [list(word)]
        # selection solver agrees with the brute-force oracle (n <= 9)
        f13 = field_make(13)
        points = sorted({1, 3, 9, 2, 6, 5, 4, 12, 10})
        tb94 = code_from_generator(Matrix(
            f13, [[f13.pow(a, e) for a in points] for e in (0, 1, 3, 4)]))
        cases = [(good532, 1), (good532, 2), (bad532, 1), (bad532, 2),
                 (code73, 3), (code73, 4), (tb94, 1), (tb94, 2)]
        for code, gamma in cases:
            lg = compute_erasure_pattern_list(code, gamma)
            lnk = compute_erasure_pattern_list(code, code.n - code.k)
            beta, d = beta_d_minimal(code.k, gamma)
            fast = compute_matrix(lg, lnk, d, beta)
            slow = compute_matrix_bruteforce(lg, lnk, d, beta)
            assert (fast is None) == (slow is None)
