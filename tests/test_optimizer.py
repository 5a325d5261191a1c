import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from codedpir.codes import ErasurePattern, code_from_generator
from codedpir.errors import BadParams, RateOneProduct, StructureViolation
from codedpir.families import code_from_spec, grs_code, uuv_code
from codedpir.fields import Matrix, field_make
from codedpir.optimizer import (compute_erasure_pattern_list, compute_matrix,
                                optimize_rate)
from codedpir.protocol2 import p2_build_structure
from codedpir.protocol3 import p3_setup
from codedpir.ratematrix import beta_d_minimal
from codedpir.reports import (colluding_row, fixture_code, load_fixture, noncolluding_row,
                              report_tables)
from conftest import (QUERY_T0, STORAGE_T0, compute_matrix_bruteforce, rank_pattern_list,
                      sampled_pattern_list_reference)

f2 = field_make(2)
f13 = field_make(13)


def _supports(lst):
    """The supports of a pattern list's masks, in its order."""
    return [tuple(j for j in range(lst.n) if mask >> j & 1) for mask in lst.masks]


def test_pattern_lists(good532, bad532, rs53):
    assert len(compute_erasure_pattern_list(rs53, 2)) == 10
    bad_list = compute_erasure_pattern_list(bad532, 2)
    assert 0 < len(bad_list) < 10
    assert all(bad532.erasure_correctable(ErasurePattern.from_support(5, support))
               for support in _supports(bad_list))
    assert len(compute_erasure_pattern_list(good532, 0)) == 1
    assert len(compute_erasure_pattern_list(good532, 3)) == 0  # above n - k


def test_negative_budgets_rejected(good532):
    for budgets in ({"budget": -1}, {"sample_budget": -1}):
        with pytest.raises(BadParams):
            compute_erasure_pattern_list(good532, 1, **budgets)
        with pytest.raises(BadParams):
            optimize_rate(good532, **budgets)


def test_pattern_list_sampled_mode(code124):
    """Force the randomized pivot route and check soundness + determinism."""
    full = compute_erasure_pattern_list(code124, 8)
    sampled = compute_erasure_pattern_list(code124, 8, budget=10,
                                           sample_budget=80, seed=5)
    again = compute_erasure_pattern_list(code124, 8, budget=10,
                                         sample_budget=80, seed=5)
    assert sampled == again
    assert 0 < len(sampled) and set(_supports(sampled)) <= set(_supports(full))


def test_pattern_list_weights_must_be_integers(good532):
    """A weight is taken through `operator.index`: a negative or non-integer
    weight raises BadParams, and True is weight 1, an int."""
    for w in (-1, 1.5, "1", None):
        with pytest.raises(BadParams, match="pattern weight"):
            compute_erasure_pattern_list(good532, w)
        with pytest.raises(BadParams, match="pattern weight"):
            compute_erasure_pattern_list(good532, w, budget=0)
    lst = compute_erasure_pattern_list(good532, True)
    assert type(lst.weight) is int and lst.weight == 1
    assert lst.masks == compute_erasure_pattern_list(good532, 1).masks


def test_budgets_must_be_integers(good532):
    """Both budgets are taken through `operator.index`: a budget that is a
    float or a string raises BadParams naming it (10.5 was compared as a
    number before, and 2.5 or "10" ended in a bare TypeError), and a numpy
    integer is an int."""
    c4 = fixture_code(load_fixture("c4"))
    for budgets, name in (({"budget": 10, "sample_budget": 2.5}, "sample budget"),
                          ({"budget": 10, "sample_budget": 3.5}, "sample budget"),
                          ({"budget": "10"}, "budget"), ({"budget": 10.5}, "budget")):
        with pytest.raises(BadParams, match=f"the {name} must be an integer"):
            compute_erasure_pattern_list(c4, 6, **budgets)
        with pytest.raises(BadParams, match=f"the {name} must be an integer"):
            optimize_rate(c4, **budgets)
    assert compute_erasure_pattern_list(good532, 1, budget=np.int64(0),
                                        sample_budget=np.int64(4)) == \
        compute_erasure_pattern_list(good532, 1, budget=0, sample_budget=4)


def test_pattern_lists_are_ascending(good532, code124):
    """Every list holds its masks as Python ints in strictly ascending order,
    the distinct masks of its reference sorted: exhaustive lists
    (`rank_pattern_list`), sampled lists (`sampled_pattern_list_reference`),
    c13's among them, and both kinds on a [64, 62] binary code, whose masks
    pass int64."""
    c13 = fixture_code(load_fixture("c13"))
    rng = np.random.default_rng(64)
    wide = code_from_generator(Matrix(f2, np.hstack([np.eye(62, dtype=np.int64),
                                                     rng.integers(0, 2, (62, 2))]).tolist()))
    cases = [(good532, w, {}) for w in range(4)]
    cases += [(code124, w, {}) for w in (4, 8)] + [(wide, 1, {}), (wide, 2, {})]
    cases += [(code124, 8, {"budget": 10, "sample_budget": 80, "seed": 5}),
              (c13, 17, {"sample_budget": 20, "seed": 1}),
              (c13, 18, {"budget": 0, "sample_budget": 10, "seed": 0}),
              (wide, 2, {"budget": 0, "sample_budget": 8, "seed": 3})]
    for code, w, kwargs in cases:
        lst = compute_erasure_pattern_list(code, w, **kwargs)
        if kwargs:
            reference = sampled_pattern_list_reference(code, w, kwargs["sample_budget"],
                                                       kwargs["seed"])
        else:
            reference = rank_pattern_list(code, w)
        assert all(a < b for a, b in zip(lst.masks, lst.masks[1:])), (code, w)
        assert lst.masks == tuple(sorted(set(reference))), (code, w)
        assert all(type(m) is int for m in lst.masks)
    assert max(compute_erasure_pattern_list(wide, 2).masks) >= 1 << 63


@pytest.mark.parametrize("gamma", [1, 2])
def test_solver_vs_bruteforce_small(good532, bad532, gamma):
    for code in (good532, bad532):
        lg = compute_erasure_pattern_list(code, gamma)
        lnk = compute_erasure_pattern_list(code, code.n - code.k)
        beta, d = beta_d_minimal(code.k, gamma)
        fast = compute_matrix(lg, lnk, d, beta)
        slow = compute_matrix_bruteforce(lg, lnk, d, beta)
        assert (fast is None) == (slow is None)
        if fast is not None:
            _check_valid(code, fast, gamma, beta, d)


def test_solver_vs_bruteforce_n7_n9(code73):
    c9 = _tamo_barg_9_4()
    cases = [(code73, 3), (code73, 4), (c9, 1), (c9, 2)]
    for code, gamma in cases:
        lg = compute_erasure_pattern_list(code, gamma)
        lnk = compute_erasure_pattern_list(code, code.n - code.k)
        beta, d = beta_d_minimal(code.k, gamma)
        fast = compute_matrix(lg, lnk, d, beta)
        slow = compute_matrix_bruteforce(lg, lnk, d, beta)
        assert (fast is None) == (slow is None), (code, gamma)
        if fast is not None:
            _check_valid(code, fast, gamma, beta, d)


def _tamo_barg_9_4():
    points = sorted({1, 3, 9, 2, 6, 5, 4, 12, 10})
    G = Matrix(f13, [[f13.pow(a, e) for a in points] for e in [0, 1, 3, 4]])
    return code_from_generator(G)


def _check_valid(code, e, gamma, beta, d):
    assert e.d == d and e.beta == beta and e.gamma == gamma
    rows = e.stacked()
    n = code.n
    for j in range(n):
        assert sum(r[j] for r in rows) == beta
    for r in e.ehat:
        assert code.erasure_correctable(ErasurePattern(n, r))
    for iset in e.info_sets():
        assert code.is_information_set(iset)


def test_optimize_rate_worked_codes(good532, bad532, code73):
    e, g = optimize_rate(good532)
    assert g == 2 and e is not None
    structure = p2_build_structure(good532, e.info_sets(), e.ehat)
    assert structure.rate == Fraction(2, 5)
    e8, g8 = optimize_rate(code73)
    assert g8 == 4
    # the bad [5,3,2] code cannot reach Gamma = 2 (capacity condition fails)
    eb, gb = optimize_rate(bad532)
    assert gb == 1
    # MDS rate > 1/2: single main-loop iteration lands at Gamma = n - k
    em, gm = optimize_rate(grs_code(field_make(7), 5, 3))
    assert gm == 2


def test_optimize_rate_gamma_k_rule(good532):
    """The paper's layout (beta, d) = (Gamma, k) at the optimum Gamma = 2 of
    the good [5,3,2] code: the selection search finds a valid matrix on the
    optimizer's pattern lists, and its setup has rate 2/5."""
    gamma, k = 2, good532.k
    lg = compute_erasure_pattern_list(good532, gamma)
    lnk = compute_erasure_pattern_list(good532, good532.n - k)
    e = compute_matrix(lg, lnk, d=k, beta=gamma)
    assert e is not None
    _check_valid(good532, e, gamma, gamma, k)
    assert p2_build_structure(good532, e.info_sets(), e.ehat).rate == Fraction(2, 5)


def test_optimize_rate_colluding_worked(code124):
    e, g = optimize_rate(code124, code124)
    assert g == 2 and Fraction(g, 12) == Fraction(1, 6)
    setup = p3_setup(code124, code124, e.ehat, e.info_sets())
    assert setup.rate == Fraction(1, 6)
    whole = code_from_generator(Matrix(f2, np.eye(4, dtype=np.int64)))
    with pytest.raises(RateOneProduct):
        optimize_rate(whole, whole)


def test_optimize_rate_rejects_query_code_zero_at_a_position():
    storage = code_from_generator(Matrix(f2, STORAGE_T0))
    query = code_from_generator(Matrix(f2, QUERY_T0))
    with pytest.raises(StructureViolation, match=r"positions \[4\]"):
        optimize_rate(storage, query)


def test_optimize_rate_colluding_uuv():
    hcols = [[(c >> b) & 1 for c in range(1, 16)] for b in range(4)]
    from codedpir.codes import LinearCode
    H = Matrix(f2, [row + [0] for row in hcols] + [[1] * 16])
    u = LinearCode.from_parity_check(H).shorten(list(range(13)))
    c13 = uuv_code(u)
    assert (c13.n, c13.k, c13.min_distance()) == (26, 9, 8)
    prod = c13.hadamard_product(c13)
    assert prod.min_distance() == 1  # the unimproved scheme gets rate 0
    e, g = optimize_rate(c13, c13, sample_budget=1500)
    assert g == 4 and Fraction(g, 26) == Fraction(2, 13)
    setup = p3_setup(c13, c13, e.ehat, e.info_sets())
    assert setup.collusion_threshold == 3


def test_monotone_gamma_examination(good532, monkeypatch):
    """Feasibility at Gamma implies the loop examined every smaller value."""
    import codedpir.optimizer as opt
    seen = []
    original = opt.compute_erasure_pattern_list

    def spy(code, w, **kwargs):
        seen.append(w)
        return original(code, w, **kwargs)

    monkeypatch.setattr(opt, "compute_erasure_pattern_list", spy)
    opt.optimize_rate(good532)
    assert seen[0] == good532.n - good532.k  # the info-set list comes first
    assert seen[1:] == [1, 2]  # every Gamma from the floor up, none skipped


def test_information_set_list_sorted_once(good532, monkeypatch):
    """Every Gamma of one optimization reads the same information-set list,
    built once, whose masks are the ascending correctable weight-(n - k)
    masks."""
    import codedpir.optimizer as opt
    lists = []
    original = opt.compute_matrix

    def spy(lgamma, lnk, d, beta):
        lists.append(lnk)
        return original(lgamma, lnk, d, beta)

    monkeypatch.setattr(opt, "compute_matrix", spy)
    opt.optimize_rate(good532)
    assert len(lists) == 2 and lists[0] is lists[1]
    assert lists[0].masks == rank_pattern_list(good532, good532.n - good532.k)


# sha256 of the supports, in list order, of the pattern lists that the c13
# Table III row builds at seed 0: a change here is a change of the RNG
# stream. The sampled weight-17 entry was restated once when its draws moved
# from one `shuffle` and one `sample` per draw to sort keys from one
# `randbytes` call, and every entry once more when lists were kept in
# ascending mask order only (the same mask sets, read from the old sorted
# masks)
C13_GOLDEN = {
    ("code", 17): "8727e44b2ccd406328a1835b0d552506210086835453e7ea1ca4235895ffe96a",
    ("product", 1): "1d5ce60d0c390df4d74151e6e19e25fc5fd7e80015d124abc6022a969c8fa5ee",
    ("product", 2): "f2882ee4a894b8055fec0fed216d292a0a92a9930fdec0f1d27ddf33a783f2fa",
    ("product", 3): "894d9811159c39b045300a93c44eaab735ce37b4cadcc17d56f44589218bb7bc",
    ("product", 4): "6708da4755570a1c13294b7e7dd47662c08ebce44430a40197045423ff8fccfc",
}


def test_c13_pattern_lists_golden():
    fixture = load_fixture("c13")
    code = fixture_code(fixture)
    product = code.hadamard_product(code_from_spec(fixture["colluding"]["query"]))
    sample_budget = fixture["colluding"]["sample_budget"]
    for (which, w), want in C13_GOLDEN.items():
        lst = compute_erasure_pattern_list(code if which == "code" else product, w,
                                           sample_budget=sample_budget, seed=0)
        text = ";".join(",".join(map(str, support)) for support in _supports(lst))
        assert hashlib.sha256(text.encode()).hexdigest() == want, (which, w)


def test_c13_sampled_list_asks_for_pivots_once(monkeypatch):
    """Every draw of c13's weight-17 sampled list is made first, and the
    pivot columns of all its orders come from one `pivot_columns` call."""
    from codedpir.codes import LinearCode
    calls = []
    original = LinearCode.pivot_columns

    def spy(self, orders):
        calls.append(len(orders))
        return original(self, orders)

    monkeypatch.setattr(LinearCode, "pivot_columns", spy)
    fixture = load_fixture("c13")
    sample_budget = fixture["colluding"]["sample_budget"]
    compute_erasure_pattern_list(fixture_code(fixture), 17,
                                 sample_budget=sample_budget, seed=0)
    assert calls == [sample_budget]


@pytest.mark.parametrize("seed", range(5))
def test_c13_stays_certified(seed):
    """c13's sampled weight-17 list still gives the optimal rate r_ub = 4/26."""
    row = colluding_row(load_fixture("c13"), seed=seed)
    assert row.computed["r_opt"] == row.computed["r_ub"] == Fraction(4, 26)


def test_sampled_list_leaves_numpy_random_unloaded():
    """A fresh interpreter that builds c13's weight-17 sampled list never
    loads `numpy.random` or `numpy.ma`, whose imports would add to the peak
    memory of every optimizer run (numpy 2's `np.unique` without indices
    loads `numpy.ma`)."""
    import codedpir
    script = (
        "import sys\n"
        "from codedpir.optimizer import compute_erasure_pattern_list\n"
        "from codedpir.reports import fixture_code, load_fixture\n"
        "fixture = load_fixture('c13')\n"
        "lst = compute_erasure_pattern_list(fixture_code(fixture), 17, sample_budget="
        "fixture['colluding']['sample_budget'], seed=0)\n"
        "print(len(lst), 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n")
    src = str(Path(codedpir.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    size, random_loaded, ma_loaded = out.stdout.split()
    assert int(size) > 0 and random_loaded == ma_loaded == "False"


def _spy_walks(monkeypatch) -> dict:
    """The depths of every column walk, per code object walked."""
    from codedpir.codes import LinearCode
    walks = {}
    original = LinearCode._column_levels

    def spy(self, depth):
        walks.setdefault(self, []).append(depth)
        return original(self, depth)

    monkeypatch.setattr(LinearCode, "_column_levels", spy)
    return walks


TABLE_ROWS = ([(noncolluding_row, name)
               for name in ("c1", "c2", "c3", "c4", "c5", "c8", "c9", "c10")]
              + [(colluding_row, name) for name in ("c9", "c10", "c11", "c12", "c13")])


@pytest.mark.parametrize("row, name", TABLE_ROWS,
                         ids=[("III-" if row is colluding_row else "") + name
                              for row, name in TABLE_ROWS])
def test_one_walk_per_code(row, name, monkeypatch):
    """Every table row that runs the optimizer walks the columns of H of
    each code once: the column search of `min_distance`, the
    information-set list (weight n - k) and every Gamma list read the one
    walk, which goes to every level whose C(n, w) is within
    EXHAUSTIVE_LIMIT. Afterwards each such level is read with no walk."""
    from codedpir.codes import EXHAUSTIVE_LIMIT
    walks = _spy_walks(monkeypatch)
    result = row(load_fixture(name))
    assert result.ok
    assert walks and all(len(depths) == 1 for depths in walks.values()), walks
    seen = {c: list(depths) for c, depths in walks.items()}
    for code in seen:
        for w in range(code.n - code.k + 1):
            if comb(code.n, w) <= EXHAUSTIVE_LIMIT:
                assert code.correctable_masks(w) == code.correctable_masks(w)
    assert walks == seen


def test_report_tables_walks_each_code_once(monkeypatch):
    """A whole `report_tables()` makes one column walk per code object it
    walks, and so no more walks than it builds codes."""
    from codedpir.codes import LinearCode
    walks = _spy_walks(monkeypatch)
    built = []
    init = LinearCode.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "__init__", counting)
    assert report_tables().passed
    assert all(len(depths) == 1 for depths in walks.values()), walks
    assert 0 < len(walks) <= len(built)
