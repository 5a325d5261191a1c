import hashlib
import os
import subprocess
import sys
from fractions import Fraction
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
from codedpir.reports import colluding_row, fixture_code, load_fixture
from conftest import QUERY_T0, STORAGE_T0, compute_matrix_bruteforce

f2 = field_make(2)
f13 = field_make(13)


def test_pattern_lists(good532, bad532, rs53):
    assert len(compute_erasure_pattern_list(rs53, 2)) == 10
    bad_list = compute_erasure_pattern_list(bad532, 2)
    assert 0 < len(bad_list) < 10
    assert all(bad532.erasure_correctable(p) for p in bad_list.patterns)
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
    assert [p.support for p in sampled.patterns] == [p.support for p in again.patterns]
    full_set = {p.support for p in full.patterns}
    assert 0 < len(sampled) and {p.support for p in sampled.patterns} <= full_set


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
    assert lst.masks() == compute_erasure_pattern_list(good532, 1).masks()


def test_sorted_masks_are_the_distinct_masks_in_order(good532, code124):
    """Every list carries its distinct masks in increasing order, exhaustive
    (listed in lexicographic support order) or sampled (listed in draw
    order)."""
    fixture = load_fixture("c13")
    c13 = fixture_code(fixture)
    lists = [compute_erasure_pattern_list(good532, w) for w in range(4)]
    lists += [compute_erasure_pattern_list(code124, w) for w in (4, 8)]
    lists += [compute_erasure_pattern_list(code124, 8, budget=10, sample_budget=80, seed=5),
              compute_erasure_pattern_list(c13, 17, sample_budget=200, seed=1),
              compute_erasure_pattern_list(c13, 18, budget=0, sample_budget=50)]
    assert any(lst.masks() != lst.sorted_masks for lst in lists)
    for lst in lists:
        assert lst.sorted_masks == tuple(sorted(set(lst.masks())))
        assert len(lst.sorted_masks) == len(lst)


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
    """Every Gamma of one optimization reads the same sorted information-set
    masks, sorted on first use."""
    import codedpir.optimizer as opt
    lists, sorted_masks = [], []
    original = opt.compute_matrix

    def spy(lgamma, lnk, d, beta):
        lists.append(lnk)
        sorted_masks.append(lnk.sorted_masks)
        return original(lgamma, lnk, d, beta)

    monkeypatch.setattr(opt, "compute_matrix", spy)
    opt.optimize_rate(good532)
    assert len(lists) == 2 and lists[0] is lists[1]
    assert sorted_masks[1] is sorted_masks[0]
    assert list(sorted_masks[0]) == sorted(set(lists[0].masks()))


# sha256 of the supports, in list order, of the pattern lists that the c13
# Table III row builds at seed 0 (recorded before the elimination kernel
# replaced the per-draw RREF): a change here is a change of the RNG stream.
# The sampled weight-17 entry was restated once when its draws moved from one
# `shuffle` and one `sample` per draw to sort keys from one `randbytes` call;
# the exhaustive product lists did not move
C13_GOLDEN = {
    ("code", 17): "5edb0a455c5426a18abd9f7f88869e65b89d154b6f595a39af4581b6eab96245",
    ("product", 1): "1d5ce60d0c390df4d74151e6e19e25fc5fd7e80015d124abc6022a969c8fa5ee",
    ("product", 2): "1b2474db75d63569111a3e4249df5ecc17cafe0ed1a0b2b414e4dd82eaa7cda1",
    ("product", 3): "2c1bedc14d46ffc62d2c9ae18a8235b28a101bc3531a08bd4d2467195e3aaa11",
    ("product", 4): "a90aecd62c08a6620cd9a5592d969dc23d9b02ec6f3c97d2816aea6a9e2a69cd",
}


def test_c13_pattern_lists_golden():
    fixture = load_fixture("c13")
    code = fixture_code(fixture)
    product = code.hadamard_product(code_from_spec(fixture["colluding"]["query"]))
    sample_budget = fixture["colluding"]["sample_budget"]
    for (which, w), want in C13_GOLDEN.items():
        lst = compute_erasure_pattern_list(code if which == "code" else product, w,
                                           sample_budget=sample_budget, seed=0)
        text = ";".join(",".join(map(str, p.support)) for p in lst.patterns)
        assert hashlib.sha256(text.encode()).hexdigest() == want, (which, w)
        assert lst.masks() == tuple(sum(1 << j for j in p.support)
                                    for p in lst.patterns)


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
    loads `numpy.random`, whose import would add to the peak memory of every
    optimizer run."""
    import codedpir
    script = (
        "import sys\n"
        "from codedpir.optimizer import compute_erasure_pattern_list\n"
        "from codedpir.reports import fixture_code, load_fixture\n"
        "fixture = load_fixture('c13')\n"
        "lst = compute_erasure_pattern_list(fixture_code(fixture), 17, sample_budget="
        "fixture['colluding']['sample_budget'], seed=0)\n"
        "print(len(lst), 'numpy.random' in sys.modules)\n")
    src = str(Path(codedpir.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    size, loaded = out.stdout.split()
    assert int(size) > 0 and loaded == "False"


@pytest.mark.parametrize("name", ["c1", "c5"])
def test_one_walk_per_code(name, monkeypatch):
    """A noncolluding row walks the columns of H once for all its pattern
    lists: the information-set list (weight n - k) comes first, its walk
    lists every lower weight on the way, and the Gamma lists, the
    Gamma = n - k list among them, are read from what it kept; a second
    `correctable_masks(w)` returns the kept tuple itself. Walks that only
    count subsets (the column search of `min_distance`) keep no list."""
    from codedpir.codes import LinearCode
    walks = []
    original = LinearCode._column_levels

    def spy(self, depth, keep):
        walks.append((depth, keep))
        return original(self, depth, keep)

    monkeypatch.setattr(LinearCode, "_column_levels", spy)
    code = fixture_code(load_fixture(name))
    nk = code.n - code.k
    e, gamma = optimize_rate(code)
    assert e is not None and gamma == nk
    assert [depth for depth, keep in walks if keep] == [nk], walks
    for w in range(nk + 1):
        assert code.correctable_masks(w) is code.correctable_masks(w)
    assert [depth for depth, keep in walks if keep] == [nk]
