import dataclasses
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codedpir.dss import Dss, run
from codedpir.errors import DecodeFailure, DimensionMismatch, KappaEqualsNu
from codedpir.optimizer import optimize_rate
from codedpir.protocol1 import _first_seen, p1_answer, p1_decode, p1_plan, p1_symmetry_audit
from codedpir.ratematrix import E_to_lambda, lambda_generic, rate_matrix, rate_protocol1
from conftest import (LAM23, LAM35, codes, file_rows, p1_atom_rows, p1_atoms,
                      p1_decode_batched_reference, p1_decode_reference,
                      p1_schedule_reference)


@pytest.fixture(scope="module")
def lam35(good532):
    return rate_matrix(good532, LAM35)


def test_counting_functions(good532, bad532, lam35):
    """Per node and repetition, round r asks for every r-file sum
    kappa^(f-r) (nu-kappa)^(r-1) times, so d = kappa (nu^f - kappa^f) /
    (nu - kappa); the desired rows over all nodes are exactly 1..nu^f."""
    lam23 = rate_matrix(bad532, LAM23)
    for code, lam, f in ((good532, lam35, 2), (bad532, lam23, 3),
                         (good532, lam35, 4), (bad532, lam23, 4)):
        kappa, nu = lam.kappa, lam.nu
        plan = p1_plan(code, lam, f, 1, 0)
        assert plan.beta == nu ** f
        assert plan.d == kappa * (nu ** f - kappa ** f) // (nu - kappa)
        counts = p1_symmetry_audit(plan).counts
        assert set(counts) == {(j, rep, r) for j in range(code.n)
                               for rep in range(1, kappa + 1) for r in range(1, f + 1)}
        for (j, rep, r), table in counts.items():
            assert table == {frozenset(files): kappa ** (f - r) * (nu - kappa) ** (r - 1)
                             for files in combinations(range(1, f + 1), r)}, (j, rep, r)
        desired = set(plan.rows[:, :, 0].ravel().tolist()) - {0}
        assert desired == set(range(1, plan.beta + 1))


def test_plan_shape_and_rate(good532, lam35):
    plan = p1_plan(good532, lam35, f=2, m=1, seed=0)
    assert plan.beta == 25
    assert plan.d == 24
    assert plan.rows.shape == (5, 24, 2) and plan.labels.shape == (24, 2)
    assert plan.rate == Fraction(5, 8) == rate_protocol1(3, 5, 3, 5, 2)


def test_plan_matches_published_schedule(good532, lam35):
    """Spot checks of the canonical (pre-shuffle) schedule against the
    published download table for the (3,5,2) run, server 1."""
    node_atoms = p1_schedule_reference(good532, lam35, f=2, m=1)[1]
    atoms = node_atoms[0]
    des1_r1 = [a.terms for a in atoms if a.kind == "desired1" and a.rep == 1]
    assert des1_r1 == [((1, 1),), ((1, 2),), ((1, 3),)]
    und_r1 = [a.terms for a in atoms if a.kind == "undesired" and a.rep == 1]
    assert und_r1 == [((2, 1),), ((2, 2),), ((2, 5),)]
    des2_r1 = [a.terms for a in atoms if a.kind == "desired" and a.rep == 1]
    assert des2_r1 == [((1, 16), (2, 3)), ((1, 21), (2, 4))]
    des1_r2 = [a.terms for a in atoms if a.kind == "desired1" and a.rep == 2]
    assert des1_r2 == [((1, 4),), ((1, 5),), ((1, 6),)]
    des2_r2 = [a.terms for a in atoms if a.kind == "desired" and a.rep == 2]
    assert des2_r2 == [((1, 17), (2, 8)), ((1, 22), (2, 9))]
    # server 4 uses column 4 of the interference matrices: A col = (2,3,4)
    atoms4 = node_atoms[3]
    des1_s4 = [a.terms for a in atoms4 if a.kind == "desired1" and a.rep == 1]
    assert des1_s4 == [((1, 4),), ((1, 5),), ((1, 6),)]


SCHEDULE_CASES = [("good532", LAM35, f) for f in range(1, 6)] + [
    ("bad532", LAM23, f) for f in (4, 5)]


@pytest.mark.parametrize("code_name,lam_rows,f", SCHEDULE_CASES)
def test_schedule_matches_reference(request, code_name, lam_rows, f):
    """The array schedule is the reference schedule atom for atom: node j's
    request i asks the rows of atom i of node j's reference list, and its
    label is that atom's (repetition, round), for every requested file."""
    code = request.getfixturevalue(code_name)
    lam = rate_matrix(code, lam_rows)
    for m in range(1, f + 1):
        assert_schedule_matches_reference(p1_plan(code, lam, f, m, 0))


def assert_schedule_matches_reference(plan):
    beta, node_atoms = p1_schedule_reference(plan.code, plan.lam, plan.f, plan.m)
    assert plan.beta == beta and plan.d == len(node_atoms[0])
    assert plan.rows.tolist() == [[p1_atom_rows(atom, plan.f) for atom in atoms]
                                  for atoms in node_atoms]
    for atoms in node_atoms:
        assert plan.labels.tolist() == [[atom.rep, atom.rnd] for atom in atoms]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_schedule_matches_reference_on_random_codes(data):
    """The same on random codes over GF(2), GF(3) and GF(4) with the generic
    rate matrix, f = 1..4 and a drawn requested file."""
    code = data.draw(codes([(2, 1), (3, 1), (2, 2)], max_n=6))
    assume(code.k < code.n and code.min_distance() > 1)
    lam = lambda_generic(code, seed=data.draw(st.integers(0, 2**16)))
    f = data.draw(st.integers(1, 4))
    assume(lam.nu ** f <= 625)
    assert_schedule_matches_reference(
        p1_plan(code, lam, f, data.draw(st.integers(1, f)), 0))


@pytest.mark.parametrize("f", [1, 2, 3])
def test_queries_are_each_nodes_view(good532, lam35, f):
    """Row j of the stacked queries is node j's view: its canonical requests
    in its shuffled order, each file's logical row through that file's
    private permutation, -1 where the file is absent."""
    plan = p1_plan(good532, lam35, f, 1, 11)
    queries = plan.queries()
    assert queries.dtype == np.int64 and queries.shape == (5, plan.d, f)
    rows, perms = plan.rows.tolist(), plan.perms.tolist()
    assert queries.tolist() == [
        [[perms[x][row - 1] if row else -1 for x, row in enumerate(rows[j][i])]
         for i in plan.shuffles[j].tolist()] for j in range(5)]


def test_single_term_answer_is_raw_symbol(good532, lam35):
    dss = Dss(good532, f=2, beta=25, seed=3)
    plan = p1_plan(good532, lam35, f=2, m=1, seed=3)
    queries = plan.queries()
    query, responses = queries[0], p1_answer(dss, queries)[0]
    assert queries.shape == (5, plan.d, 2) and responses.shape == (plan.d,)
    singles = 0
    for pos, rows in enumerate(query.tolist()):
        terms = [(x, row) for x, row in enumerate(rows, 1) if row >= 0]
        if len(terms) == 1:
            (mp, row), = terms
            assert responses[pos] == dss.stored[(mp - 1) * dss.beta + row, 0]
            singles += 1
    assert singles == 18  # per repetition: 3 desired rows and 3 side rows


def answer_reference(dss, node: int, query) -> list[int]:
    """Reference for `p1_answer`: each row's present terms added one at a
    time with the field's `add`, each read from its file's own rows."""
    out = []
    for rows in np.asarray(query).tolist():
        acc = 0
        for x, row in enumerate(rows, 1):
            if row >= 0:
                assert 0 <= row < dss.beta
                acc = dss.msg_field.add(acc, int(dss.stored[(x - 1) * dss.beta + row, node]))
        out.append(acc)
    return out


@pytest.mark.parametrize("q,ell", [(2, 1), (2, 2), (3, 1)], ids=["gf2", "gf4", "gf3"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.data())
def test_answer_matches_termwise_reference(q, ell, data):
    """Every node's answers to random stacked queries (each row names at
    least one term) equal the term-by-term field sums of its own query over
    GF(2), GF(4) and GF(3), on a [5,3] code."""
    code = data.draw(codes([(q, 1)], n=5))
    f = data.draw(st.integers(1, 4))
    beta = data.draw(st.integers(1, 6))
    dss = Dss(code, f=f, beta=beta, ell=ell, seed=data.draw(st.integers(0, 99)))
    d = data.draw(st.integers(0, 8))
    queries = np.array(data.draw(st.lists(
        st.lists(st.integers(-1, beta - 1), min_size=f, max_size=f)
        .filter(lambda rows: max(rows) >= 0), min_size=5 * d, max_size=5 * d)),
        dtype=np.int64).reshape(5, d, f)
    answers = p1_answer(dss, queries)
    assert answers.shape == (5, d)
    assert answers.tolist() == [answer_reference(dss, node, queries[node])
                                for node in range(5)]


def test_empty_sum_rejected(good532):
    dss = Dss(good532, f=1, beta=5, seed=0)
    queries = np.zeros((5, 2, 1), dtype=np.int64)
    queries[3, 1] = -1
    with pytest.raises(DimensionMismatch, match="^empty symbol sum is not a legal request$"):
        p1_answer(dss, queries)


@pytest.mark.parametrize("term,text", [
    ([4, -2], "outside"),      # a row below -1
    ([4, 25], "outside"),      # a row equal to beta (it would read file 2's first stripe)
    ([4, 0, -1], "of rows"),   # f + 1 columns
    ([-1, -1], "empty"),       # a sum that names no term
    ([4.0, 0.0], "of rows"),   # not an integer array
    ([4], "of rows"),          # f - 1 columns
], ids=[f"term{i}" for i in range(6)])
def test_answer_rejects_terms_outside_the_store(good532, term, text):
    """A node holds rows 0..beta-1 of files 1..f, and -1 marks a file not in
    the sum: any other query is an error, not a read of another file or
    stripe (a row of beta would read the next file's first stripe, and -2
    would index from the end of the store). Each node's query is a row of
    one (n, d, f) array, so one bad node's query refuses the lot."""
    dss = Dss(good532, f=2, beta=25, seed=0)
    good = np.array([[[0, 24]]] * 5)
    assert p1_answer(dss, good)[:, 0].tolist() == [
        dss.msg_field.add(dss.stored[0, j], dss.stored[49, j]) for j in range(5)]
    texts = {"outside": "^a term lies outside files 1..2, rows 0..24 "
                        r"\(-1 for a file not in the sum\)$",
             "empty": "^empty symbol sum is not a legal request$",
             "of rows": r"^a query is a \(d, 2\) integer array of rows, one per node; got "}
    for node in (0, 4):
        queries = np.array([[[3] + [-1] * (len(term) - 1)] * 2] * 5, dtype=np.array(term).dtype)
        queries[node, 1] = term
        with pytest.raises(DimensionMismatch, match=texts[text]):
            p1_answer(dss, queries)
    with pytest.raises(DimensionMismatch, match=texts["of rows"]):  # not (n, d, f)
        p1_answer(dss, np.array([term] * 5))


@pytest.mark.parametrize("nodes", [0, 4, 6])
def test_answer_rejects_a_wrong_number_of_queries(good532, nodes):
    """One (d, f) query per node of the store, no more and no fewer."""
    dss = Dss(good532, f=2, beta=25, seed=0)
    with pytest.raises(DimensionMismatch, match=f"^{nodes} queries for 5 nodes$"):
        p1_answer(dss, np.zeros((nodes, 3, 2), dtype=np.int64))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", range(5))
def test_end_to_end_worked_example(good532, lam35, m, seed):
    dss = Dss(good532, f=2, beta=25, seed=seed)
    plan = p1_plan(good532, lam35, f=2, m=m, seed=seed)
    responses = p1_answer(dss, plan.queries())
    decoded = p1_decode(plan, responses, dss.msg_field)
    assert np.array_equal(decoded, dss.files[m - 1])


def test_end_to_end_bad_code(bad532):
    lam = rate_matrix(bad532, LAM23)
    dss = Dss(bad532, f=2, beta=9, seed=7)
    plan = p1_plan(bad532, lam, f=2, m=2, seed=7)
    assert plan.d == 10 and plan.rate == Fraction(27, 50)
    responses = p1_answer(dss, plan.queries())
    assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[1])


def test_single_file_degenerate(good532, lam35):
    dss = Dss(good532, f=1, beta=5, seed=2)
    plan = p1_plan(good532, lam35, f=1, m=1, seed=2)
    assert plan.d == 3  # kappa requests per node, no side information
    assert (plan.file_sets == 1).all() and (plan.labels[:, 1] == 1).all()
    responses = p1_answer(dss, plan.queries())
    assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[0])


def test_multiround_extension_field(good532):
    lam23g = rate_matrix(good532, [(1, 1, 1, 0, 0), (1, 0, 0, 1, 1),
                                   (0, 1, 1, 1, 1)])
    dss = Dss(good532, f=3, beta=27, ell=2, seed=5)
    plan = p1_plan(good532, lam23g, f=3, m=2, seed=5)
    assert plan.d == 2 * (27 - 8)
    responses = p1_answer(dss, plan.queries())
    assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[1])


def test_kappa_equals_nu_rejected(good532):
    lam_sq = rate_matrix(good532, [(1,) * 5] * 3)
    with pytest.raises(KappaEqualsNu):
        p1_plan(good532, lam_sq, f=2, m=1, seed=0)


def test_download_accounting_many_shapes(good532, bad532):
    cases = [(good532, LAM35, 2), (good532, LAM35, 3), (bad532, LAM23, 2),
             (bad532, LAM23, 4)]
    for code, rows, f in cases:
        lam = rate_matrix(code, rows)
        plan = p1_plan(code, lam, f=f, m=1, seed=1)
        k, n = code.k, code.n
        total = int((plan.rows > 0).any(axis=2).sum())
        assert total == n * plan.d
        assert Fraction(plan.beta * k, total) == rate_protocol1(
            lam.kappa, lam.nu, k, n, f)


def test_symmetry_audit(good532, lam35):
    plan = p1_plan(good532, lam35, f=2, m=1, seed=0)
    report = p1_symmetry_audit(plan)
    assert report.ok
    # per repetition and node: 3 singleton-{m} + 3 singleton-{other} in round 1,
    # 2 pair sums in round 2
    table_r1 = report.counts[(0, 1, 1)]
    assert table_r1[frozenset({1})] == 3 and table_r1[frozenset({2})] == 3
    table_r2 = report.counts[(0, 1, 2)]
    assert table_r2[frozenset({1, 2})] == 2
    # negative control: node 0 dropping the desired term of its last sum
    # breaks node symmetry
    rows = plan.rows.copy()
    rows[0, -1, 0] = 0
    broken = p1_symmetry_audit(dataclasses.replace(plan, rows=rows))
    assert not broken.ok
    assert "node 1 differs from node 0 at rep 3 round 2" in broken.violations


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2), max_size=40),
       st.booleans())
def test_first_seen_numbers_by_first_appearance(rows, flat):
    """The distinct keys (ints, or rows of ints) numbered as a dict fills in
    scan order: first positions, counts and each entry's number."""
    keys = [row[0] for row in rows] if flat else [tuple(row) for row in rows]
    first, count, number = _first_seen(np.array(keys, dtype=np.int64).reshape(
        len(keys), *(() if flat else (2,))))
    seen: dict = {}
    for pos, key in enumerate(keys):
        seen.setdefault(key, [pos, 0])[1] += 1
    assert first.tolist() == [pos for pos, _ in seen.values()]
    assert count.tolist() == [c for _, c in seen.values()]
    assert number.tolist() == [list(seen).index(key) for key in keys]


def test_symmetry_counts_follow_the_reference_atoms(good532, lam35):
    """The symmetry audit's tables are those of the reference atoms, filled
    in the same order: per node, each (rep, round) and each file set as the
    node's atom list first shows it."""
    for f in (2, 3, 4):
        for m in (1, f):
            plan = p1_plan(good532, lam35, f, m, 0)
            counts: dict = {}
            for j, atoms in enumerate(p1_atoms(plan)):
                for atom in atoms:
                    table = counts.setdefault((j, atom.rep, atom.rnd), {})
                    files = frozenset(x for x, _ in atom.terms)
                    table[files] = table.get(files, 0) + 1
            got = p1_symmetry_audit(plan).counts
            assert [(key, list(table.items())) for key, table in got.items()] == [
                (key, list(table.items())) for key, table in counts.items()]


REPEAT = re.compile(r"node (\d+): file (\d+) row (\d+) requested (\d+) times")


@pytest.mark.parametrize("f", [2, 3, 4, 5])
def test_symmetry_audit_passes_without_repeated_rows(good532, bad532, lam35, f):
    """Each undesired file has its own run of row blocks, so no node is asked
    twice for one (file, row), whichever file is requested."""
    for code, lam in ((good532, lam35), (bad532, rate_matrix(bad532, LAM23))):
        for m in range(1, f + 1):
            report = p1_symmetry_audit(p1_plan(code, lam, f, m, 0))
            assert report.ok, report.violations


@pytest.mark.parametrize("f,most", [(4, 2), (5, 3)])
def test_symmetry_audit_names_repeated_rows(good532, lam35, f, most):
    """A node asked for one sum `most` times is asked for each of its
    (file, row) terms that often: the audit names each such (node, file)
    with that row and count, and nothing for the other nodes and files."""
    for m in (1, f):
        plan = p1_plan(good532, lam35, f, m, 0)
        assert p1_symmetry_audit(plan).ok
        # node 1 asks its first 2-file sum again in place of the next most - 1 sums
        first = int(np.flatnonzero((plan.rows[1] > 0).sum(axis=1) == 2)[0])
        rows = plan.rows.copy()
        rows[1, first + 1:first + most] = rows[1, first]
        report = p1_symmetry_audit(dataclasses.replace(plan, rows=rows))
        named = [g for g in map(REPEAT.match, report.violations) if g]
        assert not report.ok
        assert sorted((int(g[1]), int(g[2]), int(g[3]), int(g[4])) for g in named) == [
            (1, x, row, most) for x, row in enumerate(rows[1, first].tolist(), 1)
            if row], report.violations


@pytest.mark.parametrize("code_name,rows,f", [("good532", LAM35, 4),
                                              ("bad532", LAM23, 4), ("bad532", LAM23, 5)])
def test_node_views_repeat_no_stored_symbol(request, code_name, rows, f):
    """In every node's query list, whatever the seed and the requested file,
    each (file, physical row) occurs at most once, so a node cannot single
    out the requested file as the one whose rows never repeat."""
    code = request.getfixturevalue(code_name)
    lam = rate_matrix(code, rows)
    for seed in range(3):
        for m in range(1, f + 1):
            plan = p1_plan(code, lam, f, m, seed)
            for j, query in enumerate(plan.queries().tolist()):
                terms = Counter((x, row) for rows in query
                                for x, row in enumerate(rows, 1) if row >= 0)
                assert max(terms.values()) == 1, (seed, m, j)
                assert all(0 <= row < plan.beta for _, row in terms)


@pytest.mark.parametrize("f", [4, 5])
@settings(derandomize=True, max_examples=6, deadline=None)
@given(st.data())
def test_many_file_schedules_are_private_and_decode(f, data):
    """On small codes over GF(2) and GF(3) with the generic rate matrix, the
    f = 4 and 5 schedules ask no node twice for a (file, row), pass the
    symmetry audit and retrieve every file."""
    code = data.draw(codes([(2, 1), (3, 1)], max_n=5))
    assume(code.k < code.n and code.min_distance() > 1)
    lam = lambda_generic(code, seed=data.draw(st.integers(0, 2**16)))
    assume(lam.nu ** f <= 625)
    dss = Dss(code, f=f, beta=lam.nu ** f, seed=f)
    for m in range(1, f + 1):
        plan = p1_plan(code, lam, f, m, m)
        assert p1_symmetry_audit(plan).ok
        for rows in plan.rows.tolist():
            terms = Counter((x, row) for sums in rows
                            for x, row in enumerate(sums, 1) if row)
            assert max(terms.values()) == 1
        assert run(1, dss, {"lam": lam, "m": m, "seed": m}).decoded_hash == dss.file_hash(m)


def test_invalid_lambda_rejected(good532):
    from codedpir.errors import InvalidLambda
    from codedpir.ratematrix import RateMatrix
    crooked = RateMatrix(2, 3, ((1, 1, 1, 0, 0), (1, 1, 0, 1, 0),
                                (0, 1, 1, 1, 1)))
    with pytest.raises(InvalidLambda):
        p1_plan(good532, crooked, f=2, m=1, seed=0)
    # a rejected schedule is not cached: the same call raises again
    with pytest.raises(InvalidLambda):
        p1_plan(good532, crooked, f=2, m=1, seed=0)


def test_seeds_share_one_schedule(good532, lam35):
    """Plans of one (code, Lambda, f, m) share the schedule object; the seed
    draws only the private permutations and shuffles."""
    a = p1_plan(good532, lam35, f=2, m=1, seed=0)
    b = p1_plan(good532, lam35, f=2, m=1, seed=1)
    assert b.rows is a.rows and b.labels is a.labels
    # the shared arrays are read-only, so no plan can change another's schedule
    assert not a.rows.flags.writeable and not a.labels.flags.writeable
    with pytest.raises(ValueError):
        a.rows[0, 0, 0] = 7
    assert (a.perms != b.perms).any() and (a.shuffles != b.shuffles).any()
    private = {"seed", "perms", "shuffles"}
    for fld in dataclasses.fields(a):
        if fld.name not in private:
            assert getattr(a, fld.name) is getattr(b, fld.name), fld.name
    # the other file index has its own schedule
    assert (p1_plan(good532, lam35, f=2, m=2, seed=0).rows != a.rows).any()


def test_plan_draws_plain_int_permutations_that_replay(good532, lam35):
    """One generator per plan draws every stripe permutation and query
    shuffle: each is a permutation of range(beta) or range(d), a fixed seed
    replays them bit for bit, and the transcript that carries them renders
    them as plain Python ints and serializes."""
    import json
    from codedpir.dss import run
    plan = p1_plan(good532, lam35, f=2, m=1, seed=21)
    assert plan.perms.shape == (plan.f, plan.beta)
    assert plan.shuffles.shape == (good532.n, plan.d)
    for perm in plan.perms.tolist():
        assert sorted(perm) == list(range(plan.beta))
    for order in plan.shuffles.tolist():
        assert sorted(order) == list(range(plan.d))
    again = p1_plan(good532, lam35, f=2, m=1, seed=21)
    assert (again.perms == plan.perms).all() and (again.shuffles == plan.shuffles).all()
    dss = Dss(good532, f=2, beta=25, seed=21)
    tx = run(1, dss, {"lam": lam35, "m": 1, "seed": 21})
    user = tx.to_json_dict()["user"]
    assert user == {"perms": plan.perms.tolist(), "shuffles": plan.shuffles.tolist()}
    assert all(type(x) is int for rows in user.values() for row in rows for x in row)
    assert json.dumps(tx.to_json_dict())


def test_symmetry_single_file(good532, lam35):
    plan = p1_plan(good532, lam35, f=1, m=1, seed=0)
    report = p1_symmetry_audit(plan)
    assert report.ok
    assert all(set(table) == {frozenset({1})} for table in report.counts.values())


def test_plan_subset_multisets_independent_of_request(good532, lam35):
    """For a fixed seed the multiset of per-node file-subset signatures is
    identical whichever file is requested; only the private row indices and
    the roles differ."""
    from collections import Counter
    plans = {m: p1_plan(good532, lam35, f=2, m=m, seed=13) for m in (1, 2)}
    for j in range(5):
        counters = [Counter(plan.file_sets[j].tolist()) for plan in plans.values()]
        assert counters[0] == counters[1]


def test_decode_rejects_incomplete_responses(good532, lam35):
    from codedpir.errors import DecodeFailure
    dss = Dss(good532, f=2, beta=25, seed=1)
    plan = p1_plan(good532, lam35, f=2, m=1, seed=1)
    responses = p1_answer(dss, plan.queries())
    with pytest.raises(DecodeFailure):
        p1_decode(plan, responses[:-1], dss.msg_field)
    with pytest.raises(DecodeFailure):
        p1_decode(plan, [r[:-1] for r in responses], dss.msg_field)


def test_decode_checks_desired_stripes_on_all_known_coordinates(good532):
    """A flipped desired symbol raises wherever the nodes that know its stripe
    puncture the code to minimum distance >= 2 (so no codeword matches)."""
    from codedpir.errors import DecodeFailure
    from codedpir.ratematrix import lambda_generic
    lam = lambda_generic(good532, seed=1)
    dss = Dss(good532, f=2, beta=lam.nu ** 2, seed=1)
    plan = p1_plan(good532, lam, f=2, m=1, seed=1)
    responses = p1_answer(dss, plan.queries())
    node_atoms = p1_atoms(plan)
    known: dict[int, set] = {}
    for j, atoms in enumerate(node_atoms):
        for atom in atoms:
            if atom.kind in ("desired", "desired1"):
                known.setdefault(atom.terms[0][1], set()).add(j)
    detectable = 0
    for j in range(5):
        for pos, idx in enumerate(plan.shuffles[j]):
            atom = node_atoms[j][idx]
            if atom.kind not in ("desired", "desired1") or \
                    good532.puncture(known[atom.terms[0][1]]).min_distance() < 2:
                continue
            detectable += 1
            flipped = [list(r) for r in responses]
            flipped[j][pos] = dss.msg_field.add(flipped[j][pos], 1)
            with pytest.raises(DecodeFailure):
                p1_decode(plan, flipped, dss.msg_field)
    assert detectable == 16
    assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[0])


def test_decode_flip_outcomes(good532):
    """Each of the 105 single-symbol flips of the [5,3] generic-Lambda run
    either raises DecodeFailure (80) or decodes to a wrong file (25); none
    goes unnoticed in the output. Each failure names the stripe or aligned
    sum it met."""
    from codedpir.errors import DecodeFailure
    from codedpir.ratematrix import lambda_generic
    lam = lambda_generic(good532, seed=1)
    dss = Dss(good532, f=2, beta=lam.nu ** 2, seed=1)
    plan = p1_plan(good532, lam, f=2, m=1, seed=1)
    responses = p1_answer(dss, plan.queries())
    outcomes = {"raised": 0, "wrong": 0, "unchanged": 0}
    named = set()
    for j in range(5):
        for pos in range(plan.d):
            flipped = [list(r) for r in responses]
            flipped[j][pos] = dss.msg_field.add(flipped[j][pos], 1)
            try:
                decoded = p1_decode(plan, flipped, dss.msg_field)
            except DecodeFailure as exc:
                outcomes["raised"] += 1
                match = re.match(r"(stripe|aligned sum) (\d+): word \d+: no codeword",
                                 str(exc))
                assert match, str(exc)
                named.add(match.group(1))
                continue
            outcomes["unchanged" if np.array_equal(decoded, dss.files[0]) else "wrong"] += 1
    assert outcomes == {"raised": 80, "wrong": 25, "unchanged": 0}
    assert named == {"stripe", "aligned sum"}


def test_end_to_end_reed_muller_automorphism_matrix():
    """Capacity run on R(1,3) with the translation-built matrix: f=2 rate
    equals the finite capacity for [8,4]."""
    from codedpir.families import rm_code, rm_information_set
    from codedpir.ratematrix import capacity_finite, lambda_from_automorphisms
    code = rm_code(1, 3)
    translations = [[j ^ s for j in range(8)] for s in range(8)]
    lam = lambda_from_automorphisms(code, translations,
                                    rm_information_set(1, 3))
    dss = Dss(code, f=2, beta=lam.nu ** 2, seed=4)
    plan = p1_plan(code, lam, f=2, m=1, seed=4)
    assert plan.rate == capacity_finite(8, 4, 2) == Fraction(2, 3)
    responses = p1_answer(dss, plan.queries())
    decoded = p1_decode(plan, responses, dss.msg_field)
    assert np.array_equal(decoded, dss.files[0])


def decode_outcome(decode, plan, responses, msg_field):
    """The decoded file's rows, or the class of the DecodeFailure raised instead."""
    try:
        return file_rows(decode(plan, responses, msg_field))
    except DecodeFailure as exc:
        return type(exc)


def decode_text(decode, plan, responses, msg_field):
    """The decoded file's rows, or the class and text of the DecodeFailure raised."""
    try:
        return file_rows(decode(plan, responses, msg_field))
    except DecodeFailure as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("lam_rows,f,ell", [
    (LAM35, 2, 1), (LAM35, 3, 1), (LAM35, 2, 4), (LAM35, 3, 4), (None, 2, 1)],
    ids=["lam35-f2", "lam35-f3", "lam35-f2-gf16", "lam35-f3-gf16", "generic-f2"])
def test_decode_matches_the_batched_reference_on_every_flip(good532, lam_rows, f, ell):
    """On every single-symbol flip of a [5,3] run (the balanced LAM35 and the
    generic rate matrix of `test_decode_flip_outcomes`), the staged decode
    returns the file the per-batch `decode_erasures` loop returns, or raises
    DecodeFailure with the same text. So it does with two symbols flipped
    (each next to the other in node-major order, or d/2 apart) and with a
    node's whole response flipped, where several words can fail and the one
    named must be the first the per-batch loop meets."""
    lam = rate_matrix(good532, lam_rows) if lam_rows else lambda_generic(good532, seed=1)
    dss = Dss(good532, f=f, beta=lam.nu ** f, ell=ell, seed=1)
    plan = p1_plan(good532, lam, f, 1, 1)
    responses = p1_answer(dss, plan.queries())
    assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[0])
    size = responses.size
    flips = ([[i] for i in range(size)] + [[i, i + 1] for i in range(size - 1)]
             + [[i, (i + plan.d // 2) % size] for i in range(size)]
             + [list(range(j * plan.d, (j + 1) * plan.d)) for j in range(5)])
    raised = []
    for flip in flips:
        flipped = responses.copy()
        flipped.flat[flip] = [dss.msg_field.add(int(x), 1) for x in flipped.flat[flip]]
        got = decode_text(p1_decode, plan, flipped, dss.msg_field)
        assert got == decode_text(p1_decode_batched_reference, plan, flipped,
                                  dss.msg_field), flip
        raised.append(isinstance(got, tuple))
    assert sum(raised[:size]) == (80 if lam_rows is None else 0)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("field", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)],
                         ids=["q2", "q3", "q4", "q5", "q7", "q8", "q9"])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.data())
def test_corrupted_responses_decode_like_the_reference(field, ell, data):
    """Each drawn code retrieves its file exactly; with one response symbol
    changed, p1_decode returns the same file or raises the same DecodeFailure
    class as the per-atom reference decode, and the same text as the
    per-batch reference, on the generic rate matrix and on the optimizer's
    (as `simulate p1` draws them), for random codes over GF(q) and payloads
    over GF(q^ell)."""
    code = data.draw(codes([field], max_n=6))
    assume(code.k < code.n)
    seed = data.draw(st.integers(0, 2**16))
    lams = []
    if code.min_distance() > 1:  # else the generic matrix has kappa = nu
        lams.append(lambda_generic(code, seed=seed))
    e, _ = optimize_rate(code, seed=seed)
    if e is not None:
        lams.append(rate_matrix(code, E_to_lambda(e)))
    for lam in lams:
        dss = Dss(code, f=2, beta=lam.nu ** 2, ell=ell, seed=seed)
        plan = p1_plan(code, lam, 2, 1 + seed % 2, seed)
        responses = p1_answer(dss, plan.queries())
        assert np.array_equal(p1_decode(plan, responses, dss.msg_field), dss.files[plan.m - 1])
        j = data.draw(st.integers(0, code.n - 1))
        pos = data.draw(st.integers(0, plan.d - 1))
        responses[j][pos] = dss.msg_field.add(
            responses[j][pos], data.draw(st.integers(1, dss.msg_field.order - 1)))
        assert decode_outcome(p1_decode, plan, responses, dss.msg_field) == \
            decode_outcome(p1_decode_reference, plan, responses, dss.msg_field)
        assert decode_text(p1_decode, plan, responses, dss.msg_field) == \
            decode_text(p1_decode_batched_reference, plan, responses, dss.msg_field)
