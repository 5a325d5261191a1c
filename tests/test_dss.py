import hashlib
import itertools
import json
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codedpir import audit
from codedpir.audit import SAMPLE_LIMIT, SET_LIMIT, chi2_sf, privacy_audit
from codedpir.codes import LinearCode, repetition_code
from codedpir.dss import Dss, run
from codedpir.errors import (BadParams, DimensionMismatch, RateOneProduct,
                             StructureViolation, TooLarge)
from codedpir.families import grs_code
from codedpir.fields import Matrix, field_make, mat_mul
from codedpir.optimizer import compute_erasure_pattern_list, optimize_rate
from codedpir.protocol2 import p2_build_structure
from codedpir.protocol3 import p3_rm_max_rate, p3_setup
from codedpir.ratematrix import rate_matrix
from codedpir.rng import generator
from conftest import (EHAT_EX5, EHAT_EX6, EHAT_P3, ISETS_EX5, ISETS_EX6,
                      ISETS_P3, LAM35, _homogeneity_p, codes,
                      p1_audit_samples_reference, p1_symmetry_audit_with_repeat,
                      lifted, p23_audit_outcomes_reference, p23_exact_reference,
                      query_reference)


def test_dss_init_invariants(good532):
    dss = Dss(good532, f=2, beta=2, seed=1)
    # stored rows are the files' codewords, file-major and stripe-minor
    words = [row for x in dss.files
             for row in mat_mul(Matrix(dss.msg_field, x.tolist()), good532.G).data]
    assert dss.stored.tolist() == words
    # a node stores coordinate l of each of them
    assert dss.node_content(0) == [word[0] for word in words]
    with pytest.raises(BadParams):
        Dss(good532, f=1, beta=0)


def test_dss_lifts_subfield_files_and_rejects_other_fields(good532, f2):
    """Files over a subfield of GF(q^ell), embedded into it with
    `embed_array`, are stored and come back
    from every protocol; symbols outside GF(q^ell), and files given as
    matrices, are refused."""
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    f4 = field_make(2, 2)
    sub = [[[1, 2, 3], [0, 1, 2]], [[3, 3, 0], [2, 0, 1]]]
    msg_field = good532.field.extension(4)
    files = msg_field.embed_array(np.array(sub), f4)
    dss = Dss(good532, f=2, beta=2, ell=4, files=files)
    for m in (1, 2):
        tx = run(2, dss, {"structure": s5, "m": m, "seed": 5})
        assert tx.decoded_hash == dss.file_hash(m)
    assert [lifted(Matrix(f4, x), dss.msg_field).data for x in sub] == dss.files.tolist()
    with pytest.raises(BadParams):
        Dss(good532, f=1, beta=2, ell=1, files=np.array([sub[0]]))
    with pytest.raises(BadParams):
        Dss(good532, f=1, beta=2, ell=2,
            files=[Matrix(field_make(3), [[1, 2, 0], [0, 1, 2]])])


def test_run_all_protocols(good532, code124):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=3)
    tx2 = run(2, dss, {"structure": s5, "m": 1, "seed": 4})
    assert tx2.rate == Fraction(2, 5)
    assert tx2.decoded_hash == dss.file_hash(1)

    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=2, beta=25, seed=3)
    tx1 = run(1, dss1, {"lam": lam, "m": 2, "seed": 4})
    assert tx1.rate == Fraction(5, 8)
    assert tx1.downloaded == 120

    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    dss3 = Dss(code124, f=2, beta=1, seed=3)
    tx3 = run(3, dss3, {"setup": setup, "m": 1, "seed": 4})
    assert tx3.rate == Fraction(1, 6)

    # transcripts serialize, and the node view withholds user-private fields
    for tx in (tx1, tx2, tx3):
        full = tx.to_json_dict()
        assert json.dumps(full)
        node_view = tx.to_json_dict(include_user=False)
        assert "user" not in node_view and "requested" not in node_view


def golden_run(good532, code73, code124, protocol: int, seed: int):
    """The 5/8 run on [5,3], the [7,3] structure at 4/7 and the [12,4] setup
    at 1/6, each requesting one of two files."""
    if protocol == 1:
        dss = Dss(good532, f=2, beta=25, seed=seed)
        config = {"lam": rate_matrix(good532, LAM35), "m": 1}
    elif protocol == 2:
        dss = Dss(code73, f=2, beta=4, seed=seed)
        config = {"structure": p2_build_structure(code73, ISETS_EX6, EHAT_EX6),
                  "m": 2}
    else:
        dss = Dss(code124, f=2, beta=1, seed=seed)
        config = {"setup": p3_setup(code124, code124, EHAT_P3, ISETS_P3), "m": 1}
    return run(protocol, dss, dict(config, seed=seed))


# sha256 of the sorted-key JSON of whole transcripts (user part included), per
# (protocol, seed): a change here changes an RNG stream or the transcript
# format, and must be deliberate. Restated once when a store's files moved
# from one stdlib `randrange` per symbol to one numpy `integers` call per
# store (`rng.generator(seed, "dss", "files")`): the responses and decoded
# hashes follow the files; the queries did not move
TRANSCRIPT_GOLDEN = {
    (1, 0): "0ffcd87a7b4e95f3d0e5ac78680252cc14b8c6543b33794c8eef169567ca7f01",
    (1, 1): "0ba7a66abb204f30af2749bea34117ba29fcb127e036b597d4dc149a95fab10a",
    (2, 0): "76c9556ff0515a453c749ecb67f37ab441d66dc6fea3f79ecc874f0aade54b06",
    (2, 1): "fbf1d3902717d135d14b81ca1fde7a4e34c2b8472a6db378d6999a653298406e",
    (3, 0): "cd3c1c5bd203042876e42dc0c88fd82a8438a87c088c01faf5352d83fd98e1d0",
    (3, 1): "2431fae275043741a555da8ce4b83f3ba1e7bbbf0e90d75583a79d974a077e27",
}

# what each golden run retrieves: (decoded_hash, rate, downloaded symbols).
# These depend on the stored files and the protocol, not on the query
# randomness, so a change of query RNG stream leaves them as they are. The
# decoded hashes were restated once, with `TRANSCRIPT_GOLDEN`, when the
# stored files moved to one numpy `integers` call per store; the rates and
# download counts did not change
OUTPUT_GOLDEN = {
    (1, 0): ("74734d7b8a6d2e7953f0ab7ced31e0c0df38e9ae627e4238faea4230706b804e",
             Fraction(5, 8), 120),
    (1, 1): ("d5fb8556315efec05ea9394f4f45adcbddf4d26663b0b0a88e8b9feb4d77bf0a",
             Fraction(5, 8), 120),
    (2, 0): ("e6724f03d7a54ec666180ea193def356774bf8f30a052124030c20c600715f2d",
             Fraction(4, 7), 21),
    (2, 1): ("bc55e2412e5ed4ff5a70a333843abd91dae040dfef834637e3ca983039c8d10f",
             Fraction(4, 7), 21),
    (3, 0): ("c32ae6caebc7af3fdd068e32dc76f57170b26d1b211262fef31c4480a1599ff4",
             Fraction(1, 6), 24),
    (3, 1): ("d61f14641415f0df1f1c6a64bc0710f426f133d0c9ae81e4c60c8591aa2cc430",
             Fraction(1, 6), 24),
}


@pytest.mark.parametrize("protocol,seed", sorted(TRANSCRIPT_GOLDEN))
def test_transcripts_golden(good532, code73, code124, protocol, seed):
    tx = golden_run(good532, code73, code124, protocol, seed)
    text = json.dumps(tx.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TRANSCRIPT_GOLDEN[(protocol, seed)]


@pytest.mark.parametrize("protocol,seed", sorted(OUTPUT_GOLDEN))
def test_golden_runs_retrieve_pinned_outputs(good532, code73, code124,
                                             protocol, seed):
    tx = golden_run(good532, code73, code124, protocol, seed)
    assert (tx.decoded_hash, tx.rate, tx.downloaded) == \
        OUTPUT_GOLDEN[(protocol, seed)]


@pytest.mark.parametrize("store,m,seed", [
    ("bad532", 1, 0), ("bad532", 2, 2),   # decoded a wrong file
    ("bad532", 1, 1), ("bad532", 2, 1),   # completed with a transcript
    ("gf3", 1, 0),                        # failed inside the field embedding
    ("good532-again", 1, 0)])             # an equal code is accepted
def test_run_rejects_setup_of_another_storage_code(good532, bad532, store, m, seed):
    """A protocol-2 structure built on the [5,3] code `good532` refuses a
    store on another [5,3] GF(2) code, whose runs either decoded a wrong file
    or completed unvalidated, and one on a GF(3) code with the same
    generator, before any query is drawn; an equal code built anew runs."""
    from codedpir.codes import code_from_generator
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    code = {"bad532": bad532,
            "gf3": code_from_generator(Matrix(field_make(3), good532.G.data)),
            "good532-again": code_from_generator(Matrix(field_make(2), good532.G.data))
            }[store]
    dss = Dss(code, f=2, beta=2, seed=seed)
    if store == "good532-again":
        assert run(2, dss, {"structure": s5, "m": m, "seed": seed}).decoded_hash \
            == dss.file_hash(m)
        return
    with mock.patch("codedpir.protocol3.p3_queries") as queries:
        with pytest.raises(BadParams, match="another storage code"):
            run(2, dss, {"structure": s5, "m": m, "seed": seed})
    queries.assert_not_called()


def test_file_hash_is_the_digest_of_the_file(good532):
    """Each file's digest is the sha256 of the JSON of its rows, the same on
    every request (computed once per file)."""
    dss = Dss(good532, f=3, beta=2, seed=4)
    for m in (2, 1, 3, 2):
        want = hashlib.sha256(json.dumps(dss.files[m - 1].tolist()).encode()).hexdigest()
        assert dss.file_hash(m) == want
    assert len({dss.file_hash(m) for m in (1, 2, 3)}) == 3
    with mock.patch("codedpir.dss.hashlib.sha256") as sha:
        dss.file_hash(1)
    sha.assert_not_called()


def test_store_replays_per_seed(good532):
    """A store's files replay for a fixed seed and differ across seeds."""
    a, b = (Dss(good532, f=3, beta=4, seed=7) for _ in range(2))
    assert a.files.tolist() == b.files.tolist()
    assert np.array_equal(a.stored, b.stored)
    stores = {json.dumps(Dss(good532, f=3, beta=4, seed=s).files.tolist())
              for s in range(5)}
    assert len(stores) == 5


def test_store_draws_every_symbol_of_the_extension():
    """Over GF(13) with ell = 2 the drawn symbols lie in 0..168, some outside
    the image of GF(13), and `stored` is each file's rows times G lifted."""
    f13 = field_make(13)
    code = grs_code(f13, 6, 3)
    dss = Dss(code, f=3, beta=20, ell=2, seed=0)
    symbols = dss.files
    assert symbols.shape == (3, 20, 3)
    assert 0 <= symbols.min() and symbols.max() <= 168
    assert not set(symbols.ravel().tolist()) <= set(dss.msg_field.embedding_from(f13))
    G = lifted(code.G, dss.msg_field)
    assert dss.stored.tolist() == [row for x in dss.files
                                   for row in mat_mul(Matrix(dss.msg_field, x.tolist()), G).data]


@pytest.mark.parametrize("seed", [1.5, "1", None])
def test_seeds_must_be_integers(good532, seed):
    """A seed that is not an integer is refused, naming it, by a store, a
    run and a sampled pattern list, where it was truncated before (1.5 drew
    seed 1's files); a numpy integer is the same seed as the int."""
    text = re.escape(f"a seed must be an integer, not {seed!r}")
    with pytest.raises(BadParams, match=text):
        Dss(good532, f=1, beta=1, seed=seed)
    dss = Dss(good532, f=2, beta=2, seed=1)
    with pytest.raises(BadParams, match=text):
        run(2, dss, {"structure": p2_build_structure(good532, ISETS_EX5, EHAT_EX5),
                     "seed": seed})
    with pytest.raises(BadParams, match=text):
        compute_erasure_pattern_list(good532, 2, budget=0, sample_budget=5, seed=seed)
    assert np.array_equal(Dss(good532, f=2, beta=2, seed=np.int64(1)).files, dss.files)


def store_and_config(good532, code124, protocol: int, ell: int = 1):
    """A two-file store and its run config for each protocol: LAM35 on
    [5,3] (protocol 1), Example 5's structure (2), the [12,4] setup (3)."""
    if protocol == 1:
        return (Dss(good532, f=2, beta=25, ell=ell, seed=2),
                {"lam": rate_matrix(good532, LAM35)})
    if protocol == 2:
        return (Dss(good532, f=2, beta=2, ell=ell, seed=2),
                {"structure": p2_build_structure(good532, ISETS_EX5, EHAT_EX5)})
    return (Dss(code124, f=2, beta=1, ell=ell, seed=2),
            {"setup": p3_setup(code124, code124, EHAT_P3, ISETS_P3)})


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("protocol", [1, 2, 3])
def test_decoders_return_the_file_as_an_array(good532, code124, protocol, ell):
    """Each protocol's decoder returns the requested file as a (beta, k)
    int64 array equal to `dss.files[m - 1]`, the store's read-only
    (f, beta, k) int64 array, over GF(2) and GF(4)."""
    from codedpir.protocol1 import p1_answer, p1_decode, p1_plan
    from codedpir.protocol2 import p2_decode, p2_queries, p2_respond
    from codedpir.protocol3 import p3_decode, p3_queries, p3_respond
    dss, config = store_and_config(good532, code124, protocol, ell)
    assert dss.files.dtype == np.int64 and dss.files.shape == (2, dss.beta, dss.code.k)
    for m in (1, 2):
        if protocol == 1:
            plan = p1_plan(dss.code, config["lam"], 2, m, 5)
            decoded = p1_decode(plan, p1_answer(dss, plan.queries()), dss.msg_field)
        elif protocol == 2:
            setup = config["structure"]
            responses = p2_respond(dss, p2_queries(setup, 2, m, 5))
            decoded = p2_decode(setup, responses, 2, m, dss.msg_field)
        else:
            setup = config["setup"]
            responses = p3_respond(dss, p3_queries(setup, 2, m, 5))
            decoded = p3_decode(setup, responses, 2, m, dss.msg_field)
        assert decoded.dtype == np.int64 and decoded.shape == (dss.beta, dss.code.k)
        assert np.array_equal(decoded, dss.files[m - 1])


@pytest.mark.parametrize("given", [False, True])
def test_store_arrays_are_read_only(good532, given):
    """`files` and `stored` refuse writes, where a write to `stored` made the
    next run raise DecodeFailure; a given files array is copied, so a later
    write to it leaves the store as it was."""
    files = np.array([[[1, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]])
    dss = Dss(good532, f=2, beta=2, seed=1, files=files if given else None)
    for array in (dss.files, dss.stored):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] ^= 1
    kept = dss.files.copy()
    files[0, 0, 0] ^= 1
    assert np.array_equal(dss.files, kept)
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    for m in (1, 2):
        assert run(2, dss, {"structure": s5, "m": m, "seed": 3}).decoded_hash \
            == dss.file_hash(m)


@pytest.mark.parametrize("files,text", [
    (np.zeros((2, 3, 3), dtype=np.int64), "shape"),
    (np.zeros((1, 2, 3), dtype=np.int64), "shape"),
    (np.zeros((2, 2, 3, 1), dtype=np.int64), "shape"),
    (np.zeros(12, dtype=np.int64), "shape"),
    (np.zeros((2, 2, 3)), "float64"),
    (np.zeros((2, 2, 3), dtype=bool), "bool"),
    ([Matrix(field_make(2), [[1, 0, 1], [0, 1, 1]])] * 2, "object"),
    ([[[0, 0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]]], "shape"),
    (np.full((2, 2, 3), -1), "elements"),
    (np.full((2, 2, 3), 4), "elements"),
    (np.full((2, 2, 3), 2 ** 63, dtype=np.uint64), "elements"),
], ids=["beta", "f", "rank4", "flat", "float", "bool", "matrices", "ragged",
        "negative", "order", "uint64"])
def test_given_files_are_refused_unless_an_array_of_symbols(good532, files, text):
    """`files=` takes an (f, beta, k) integer array of GF(q^ell) symbols and
    refuses, with BadParams, any other shape, a non-integer array (a list of
    matrices, a ragged list) or a symbol outside 0..q^ell-1."""
    with pytest.raises(BadParams, match=text):
        Dss(good532, f=2, beta=2, ell=2, files=files)
    assert Dss(good532, f=2, beta=2, ell=2, files=np.full((2, 2, 3), 3)).files.max() == 3


@pytest.mark.parametrize("m", [1.9, "1"])
@pytest.mark.parametrize("protocol", [1, 2, 3])
def test_file_index_must_be_an_integer(good532, code124, protocol, m):
    """A requested file index that is not an integer is refused, naming it,
    where it was truncated before (1.9 retrieved file 1 and recorded
    requested=1); a numpy integer is the same index as the int."""
    dss, config = store_and_config(good532, code124, protocol)
    with pytest.raises(BadParams, match=re.escape(f"a file index must be an integer, "
                                                  f"not {m!r}")):
        run(protocol, dss, {**config, "m": m, "seed": 1})
    tx = run(protocol, dss, {**config, "m": np.int64(2), "seed": 1})
    assert tx.requested == 2 and tx.decoded_hash == dss.file_hash(2)


def test_run_replays_bit_exactly(good532):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=11)
    a = run(2, dss, {"structure": s5, "m": 2, "seed": 12})
    b = run(2, dss, {"structure": s5, "m": 2, "seed": 12})
    assert a.to_json_dict() == b.to_json_dict()


def test_exact_audit_p2(good532):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=0)
    report = privacy_audit(2, dss, {"structure": s5}, mode="exact")
    assert report.mode == "exact" and report.passed
    # the protocol-3 decision with the repetition code over single spies
    # (T = 1); it draws nothing, so it reports no trials
    assert report.protocol == 2 and report.trials == 0
    assert [o.collusion for o in report.outcomes] == [(l,) for l in range(5)]
    assert all(o.identical for o in report.outcomes)


def test_exact_audit_p3_with_control(code124):
    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    dss = Dss(code124, f=2, beta=1, seed=0)
    report = privacy_audit(3, dss, {"setup": setup},
                           collusion_sets=[(0,), (8, 11), (1, 2), (4, 7)],
                           mode="exact", control_sets=[(3, 5, 8)])
    assert report.passed
    # (3,5,8) supports a weight-3 dual codeword and meets an access set oddly:
    # the oversized collusion set provably leaks
    assert report.controls[0].flagged


def test_exact_audit_of_no_sets_checks_only_controls(code124):
    """[] audits no set (only None means every legal set); the control is
    still decided, and its position names the first leaking stripe."""
    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    dss = Dss(code124, f=2, beta=1, seed=0)
    report = privacy_audit(3, dss, {"setup": setup}, collusion_sets=[],
                           mode="exact", control_sets=[(3, 5, 8)])
    assert report.outcomes == [] and report.passed
    [control] = report.controls
    assert control.collusion == (3, 5, 8) and control.flagged
    assert control.identical is False and control.p_value is None
    assert control.position == "subquery 0 stripe 0"


def test_exact_audit_names_the_first_leak(good532):
    """With the repetition query code, V_S is spanned by the all-ones vector
    on S, so S leaks in (subquery i, stripe t) iff only part of S leaks stripe
    t there. In the [5,3] structure node 0 leaks stripes 0, 1 in subqueries 0,
    1, node 1 stripes 0, 1 in subqueries 1, 2 and node 2 stripes 0, 1 in
    subqueries 0, 2: (0, 1) leaks first at (0, 0) and last at (2, 1), (0, 2)
    only at (1, 1) and (2, 1), and (3, 4) nowhere."""
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    report = privacy_audit(2, Dss(good532, f=2, beta=2, seed=0),
                           {"structure": s5}, mode="exact",
                           collusion_sets=[(0, 1), (0, 2), (3, 4)])
    assert [(o.position, o.flagged) for o in report.outcomes] == [
        ("subquery 0 stripe 0", True), ("subquery 1 stripe 1", True),
        ("joint-subqueries", False)]


def _exact_outcomes(protocol, setup, f, sets):
    dss = Dss(setup.code, f=f, beta=setup.beta, seed=0)
    key = "structure" if protocol == 2 else "setup"
    return privacy_audit(protocol, dss, {key: setup}, collusion_sets=sets,
                         mode="exact").outcomes


def test_exact_audit_matches_enumeration(good532, code73, code124):
    """The linear-algebra decision agrees with enumerating every codeword
    batch on all 433 sets of at most min(T+1, 3) nodes of the four worked
    setups; no legal set leaks, and 9 of the 220 size-3 sets of [12,4] do."""
    cases = {"p2 [5,3]": (2, p2_build_structure(good532, ISETS_EX5, EHAT_EX5)),
             "p2 [7,3]": (2, p2_build_structure(code73, ISETS_EX6, EHAT_EX6)),
             "p3 [12,4]": (3, p3_setup(code124, code124, EHAT_P3, ISETS_P3)),
             "RM(1,1,3)": (3, p3_rm_max_rate(1, 1, 3))}
    checked = 0
    for name, (protocol, setup) in cases.items():
        T, n = setup.collusion_threshold, setup.code.n
        sets = [tset for size in range(1, min(T + 1, 3) + 1)
                for tset in itertools.combinations(range(n), size)]
        outcomes = _exact_outcomes(protocol, setup, 2, sets)
        assert [o.identical for o in outcomes] == p23_exact_reference(
            setup, 2, sets), name
        assert not any(o.flagged for o in outcomes if len(o.collusion) <= T)
        if name == "p3 [12,4]":
            leaks = [o.collusion for o in outcomes if o.flagged]
            assert len(leaks) == 9 and (3, 5, 8) in leaks
            assert all(len(tset) == 3 for tset in leaks)
        checked += len(sets)
    assert checked == 433


@st.composite
def optimized_setups(draw):
    """A query code and a storage code of one length over GF(2) or GF(3),
    and the structure `optimize_rate` finds for the pair."""
    fields = [draw(st.sampled_from([(2, 1), (3, 1)]))]
    query = draw(codes(fields, max_messages=9, max_n=6))
    storage = draw(codes(fields, n=query.n))
    zero = [j for j, col in enumerate(zip(*query.G.data)) if not any(col)]
    if zero:
        # a query code zero at some position (T = 0) is refused; the draw goes
        # on with those positions set in its first row, since skipping it
        # would discard most draws. A query code of full support has a
        # nonzero product with the storage code.
        with pytest.raises(StructureViolation):
            optimize_rate(storage, query)
        rows = [list(row) for row in query.G.data]
        for j in zero:
            rows[0][j] = 1
        query = LinearCode.from_generator(Matrix(query.field, rows))
    try:
        e_opt, _ = optimize_rate(storage, query)
    except RateOneProduct:
        e_opt = None
    assume(e_opt is not None)
    return p3_setup(storage, query, e_opt.ehat, e_opt.info_sets())


@settings(derandomize=True, max_examples=20, deadline=None)
@given(optimized_setups())
def test_exact_audit_matches_enumeration_on_random_codes(setup):
    """On random small query codes and the optimizer's structures, the
    decision agrees with the enumeration on every set of at most T+1 nodes
    (so leaking sets are included) and finds no leaking set of at most T."""
    q, kq = setup.query_code.field.order, setup.query_code.k
    assume((q ** kq) ** (2 * setup.beta) <= 1 << 10)
    T, n = setup.collusion_threshold, setup.code.n
    sets = [tset for size in range(1, min(T + 1, n) + 1)
            for tset in itertools.combinations(range(n), size)]
    outcomes = _exact_outcomes(3, setup, 2, sets)
    assert [o.identical for o in outcomes] == p23_exact_reference(setup, 2, sets)
    assert not any(o.flagged for o in outcomes if len(o.collusion) <= T)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(optimized_setups(), st.sampled_from([1, 2, 3]), st.integers(0, 2**16))
def test_p3_roundtrip_on_random_query_codes(setup, ell, seed):
    """Full protocol-3 pipeline on random query codes and the optimizer's
    structures: every file index decodes through the product code, with
    GF(q^ell) payloads up to ell = 3."""
    dss = Dss(setup.code, f=2, beta=setup.beta, ell=ell, seed=seed)
    for m in (1, 2):
        tx = run(3, dss, {"setup": setup, "m": m, "seed": seed})
        assert tx.decoded_hash == dss.file_hash(m)
        assert tx.rate == setup.rate


def test_exact_audit_decides_many_files(code73):
    """The decision does not depend on f: p2 [7,3] at f = 5 (an enumeration
    of 2^20 codeword batches per subquery) passes on its 7 single spies."""
    s6 = p2_build_structure(code73, ISETS_EX6, EHAT_EX6)
    dss = Dss(code73, f=5, beta=4, seed=0)
    report = privacy_audit(2, dss, {"structure": s6}, mode="exact")
    assert [o.collusion for o in report.outcomes] == [(l,) for l in range(7)]
    assert report.passed and all(o.identical for o in report.outcomes)


def _repetition_over_single_parity(n):
    """Protocol-3 setup of the [n,1] repetition storage code with the
    [n,n-1] single-parity query code: T = n - 1, so 2^n - 2 legal sets."""
    f2 = field_make(2)
    storage = repetition_code(f2, n)
    query = LinearCode.from_parity_check(Matrix(f2, [[1] * n]))
    e_opt, _ = optimize_rate(storage, query)
    return p3_setup(storage, query, e_opt.ehat, e_opt.info_sets())


def test_audit_bounds_its_set_count(monkeypatch):
    """Auditing every legal set counts them first and raises TooLarge, before
    building any, when there are more than SET_LIMIT; below it, the exact
    audit decides every set."""
    setup = _repetition_over_single_parity(8)
    assert setup.collusion_threshold == 7
    outcomes = _exact_outcomes(3, setup, 2, None)
    assert len(outcomes) == 2 ** 8 - 2 and not any(o.flagged for o in outcomes)

    def no_sets(*args):
        raise AssertionError("the audit built sets past its set bound")
    monkeypatch.setattr(audit, "combinations", no_sets)
    n = next(n for n in itertools.count(2) if 2 ** n - 2 > SET_LIMIT)
    setup = _repetition_over_single_parity(n)
    assert setup.collusion_threshold == n - 1
    dss = Dss(setup.code, f=2, beta=setup.beta, seed=0)
    for mode in ("exact", "statistical"):
        with pytest.raises(TooLarge):
            privacy_audit(3, dss, {"setup": setup}, mode=mode, trials=10)
    # named sets are not counted against the bound
    assert privacy_audit(3, dss, {"setup": setup}, collusion_sets=[(0, 1)],
                         mode="exact").passed


def test_audit_rejects_unknown_mode_and_exact_p1(good532):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=0)
    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=2, beta=25, seed=0)
    for mode in ("exakt", "Exact", ""):
        with pytest.raises(BadParams, match="mode"):
            privacy_audit(2, dss, {"structure": s5}, trials=10, mode=mode)
        with pytest.raises(BadParams, match="mode"):
            privacy_audit(1, dss1, {"lam": lam}, trials=10, mode=mode)
    with pytest.raises(BadParams, match="protocol 1"):
        privacy_audit(1, dss1, {"lam": lam}, trials=10, mode="exact")


def test_p1_audit_refuses_control_sets(good532):
    """Protocol 1's audit has no control sets: it refuses them, where it
    returned a report with no controls and no note."""
    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=2, beta=25, seed=0)
    with pytest.raises(BadParams, match="protocol 1 .* no control sets"):
        privacy_audit(1, dss1, {"lam": lam}, control_sets=[(0,), (1, 2)])
    assert privacy_audit(1, dss1, {"lam": lam}, trials=10, control_sets=[]).controls == []


def test_audit_rejects_bad_sets_and_trials(good532):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=0)
    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=2, beta=25, seed=0)
    for sets in ([()], [(5,)], [(-1,)], [(0, 7)]):
        with pytest.raises(BadParams):
            privacy_audit(2, dss, {"structure": s5}, collusion_sets=sets,
                          mode="exact")
        with pytest.raises(BadParams):
            privacy_audit(1, dss1, {"lam": lam}, collusion_sets=sets, trials=10)
    with pytest.raises(BadParams):
        privacy_audit(2, dss, {"structure": s5}, mode="exact",
                      control_sets=[(5,)])
    for trials in (0, -3):
        with pytest.raises(BadParams):
            privacy_audit(2, dss, {"structure": s5}, trials=trials)
        with pytest.raises(BadParams):
            privacy_audit(1, dss1, {"lam": lam}, trials=trials)
    # exact mode draws nothing and reads no trial count
    assert privacy_audit(2, dss, {"structure": s5}, trials=0, mode="exact").passed


def test_audit_bounds_its_sample_array(good532, code73, code124, monkeypatch):
    """A statistical audit samples f*T*n*d*beta*f symbols (protocols 2 and 3)
    or f*T*n*d (protocol 1) and raises TooLarge, before it draws a trial,
    when that exceeds SAMPLE_LIMIT. The criterion-9 audits at 10,000 trials
    fit."""
    def no_draw(*args):
        raise AssertionError("the audit drew trials past its sample bound")
    monkeypatch.setattr(audit, "generator", no_draw)
    monkeypatch.setattr(audit, "derive_seed", no_draw)

    f = 2
    for protocol, key, s in [
            (2, "structure", p2_build_structure(good532, ISETS_EX5, EHAT_EX5)),
            (2, "structure", p2_build_structure(code73, ISETS_EX6, EHAT_EX6)),
            (3, "setup", p3_setup(code124, code124, EHAT_P3, ISETS_P3)),
            (3, "setup", p3_rm_max_rate(1, 1, 3))]:
        per_trial = f * s.code.n * s.d * s.beta * f
        assert 10_000 * per_trial <= SAMPLE_LIMIT
        dss = Dss(s.code, f=f, beta=s.beta, seed=0)
        with pytest.raises(TooLarge):
            privacy_audit(protocol, dss, {key: s},
                          trials=SAMPLE_LIMIT // per_trial + 1)

    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=f, beta=25, seed=0)
    per_trial = f * good532.n * 24  # d = 24 requests per node
    assert 10_000 * per_trial <= SAMPLE_LIMIT
    with pytest.raises(TooLarge):
        privacy_audit(1, dss1, {"lam": lam}, trials=SAMPLE_LIMIT // per_trial + 1)


def test_statistical_audits_quick(good532, code124):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=2, beta=2, seed=0)
    rep2 = privacy_audit(2, dss, {"structure": s5}, trials=1500, seed=3)
    assert rep2.passed

    lam = rate_matrix(good532, LAM35)
    dss1 = Dss(good532, f=2, beta=25, seed=0)
    rep1 = privacy_audit(1, dss1, {"lam": lam},
                         collusion_sets=[(0,), (4,)], trials=600, seed=3)
    assert rep1.passed

    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    dss3 = Dss(code124, f=2, beta=1, seed=0)
    rep3 = privacy_audit(3, dss3, {"setup": setup},
                         collusion_sets=[(1,), (8, 11)], trials=1500, seed=3)
    assert rep3.passed


@pytest.mark.parametrize("seed", [0, 405])
def test_p1_audit_matches_reference(good532, seed):
    """The protocol-1 audit, which labels the shared schedule once, gives the
    positions, flags and p-values of per-trial, per-atom labelling."""
    lam = rate_matrix(good532, LAM35)
    dss = Dss(good532, f=2, beta=25, seed=seed)
    trials = 200
    report = privacy_audit(1, dss, {"lam": lam}, trials=trials, seed=seed)
    samples, vmax = p1_audit_samples_reference(dss, lam, trials, seed)
    _, _, n, d = samples.shape
    expected = []
    for j in range(n):
        for pos in range(d):
            counts = np.array([np.bincount(samples[g, :, j, pos], minlength=vmax)
                               for g in range(dss.f)])
            expected.append(((j,), f"position {pos}", _homogeneity_p(counts)))
    assert report.threshold == 0.01 / (n * d)
    assert [(o.collusion, o.position) for o in report.outcomes] == [
        (tset, pos) for tset, pos, _ in expected]
    assert [o.flagged for o in report.outcomes] == [
        p <= report.threshold for _, _, p in expected]
    assert [o.p_value for o in report.outcomes] == pytest.approx(
        [p for _, _, p in expected], rel=1e-12)


@pytest.mark.parametrize("protocol", [2, 3])
def test_p23_audit_matches_reference(good532, code124, protocol):
    """The protocol-2/3 audit gives the positions, p-values and flags of the
    per-(subquery, column) loop over scalar queries built from its draw."""
    if protocol == 2:
        setup = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
        dss = Dss(good532, f=2, beta=2, seed=0)
        config, controls = {"structure": setup}, [(0, 1)]
    else:
        setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        dss = Dss(code124, f=2, beta=1, seed=0)
        config, controls = {"setup": setup}, [(3, 5, 8)]
    trials, seed = 150, 5
    report = privacy_audit(protocol, dss, config, trials=trials, seed=seed,
                           control_sets=controls)
    q, kq = dss.code.field.order, setup.query_code.k
    d, bf = setup.d, setup.beta * dss.f
    # the audit's draw: one generator per file index, trial-major
    tensors = []
    for m in range(1, dss.f + 1):
        msgs = generator(seed, "audit", protocol, m).integers(
            0, q, size=(trials, d, bf, kq))
        tensors.append(np.array([query_reference(setup, dss.f, m, msgs[t].tolist())
                                 for t in range(trials)]))
    legal = [(l,) for l in range(dss.code.n)]
    if setup.collusion_threshold == 2:
        legal += list(itertools.combinations(range(dss.code.n), 2))
    assert report.threshold == 0.01 / (len(legal) * d * bf)
    assert [(o.collusion, o.position, o.p_value, o.flagged)
            for o in report.outcomes] == p23_audit_outcomes_reference(
                tensors, q, legal, report.threshold)
    assert [(o.collusion, o.position, o.p_value, o.flagged)
            for o in report.controls] == p23_audit_outcomes_reference(
                tensors, q, controls, report.threshold)


# how a sampled position is drawn: iid uniform; one value at every node; file
# index 1 never showing the value base - 1; file index 1 seeing 0 at every node
# in its first half of trials
POSITION_MODES = ["uniform", "one value", "unseen", "skewed"]


@st.composite
def homogeneity_cases(draw):
    """(samples, base, sets, chunk): samples[g, t, l, pos] over 2-4 file
    indices and 4-6 nodes, collusion sets of 1-3 nodes in any order with
    repeats (every pair of nodes among them), and a counting block size: the
    audit's own, or one small enough to split a size group across blocks and
    a set's positions across blocks."""
    f, base, n = draw(st.integers(2, 4)), draw(st.integers(2, 5)), draw(st.integers(4, 6))
    trials = draw(st.integers(1, 30))
    modes = draw(st.lists(st.sampled_from(POSITION_MODES), min_size=1, max_size=4))
    by_size = {s: list(itertools.combinations(range(n), s)) for s in (1, 2, 3)}
    extra = draw(st.lists(st.sampled_from(by_size[1] + by_size[2] + by_size[3]),
                          max_size=6))
    sets = draw(st.permutations(by_size[2] + extra + [
        draw(st.sampled_from(by_size[1])), draw(st.sampled_from(by_size[3]))]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = rng.integers(0, base, size=(f, trials, n, len(modes)))
    for pos, mode in enumerate(modes):
        if mode == "one value":
            samples[..., pos] = rng.integers(base)
        elif mode == "unseen":
            samples[0, :, :, pos] %= base - 1
        elif mode == "skewed":
            samples[0, :(trials + 1) // 2, :, pos] = 0
    chunk = draw(st.one_of(st.just(audit.MATMUL_CHUNK), st.integers(1, 400)))
    return samples, base, sets, chunk


@settings(derandomize=True, max_examples=60, deadline=None)
@given(homogeneity_cases())
def test_batched_homogeneity_matches_scalar_tests(case):
    """Every (set, position) test of a batched count gives, in order, the
    p-value (bit for bit) and flag of one scalar chi-square test on that set's
    joint-symbol histograms, whatever the counting block size."""
    samples, base, sets, chunk = case
    names = [f"subquery 0 col {pos}" for pos in range(samples.shape[3])]
    sink = []
    with mock.patch.object(audit, "MATMUL_CHUNK", chunk), \
            mock.patch.object(audit.np, "bincount", wraps=np.bincount) as count:
        audit._homogeneity_outcomes(samples, base, sets, 0.01, names, sink)
    # each count's keys and bins fit in the block size, but for a lone test,
    # whose files x trials keys or files x joint-values table may be larger
    f, trials = samples.shape[:2]
    tables = {f * base ** len(tset) for tset in sets}
    for (keys,), kwargs in count.call_args_list:
        assert keys.size <= max(chunk, f * trials)
        assert kwargs["minlength"] <= chunk or kwargs["minlength"] in tables
    assert all(o.identical is None for o in sink)
    assert [(o.collusion, o.position, o.p_value, o.flagged) for o in sink] == \
        p23_audit_outcomes_reference(list(samples[:, :, :, None, :]), base, sets, 0.01)


def test_p1_audit_reports_skipped_sets_as_notes(good532):
    """A colluding set given to the protocol-1 audit is skipped with a note,
    not reported as a flagged structural violation."""
    lam = rate_matrix(good532, LAM35)
    dss = Dss(good532, f=2, beta=25, seed=0)
    report = privacy_audit(1, dss, {"lam": lam}, collusion_sets=[(0,), (1, 2)],
                           trials=50, seed=1)
    assert report.notes == ["skipping non-singleton set (1, 2): the "
                            "noncolluding protocol defends single spies"]
    assert report.outcomes and all(o.collusion == (0,) for o in report.outcomes)
    # only the audited set counts in the Bonferroni correction: 24 positions
    assert len(report.outcomes) == 24 and report.threshold == 0.01 / 24
    assert report.passed


def test_p1_audit_flags_repeated_rows_at_four_files(good532, monkeypatch):
    """At f = 4 protocol 1 asks no node twice for one (file, row) and the
    audit passes. With a schedule that does (a repeated sum patched into the
    symmetry audit), it fails through the structural notes naming the node,
    file and row, whatever its sampled positions read."""
    lam = rate_matrix(good532, LAM35)
    dss = Dss(good532, f=4, beta=625)
    report = privacy_audit(1, dss, {"lam": lam}, trials=200)
    assert report.passed and not report.notes
    assert all(o.collusion != () for o in report.outcomes)
    monkeypatch.setattr(audit, "p1_symmetry_audit", p1_symmetry_audit_with_repeat)
    report = privacy_audit(1, dss, {"lam": lam}, trials=50)
    assert not report.passed
    structural = [o.position for o in report.outcomes if o.collusion == ()]
    assert structural and all(o.flagged for o in report.outcomes if o.collusion == ())
    assert any(re.fullmatch(r"structural: m=1: node 0: file 2 row \d+ requested 2 "
                            r"times \(\d+ rows of file 2 requested more than once\)", p)
               for p in structural), structural[:3]


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for dof in range(1, 401):
        xs = sorted({0.001, 0.5, 1.0, 3.0, 10.0, 100.0, 600.0, 1300.0,
                     *(dof * r for r in (0.01, 0.2, 0.5, 0.9, 1.0, 1.1, 1.5,
                                         2.0, 3.0))})
        for x, want in zip(xs, stats.chi2.sf(xs, dof)):
            if want < 1e-290:  # near the subnormal range, precision runs out
                continue
            assert chi2_sf(x, dof) == pytest.approx(want, rel=1e-9, abs=0), (x, dof)
    assert chi2_sf(0.0, 3) == 1.0


def test_audit_requires_two_files(good532):
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=1, beta=2, seed=0)
    with pytest.raises(BadParams):
        privacy_audit(2, dss, {"structure": s5})


def test_run_p2_on_locality_structure():
    """End-to-end run on the [12,8] locality code's constructed structure:
    the rate equals the asymptotic capacity 1/3."""
    from codedpir.families import pyramid_code
    from codedpir.fields import field_make
    from codedpir.ratematrix import capacity_asymptotic, lrc_E_matrix
    code, params = pyramid_code(field_make(13), r=4, delta=2, Lc=2, a=2)
    em = lrc_E_matrix(params, code)
    structure = p2_build_structure(code, em.info_sets(), em.ehat)
    dss = Dss(code, f=2, beta=structure.beta, seed=2)
    tx = run(2, dss, {"structure": structure, "m": 2, "seed": 2})
    assert tx.rate == capacity_asymptotic(12, 8) == Fraction(1, 3)


def test_p3_setup_json(code124):
    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    obj = setup.to_json_dict()
    assert obj["T"] == 2 and obj["info_sets"] == [[1, 2, 8, 11]]
    assert json.dumps(obj)


def test_decoders_reject_incomplete_responses(good532, code124):
    from codedpir.errors import DecodeFailure
    from codedpir.protocol2 import p2_decode, p2_queries, p2_respond
    from codedpir.protocol3 import p3_decode, p3_queries, p3_respond
    s5 = p2_build_structure(good532, ISETS_EX5, EHAT_EX5)
    dss = Dss(good532, f=1, beta=2, seed=0)
    responses = p2_respond(dss, p2_queries(s5, 1, 1, 0))
    with pytest.raises(DecodeFailure):
        p2_decode(s5, responses[:-1], 1, 1, dss.msg_field)
    setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
    dss3 = Dss(code124, f=1, beta=1, seed=0)
    responses3 = p3_respond(dss3, p3_queries(setup, 1, 1, 0))
    with pytest.raises(DecodeFailure):
        p3_decode(setup, [r[:-1] for r in responses3], 1, 1, dss3.msg_field)
    # queries built for two files do not fit a one-file store
    with pytest.raises(DimensionMismatch):
        p3_respond(dss3, p3_queries(setup, 2, 1, 0))


@pytest.mark.parametrize("ell,bad", [(1, 99), (1, -1), (1, 2), (4, 16), (4, 99), (4, -1)])
@pytest.mark.parametrize("protocol", [1, 3])
def test_decoders_refuse_symbols_outside_the_field(good532, code124, protocol, ell, bad):
    """A response that is not an element of GF(2^ell) is refused with
    DecodeFailure naming the first node that sent one, never an IndexError
    or a file decoded from a wrapped or truncated symbol; so is a response
    array that is not integer."""
    from codedpir.errors import DecodeFailure
    from codedpir.protocol1 import p1_answer, p1_decode, p1_plan
    from codedpir.protocol3 import p3_decode, p3_queries, p3_respond
    if protocol == 1:
        dss = Dss(good532, f=2, beta=25, ell=ell, seed=2)
        plan = p1_plan(good532, rate_matrix(good532, LAM35), 2, 1, 2)
        responses = p1_answer(dss, plan.queries())
        decode = lambda rho: p1_decode(plan, rho, dss.msg_field)  # noqa: E731
    else:
        setup = p3_setup(code124, code124, EHAT_P3, ISETS_P3)
        dss = Dss(code124, f=2, beta=setup.beta, ell=ell, seed=2)
        responses = p3_respond(dss, p3_queries(setup, 2, 1, 2))
        decode = lambda rho: p3_decode(setup, rho, 2, 1, dss.msg_field)  # noqa: E731
    assert np.array_equal(decode(responses), dss.files[0])
    order = 2 ** ell
    for node in (1, len(responses) - 1):
        rho = responses.copy()
        rho[node, -1] = bad
        rho[-1, 0] = bad
        with pytest.raises(DecodeFailure, match=rf"^node {node}: response {bad} is not an "
                           rf"element of GF\(2(\^{ell})?\) \(0..{order - 1}\)$"):
            decode(rho)
        with pytest.raises(DecodeFailure, match=rf"^node {node}: "):
            decode([list(row) for row in rho])
    with pytest.raises(DecodeFailure, match="not a float64 array"):
        decode(responses.astype(float))
    with pytest.raises(DecodeFailure, match="not a float64 array"):
        decode(responses + 0.5)
