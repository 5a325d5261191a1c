import json

import pytest

from codedpir.cli import main


@pytest.fixture()
def good_spec(tmp_path):
    spec = {"family": "raw", "q": 2,
            "generator": [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]}
    path = tmp_path / "good.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_capacity(capsys):
    assert main(["capacity", "--n", "5", "--k", "3", "--f", "2"]) == 0
    assert "5/8" in capsys.readouterr().out
    assert main(["capacity", "--n", "5", "--k", "3"]) == 0
    assert "2/5" in capsys.readouterr().out


def test_code_info_and_ghw(good_spec, capsys):
    assert main(["code", "info", good_spec]) == 0
    out = capsys.readouterr().out
    assert "[5,3] code over GF(2)" in out and "d_min: 2" in out
    assert main(["code", "ghw", good_spec, "--s", "2"]) == 0
    assert "d_2 = 4" in capsys.readouterr().out


def test_matrix_find_modes(good_spec, tmp_path, capsys):
    assert main(["matrix", "find", good_spec]) == 0
    lam = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert lam["kind"] == "lambda"
    perms = [[(j + i) % 5 for j in range(5)] for i in range(5)]
    perms_path = tmp_path / "perms.json"
    perms_path.write_text(json.dumps(perms))
    # the cyclic shift is not an automorphism of this code: expect an error
    assert main(["matrix", "find", good_spec,
                 "--automorphisms", str(perms_path)]) == 1


def test_automorphism_entries_must_be_integers(good_spec, tmp_path, capsys):
    """A permutation entry 0.0 passed the permutation check as 0 and ended
    in a numpy IndexError traceback; it is an error now."""
    perms = [[(j + i) % 5 for j in range(5)] for i in range(5)]
    perms[0][0] = 0.0
    perms_path = tmp_path / "perms.json"
    perms_path.write_text(json.dumps(perms))
    assert main(["matrix", "find", good_spec, "--automorphisms", str(perms_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("perms", [5, None, {"0": [0, 1, 2, 3, 4]}, "01234"])
def test_automorphisms_must_be_a_list_of_permutations(perms, tmp_path, capsys):
    """A JSON number ended in a TypeError traceback from len(); any JSON value
    that is not a list of permutations is an error."""
    from codedpir.reports import fixtures_dir
    perms_path = tmp_path / "perms.json"
    perms_path.write_text(json.dumps(perms))
    assert main(["matrix", "find", str(fixtures_dir() / "c1.json"),
                 "--automorphisms", str(perms_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_matrix_find_lrc(tmp_path, capsys):
    spec = {"family": "lrc", "q": 8, "r": 2, "delta": 2, "Lc": 2, "n": 7,
            "k": 4, "P": [[[3, 1]], [[3, 2]]], "M": [[[6, 1]], [[7, 7]]]}
    path = tmp_path / "pyr.json"
    path.write_text(json.dumps(spec))
    assert main(["matrix", "find", str(path), "--lrc"]) == 0
    lam = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert lam["kappa"] == 4 and lam["nu"] == 7


def test_optimize(good_spec, capsys):
    assert main(["optimize", good_spec]) == 0
    out = capsys.readouterr()
    e = json.loads(out.out.strip())
    assert e["kind"] == "E" and "Gamma = 2" in out.err


def test_optimize_rejects_negative_budgets(tmp_path, capsys):
    # the [7,3] code reaches Gamma = 4 with the default budgets
    spec = {"family": "raw", "q": 2, "generator": [[1, 0, 0, 0, 1, 1, 1],
                                                   [0, 1, 0, 1, 0, 1, 1],
                                                   [0, 0, 1, 1, 1, 0, 1]]}
    path = tmp_path / "c73.json"
    path.write_text(json.dumps(spec))
    assert main(["optimize", str(path)]) == 0
    assert "Gamma = 4" in capsys.readouterr().err
    for budgets in (["--sample-budget", "-1", "--budget", "-5"],
                    ["--budget", "-1"], ["--sample-budget", "-1"]):
        assert main(["optimize", str(path)] + budgets) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: budgets must be >= 0"), budgets


def test_simulate_p2_transcript(good_spec, tmp_path, capsys):
    tx_path = tmp_path / "tx.json"
    assert main(["simulate", "p2", "--code", good_spec, "--files", "2",
                 "--request", "1", "--seed", "9",
                 "--transcript", str(tx_path)]) == 0
    out = capsys.readouterr().out
    assert "rate 2/5" in out
    tx = json.loads(tx_path.read_text())
    assert tx["protocol"] == "p2" and tx["rate"] == [2, 5]


def test_simulate_p1_and_p3(good_spec, tmp_path, capsys):
    assert main(["simulate", "p1", "--code", good_spec, "--files", "2",
                 "--request", "2", "--seed", "1"]) == 0
    assert "rate 5/8" in capsys.readouterr().out
    rm_spec = tmp_path / "rm.json"
    rm_spec.write_text(json.dumps({"family": "reed-muller", "v": 1, "m": 3}))
    assert main(["simulate", "p3", "--code", str(rm_spec), "--query-code",
                 str(rm_spec), "--files", "1", "--request", "1",
                 "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "collusion threshold T = 3" in out and "rate 1/8" in out


def test_audit_privacy_cli(good_spec, capsys):
    assert main(["audit-privacy", "--protocol", "2", "--code", good_spec,
                 "--collude", "1", "--trials", "400", "--seed", "3"]) == 0
    assert "0 flagged" in capsys.readouterr().out
    assert main(["audit-privacy", "--protocol", "2", "--code", good_spec,
                 "--exact", "--files", "2"]) == 0


def test_audit_privacy_protocol_1_fails_at_four_files(good_spec, capsys, monkeypatch):
    """Protocol 1 passes its audit at three and four files; at four files a
    schedule that asks one node twice for a row (patched into the symmetry
    audit) makes the audit exit 1 and print the repeat."""
    from codedpir import audit
    from conftest import p1_symmetry_audit_with_repeat
    argv = ["audit-privacy", "--protocol", "1", "--code", good_spec,
            "--trials", "50", "--seed", "1"]
    assert main(argv + ["--files", "3"]) == 0
    assert main(argv + ["--files", "4"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(audit, "p1_symmetry_audit", p1_symmetry_audit_with_repeat)
    assert main(argv + ["--files", "4"]) == 1
    out = capsys.readouterr().out
    assert "FLAGGED: collusion () structural: m=1: node 0: file 2 row" in out


def test_audit_privacy_rejects_exact_protocol_1(good_spec, capsys):
    """Protocol 1 has only the statistical audit: --exact is an error, not a
    statistical run."""
    assert main(["audit-privacy", "--protocol", "1", "--code", good_spec,
                 "--exact", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "protocol 1" in captured.err
    assert "mode statistical" not in captured.out


def test_audit_privacy_set_bound_exits_1(tmp_path, capsys, monkeypatch):
    """The [n,1] repetition storage code with the [n,n-1] single-parity query
    code has T = n - 1, so 2^n - 2 legal sets: past SET_LIMIT the audit of
    every legal set is an error, raised before any set is built."""
    from codedpir import audit

    def no_sets(*args):
        raise AssertionError("the audit built sets past its set bound")
    monkeypatch.setattr(audit, "combinations", no_sets)
    n = next(n for n in range(2, 64) if 2 ** n - 2 > audit.SET_LIMIT)
    parity = [[int(i == j or j == n - 1) for j in range(n)] for i in range(n - 1)]
    paths = []
    for name, generator in (("rep", [[1] * n]), ("parity", parity)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"family": "raw", "q": 2,
                                         "generator": generator}))
    for mode in (["--exact"], ["--trials", "10"]):
        assert main(["audit-privacy", "--protocol", "3", "--code", str(paths[0]),
                     "--query-code", str(paths[1]), "--seed", "1", *mode]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "collusion sets" in err


@pytest.mark.parametrize("protocol", ["1", "2"])
def test_audit_privacy_sample_bound_exits_1(good_spec, capsys, monkeypatch,
                                            protocol):
    """More trials than SAMPLE_LIMIT put every audit over its sample bound
    (each trial samples at least one symbol): an error, not an allocation."""
    from codedpir import audit

    def no_draw(*args):
        raise AssertionError("the audit drew trials past its sample bound")
    monkeypatch.setattr(audit, "generator", no_draw)
    monkeypatch.setattr(audit, "derive_seed", no_draw)
    assert main(["audit-privacy", "--protocol", protocol, "--code", good_spec,
                 "--trials", str(audit.SAMPLE_LIMIT + 1), "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "limit" in err


def test_report_tables_cli_subset(tmp_path, capsys):
    # restrict to a tiny fixture set for speed
    from codedpir.reports import fixtures_dir
    import shutil
    for name in ("c1", "c8"):
        shutil.copy(fixtures_dir() / f"{name}.json", tmp_path / f"{name}.json")
    (tmp_path / "index.json").write_text(json.dumps(
        {"table1": ["c1"], "table2": ["c8"], "table3": []}))
    assert main(["report", "tables", "--fixtures", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all rows match" in out


def test_simulate_extension_field(good_spec, capsys):
    assert main(["simulate", "p2", "--code", good_spec, "--files", "2",
                 "--request", "2", "--seed", "5", "--ell", "2"]) == 0
    assert "rate 2/5" in capsys.readouterr().out


def test_env_seed_override(good_spec, capsys, monkeypatch):
    monkeypatch.setenv("CODEDPIR_SEED", "0x123")
    assert main(["simulate", "p2", "--code", good_spec, "--files", "2",
                 "--request", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["simulate", "p2", "--code", good_spec, "--files", "2",
                 "--request", "1"]) == 0
    assert capsys.readouterr().out == out1  # same env seed, same transcript


def test_matrix_find_generic_alias(good_spec, capsys):
    assert main(["matrix", "find", good_spec, "--generic"]) == 0
    first = capsys.readouterr().out
    assert main(["matrix", "find", good_spec, "--lemma4"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("argv", [
    ["simulate", "p2", "--files", "2", "--request", "1", "--seed", "1"],
    ["simulate", "p3", "--files", "2", "--request", "1", "--seed", "1"],
    ["audit-privacy", "--protocol", "2", "--trials", "10", "--seed", "1"],
    ["audit-privacy", "--protocol", "3", "--trials", "10", "--seed", "1"],
])
def test_rate_one_code_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    # k = n: no erasure is correctable, so no structure matrix exists
    spec = {"family": "raw", "q": 2,
            "generator": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    path = tmp_path / "k3n3.json"
    path.write_text(json.dumps(spec))
    assert main(argv + ["--code", str(path), "--query-code", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "p3", "--files", "2", "--request", "1"],
    ["audit-privacy", "--protocol", "3", "--trials", "10"],
    ["audit-privacy", "--protocol", "3", "--exact"],
])
def test_query_code_zero_at_a_position_exits_1(tmp_path, capsys, argv):
    """T = 0: node 4 would see its bare offsets, so there is nothing to run
    or audit."""
    from conftest import QUERY_T0, STORAGE_T0
    paths = []
    for name, generator in (("storage", STORAGE_T0), ("query", QUERY_T0)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({"family": "raw", "q": 2,
                                         "generator": generator}))
    assert main(argv + ["--code", str(paths[0]), "--query-code", str(paths[1]),
                        "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positions [4]" in err


@pytest.mark.parametrize("extra", [
    ["--collude", "0"],      # 1-based: there is no node 0
    ["--collude", "6,1"],    # the [5,3] code has five nodes
    ["--collude", "x"],
    ["--trials", "0"],
    ["--trials", "-3"],
])
def test_audit_privacy_rejects_bad_input(capsys, extra):
    from codedpir.reports import fixtures_dir
    argv = ["audit-privacy", "--protocol", "1", "--code",
            str(fixtures_dir() / "c1.json"), "--seed", "1", "--trials", "50"]
    assert main(argv + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["capacity", "--n", "0", "--k", "0"],
    ["capacity", "--n", "0", "--k", "0", "--f", "2"],
    ["capacity", "--n", "4", "--k", "-1"],
    ["capacity", "--n", "4", "--k", "-1", "--f", "2"],
])
def test_capacity_rejects_bad_sizes(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unreadable_json_is_an_error(good_spec, tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"family": "raw", "q": 2, "gener')
    missing = str(tmp_path / "missing.json")
    for argv in (["code", "info", missing], ["code", "info", str(truncated)],
                 ["simulate", "p2", "--code", missing, "--files", "2",
                  "--request", "1"],
                 ["matrix", "find", good_spec, "--automorphisms", missing],
                 ["matrix", "find", good_spec, "--automorphisms", str(truncated)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: cannot read JSON"), argv


@pytest.mark.parametrize("argv", [
    # nu = 5 for the optimizer's structure on c1: 5^9 stripes per file
    ["simulate", "p1", "--files", "9", "--request", "1"],
    # lambda_generic gives nu = 4 on c1: 4^10 stripes per file
    ["audit-privacy", "--protocol", "1", "--files", "10"],
    # 4^9 stripes per file are under the guard, 9 files of them are not
    ["audit-privacy", "--protocol", "1", "--files", "9"],
])
def test_stripe_guard_precedes_storage(capsys, argv):
    from codedpir.reports import fixtures_dir
    assert main(argv + ["--code", str(fixtures_dir() / "c1.json"),
                        "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "memory guard" in err


@pytest.mark.parametrize("spec,message", [
    ({"family": "raw"}, "'raw' code spec has no field 'q'"),
    ([1, 2], "a code spec is a JSON object"),
    ({"family": "raw", "q": 2, "generator": "ab"},
     "'raw' code spec: bad field 'generator'"),
    ({"family": "grs", "q": 7, "n": 5, "k": "x"}, "'grs' code spec: bad field 'k'"),
    ({"family": "lrc", "q": 8, "r": 2}, "'lrc' code spec has no field 'delta'"),
    ({"family": "uuv"}, "'uuv' code spec has no field 'U'"),
])
def test_malformed_code_spec_is_an_error(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["code", "info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "Traceback" not in err
