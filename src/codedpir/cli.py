"""Command-line interface.

Subcommands: `code info/ghw`, `capacity`, `matrix find`, `optimize`,
`simulate p1|p2|p3`, `audit-privacy`, and `report tables`. Node and
coordinate indices on the CLI are 1-based; JSON files use 0-based indices
matching the library. Exit code 0 means every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .audit import privacy_audit
from .codes import LinearCode
from .dss import Dss, run
from .errors import BadParams, CodedPirError
from .families import code_from_spec
from .optimizer import EXHAUSTIVE_LIMIT, SAMPLE_BUDGET, optimize_rate
from .protocol2 import p2_build_structure
from .protocol3 import p3_setup
from .ratematrix import (E_to_lambda, capacity_asymptotic, capacity_finite,
                         lambda_from_automorphisms, lambda_generic,
                         lrc_E_matrix, rate_matrix)
from .reports import report_tables
from .rng import default_seed


def _load_json(path: str):
    """The JSON value in a file; BadParams when it cannot be read or parsed."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BadParams(f"cannot read JSON from {path}: {exc}") from exc


def _load_spec(path: str) -> dict:
    obj = _load_json(path)
    if "family" not in obj and "code" in obj:
        return obj["code"]  # accept packaged fixture files directly
    return obj


def _load_code(path: str) -> LinearCode:
    return code_from_spec(_load_spec(path))


def _no_structure() -> int:
    print("no structure matrix found", file=sys.stderr)
    return 1


def _optimized_setup(code: LinearCode, query: LinearCode | None, seed: int):
    """The optimizer's best protocol-2 (query None) or protocol-3 setup, or
    None when it finds no structure matrix."""
    e_opt, _ = optimize_rate(code, query, seed=seed)
    if e_opt is None:
        return None
    if query is None:
        return p2_build_structure(code, e_opt.info_sets(), e_opt.ehat)
    return p3_setup(code, query, e_opt.ehat, e_opt.info_sets())


def _rate_str(r: Fraction) -> str:
    return f"{r.numerator}/{r.denominator} = {float(r):.4f}"


def cmd_code_info(args) -> int:
    code = _load_code(args.spec)
    print(f"[{code.n},{code.k}] code over {code.field}")
    print(f"rate: {_rate_str(code.rate)}")
    try:
        print(f"d_min: {code.min_distance()}")
    except CodedPirError as exc:
        print(f"d_min: not computed ({exc})")
    print(f"information set: {[j + 1 for j in code.information_set()]}")
    print(f"asymptotic capacity reference: {_rate_str(capacity_asymptotic(code.n, code.k))}")
    return 0


def cmd_code_ghw(args) -> int:
    code = _load_code(args.spec)
    print(f"d_{args.s} = {code.generalized_hamming_weight(args.s)}")
    return 0


def cmd_capacity(args) -> int:
    if args.f is None:
        print(_rate_str(capacity_asymptotic(args.n, args.k)))
    else:
        print(_rate_str(capacity_finite(args.n, args.k, args.f)))
    return 0


def cmd_matrix_find(args) -> int:
    spec = _load_spec(args.spec)
    code = code_from_spec(spec)
    if args.lrc:
        if spec.get("family") != "lrc":
            print("--lrc requires an lrc code spec", file=sys.stderr)
            return 2
        em = lrc_E_matrix(code.meta["params"], code)
        lam = rate_matrix(code, E_to_lambda(em))
    elif args.automorphisms:
        perms = _load_json(args.automorphisms)
        lam = lambda_from_automorphisms(code, perms)
    else:
        lam = lambda_generic(code, seed=args.seed)
    print(json.dumps(lam.to_json_dict()))
    print(f"kappa/nu = {lam.kappa}/{lam.nu}"
          f" (k/n = {code.k}/{code.n})", file=sys.stderr)
    return 0


def cmd_optimize(args) -> int:
    code = _load_code(args.spec)
    query = None
    if args.colluding:
        if not args.query_code:
            print("--colluding requires --query-code", file=sys.stderr)
            return 2
        query = _load_code(args.query_code)
    e_opt, gamma = optimize_rate(code, query, seed=args.seed, budget=args.budget,
                                 sample_budget=args.sample_budget)
    if e_opt is None:
        return _no_structure()
    print(json.dumps(e_opt.to_json_dict()))
    print(f"Gamma = {gamma}, rate = {_rate_str(Fraction(gamma, code.n))}",
          file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    code = _load_code(args.code)
    seed = args.seed if args.seed is not None else default_seed()
    f, m = args.files, args.request
    if args.protocol == "p1":
        e_opt, _ = optimize_rate(code, seed=seed)
        if e_opt is not None:
            lam = rate_matrix(code, E_to_lambda(e_opt))
        else:
            lam = lambda_generic(code, seed=seed)
        dss = Dss(code, f=f, beta=lam.nu ** f, ell=args.ell, seed=seed)
        tx = run(1, dss, {"lam": lam, "m": m, "seed": seed})
    else:
        protocol = int(args.protocol[1])
        query = None
        if protocol == 3:
            if not args.query_code:
                print("p3 requires --query-code", file=sys.stderr)
                return 2
            query = _load_code(args.query_code)
        setup = _optimized_setup(code, query, seed)
        if setup is None:
            return _no_structure()
        dss = Dss(code, f=f, beta=setup.beta, ell=args.ell, seed=seed)
        key = "structure" if protocol == 2 else "setup"
        tx = run(protocol, dss, {key: setup, "m": m, "seed": seed})
        if protocol == 3:
            print(f"collusion threshold T = {setup.collusion_threshold}")
    print(f"recovered file {m} exactly; downloaded {tx.downloaded} symbols; "
          f"rate {_rate_str(tx.rate)}")
    if args.transcript:
        Path(args.transcript).write_text(
            json.dumps(tx.to_json_dict(include_user=not args.node_view)) + "\n")
        print(f"transcript written to {args.transcript}")
    return 0


def cmd_audit_privacy(args) -> int:
    code = _load_code(args.code)
    seed = args.seed if args.seed is not None else default_seed()
    collusion = None
    if args.collude:
        try:
            collusion = [tuple(int(x) - 1 for x in args.collude.split(","))]
        except ValueError:
            raise BadParams(f"--collude takes 1-based node numbers such as "
                            f"\"9,12\"; got {args.collude!r}") from None
    f = args.files
    mode = "exact" if args.exact else "statistical"
    if args.protocol == 1:
        lam = lambda_generic(code, seed=seed)
        dss = Dss(code, f=f, beta=lam.nu ** f, seed=seed)
        report = privacy_audit(1, dss, {"lam": lam}, collusion_sets=collusion,
                               trials=args.trials, seed=seed, mode=mode)
    else:
        query = None
        if args.protocol == 3:
            if not args.query_code:
                print("protocol 3 requires --query-code", file=sys.stderr)
                return 2
            query = _load_code(args.query_code)
        setup = _optimized_setup(code, query, seed)
        if setup is None:
            return _no_structure()
        dss = Dss(code, f=f, beta=setup.beta, seed=seed)
        key = "structure" if args.protocol == 2 else "setup"
        report = privacy_audit(args.protocol, dss, {key: setup},
                               collusion_sets=collusion, trials=args.trials,
                               seed=seed, mode=mode)
    flagged = [o for o in report.outcomes if o.flagged]
    print(f"mode {report.mode}, {len(report.outcomes)} checks, "
          f"{len(flagged)} flagged")
    if report.mode == "statistical":
        worst = report.worst()
        if worst is not None:
            print(f"worst p-value {worst.p_value:.3g} at {worst.collusion} "
                  f"{worst.position} (threshold {report.threshold:.3g})")
    for o in flagged[:10]:
        print(f"FLAGGED: collusion {o.collusion} {o.position}")
    return 0 if report.passed else 1


def cmd_report_tables(args) -> int:
    rep = report_tables(directory=args.fixtures, seed=args.seed)
    print(rep.render())
    print("all rows match" if rep.passed else "MISMATCHES FOUND")
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codedpir",
                                description="private retrieval over linear "
                                            "storage codes: codes, rate "
                                            "structures, protocols, audits")
    sub = p.add_subparsers(dest="command", required=True)

    code_p = sub.add_parser("code", help="code-level queries")
    code_sub = code_p.add_subparsers(dest="code_command", required=True)
    info = code_sub.add_parser("info", help="parameters and minimum distance")
    info.add_argument("spec")
    info.set_defaults(func=cmd_code_info)
    ghw = code_sub.add_parser("ghw", help="generalized Hamming weight")
    ghw.add_argument("spec")
    ghw.add_argument("--s", type=int, required=True)
    ghw.set_defaults(func=cmd_code_ghw)

    cap = sub.add_parser("capacity", help="reference capacity values")
    cap.add_argument("--n", type=int, required=True)
    cap.add_argument("--k", type=int, required=True)
    cap.add_argument("--f", type=int)
    cap.set_defaults(func=cmd_capacity)

    mat = sub.add_parser("matrix", help="rate-matrix constructions")
    mat_sub = mat.add_subparsers(dest="matrix_command", required=True)
    find = mat_sub.add_parser("find", help="construct an achievable rate matrix")
    find.add_argument("spec")
    group = find.add_mutually_exclusive_group()
    group.add_argument("--generic", "--lemma4", action="store_true",
                       dest="generic",
                       help="generic floor construction (default)")
    group.add_argument("--automorphisms", metavar="PERMS_JSON",
                       help="JSON list of n 0-based permutations")
    group.add_argument("--lrc", action="store_true",
                       help="locality-code construction (lrc specs only)")
    find.add_argument("--seed", type=int, default=0)
    find.set_defaults(func=cmd_matrix_find)

    opt = sub.add_parser("optimize", help="optimize the retrieval rate")
    opt.add_argument("spec")
    opt.add_argument("--colluding", action="store_true")
    opt.add_argument("--query-code")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--budget", type=int, default=EXHAUSTIVE_LIMIT,
                     help="exhaustive pattern enumeration ceiling")
    opt.add_argument("--sample-budget", type=int, default=SAMPLE_BUDGET,
                     help="randomized pattern draws beyond the ceiling")
    opt.set_defaults(func=cmd_optimize)

    sim = sub.add_parser("simulate", help="full protocol round trip")
    sim.add_argument("protocol", choices=["p1", "p2", "p3"])
    sim.add_argument("--code", required=True)
    sim.add_argument("--query-code")
    sim.add_argument("--files", type=int, required=True)
    sim.add_argument("--request", type=int, required=True)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--ell", type=int, default=1,
                     help="message symbols live in GF(q^ell)")
    sim.add_argument("--transcript", help="write transcript JSON here")
    sim.add_argument("--node-view", action="store_true",
                     help="strip user-private fields from the transcript")
    sim.set_defaults(func=cmd_simulate)

    aud = sub.add_parser("audit-privacy", help="empirical privacy audit")
    aud.add_argument("--protocol", type=int, choices=[1, 2, 3], required=True)
    aud.add_argument("--code", required=True)
    aud.add_argument("--query-code")
    aud.add_argument("--collude", help='1-based nodes, e.g. "9,12"')
    aud.add_argument("--trials", type=int, default=10_000)
    aud.add_argument("--files", type=int, default=2)
    aud.add_argument("--exact", action="store_true",
                     help="decide privacy exactly (protocols 2 and 3)")
    aud.add_argument("--seed", type=int)
    aud.set_defaults(func=cmd_audit_privacy)

    rep = sub.add_parser("report", help="reproduction reports")
    rep_sub = rep.add_subparsers(dest="report_command", required=True)
    tables = rep_sub.add_parser("tables", help="optimized-rate tables")
    tables.add_argument("--fixtures", help="fixture directory (default: packaged)")
    tables.add_argument("--seed", type=int, default=0)
    tables.set_defaults(func=cmd_report_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CodedPirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
