"""Reproduction of the published optimized-rate tables from packaged fixtures.

Each fixture JSON carries the code spec, the expected table columns, and (for
the colluding rows) the query-code spec plus the optimization method. Expected
values are 4-decimal renderings; computed exact rationals must land within
1e-4 of them (the published tables mix truncation and rounding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .codes import LinearCode, standard_form_parity
from .errors import BadParams
from .families import code_from_spec
from .optimizer import optimize_rate
from .protocol3 import collusion_threshold, p3_rm_max_rate

TOLERANCE = 1e-4


def fixtures_dir() -> Path:
    return Path(resources.files("codedpir") / "fixtures")


def load_fixture(name: str, directory: Path | str | None = None) -> dict:
    directory = Path(directory) if directory else fixtures_dir()
    return json.loads((directory / f"{name}.json").read_text())


def fixture_code(fixture: dict) -> LinearCode:
    return code_from_spec(fixture["code"])


@dataclass
class RowResult:
    name: str
    table: str
    computed: dict
    expected: dict
    deltas: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v <= TOLERANCE for v in self.deltas.values())


@dataclass
class TablesReport:
    rows: list[RowResult] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = []
        for r in self.rows:
            status = "ok " if r.ok else "FAIL"
            cells = "  ".join(f"{k}={_fmt(v)}" for k, v in r.computed.items())
            lines.append(f"[{status}] table {r.table} {r.name}: {cells}")
            if not r.ok:
                bad = {k: v for k, v in r.deltas.items() if v > TOLERANCE}
                lines.append(f"       mismatches: {bad}")
        return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{float(v):.4f}"
    return str(v)


def _diffs(computed: dict, expected: dict) -> dict:
    deltas = {}
    for key, want in expected.items():
        got = computed.get(key)
        if got is None:
            deltas[key] = float("inf")
        elif isinstance(want, (int,)) and not isinstance(got, Fraction):
            deltas[key] = 0.0 if got == want else float("inf")
        else:
            deltas[key] = abs(float(got) - float(want))
    return deltas


def noncolluding_row(fixture: dict, seed: int = 0) -> RowResult:
    code = fixture_code(fixture)
    table = "I" if "table1" in fixture else "II"
    expected = fixture.get("table1") or fixture.get("table2")
    computed: dict = {"d_min": code.min_distance()}
    if table == "I":
        p, _ = standard_form_parity(code, info=fixture.get("systematic"))
        cprime = LinearCode.from_parity_check(p)
        dprime = cprime.min_distance()
        computed["d_min_prime"] = dprime
        computed["r_nonopt"] = Fraction(dprime - 1, code.n)
    else:
        computed["r_nonopt"] = Fraction(code.min_distance() - 1, code.n)
    e_opt, gamma_opt = optimize_rate(code, seed=seed)
    if e_opt is None:
        raise BadParams(f"{fixture['name']}: optimizer found no structure")
    computed["r_opt"] = Fraction(gamma_opt, code.n)
    computed["c_inf"] = Fraction(code.n - code.k, code.n)
    return RowResult(fixture["name"], table, computed, expected,
                     _diffs(computed, expected))


def colluding_row(fixture: dict, seed: int = 0) -> RowResult:
    code = fixture_code(fixture)
    coll = fixture["colluding"]
    query = code_from_spec(coll["query"])
    product = code.hadamard_product(query)
    n, k = code.n, code.k
    t_value = collusion_threshold(query)
    computed: dict = {
        "d_min": code.min_distance(),
        "T": t_value,
        "product_d_min": product.min_distance() if product.k else 0,
    }
    computed["r_nonopt"] = Fraction(max(computed["product_d_min"] - 1, 0), n)
    if coll["method"] == "analytic":
        setup = p3_rm_max_rate(*coll["rm"])
        if setup.code.k != code.k or not setup.code.contains_codewords(code.G.data):
            raise BadParams(f"{fixture['name']}: fixture code is not the "
                            "expected Reed-Muller code")
        computed["r_opt"] = setup.rate
    else:
        kwargs = {"seed": seed}
        if coll.get("sample_budget"):
            kwargs["sample_budget"] = coll["sample_budget"]
        e_opt, gamma_opt = optimize_rate(code, query, **kwargs)
        if e_opt is None:
            raise BadParams(f"{fixture['name']}: colluding optimizer found "
                            "no structure")
        computed["r_opt"] = Fraction(gamma_opt, n)
    computed["r_ub"] = Fraction(n - product.k, n)
    computed["c_lb_inf"] = Fraction(n - (k + t_value - 1), n)
    expected = dict(coll["expect"])
    expected["T"] = coll["T"]
    return RowResult(fixture["name"], "III", computed, expected,
                     _diffs(computed, expected))


def report_tables(directory: Path | str | None = None, seed: int = 0) -> TablesReport:
    directory = Path(directory) if directory else fixtures_dir()
    index = json.loads((directory / "index.json").read_text())
    report = TablesReport()
    for table_key in ("table1", "table2"):
        for name in index[table_key]:
            fixture = load_fixture(name, directory)
            report.rows.append(noncolluding_row(fixture, seed=seed))
    for name in index["table3"]:
        fixture = load_fixture(name, directory)
        report.rows.append(colluding_row(fixture, seed=seed))
    return report
