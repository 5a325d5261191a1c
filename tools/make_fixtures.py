#!/usr/bin/env python3
"""Regenerate the packaged table-code fixtures (src/codedpir/fixtures/).

Every fixture is deterministic: searched codes embed their search seed in the
"source" field, and constructed codes embed their construction parameters.
Run from the repository root: python tools/make_fixtures.py [--out DIR]
(DIR defaults to the packaged fixture directory).
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from codedpir.codes import LinearCode, code_from_generator, standard_form_parity  # noqa: E402
from codedpir.families import grs_code, pyramid_code, uuv_code  # noqa: E402
from codedpir.fields import Matrix, field_make  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "src" / "codedpir" / "fixtures"

f2 = field_make(2)
f13 = field_make(13)
f16 = field_make(2, 4)
f17 = field_make(17)


def monomial_code(field, points, degrees):
    G = Matrix(field, [[field.pow(a, e) for a in points] for e in degrees])
    return code_from_generator(G)


def write(name, obj):
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(obj, indent=1) + "\n")
    print("wrote", path)


def c1():
    G = [[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]]
    write("c1", {
        "name": "c1", "label": "[5,3,2] binary single-file example code",
        "source": "systematic [5,3,2] binary code of the worked examples",
        "code": {"family": "raw", "q": 2, "generator": G},
        "systematic": [0, 1, 2],
        "table1": {"d_min": 2, "d_min_prime": 3, "r_nonopt": 0.4,
                   "r_opt": 0.4, "c_inf": 0.4},
    })


def c2():
    # seeded search over systematic [11,6] generators with row weight >= 4;
    # filters: d_min = 4 (optimum for [11,6]), d_min' = 4, GHW condition, and
    # an optimizer run reaching Gamma = 5
    import itertools
    heavy = [v for v in itertools.product((0, 1), repeat=5) if sum(v) >= 3]
    rng = random.Random(25)
    P = [list(rng.choice(heavy)) for _ in range(6)]
    G = [[1 if i == j else 0 for j in range(6)] + P[i] for i in range(6)]
    code = code_from_generator(Matrix(f2, G))
    assert code.min_distance() == 4
    write("c2", {
        "name": "c2", "label": "[11,6,4] optimum-distance binary code",
        "source": "seeded random search (seed 25) over systematic [11,6] "
                  "binary generators; 4 is the best minimum distance for "
                  "these parameters",
        "code": code.to_json_dict(),
        "systematic": list(range(6)),
        "table1": {"d_min": 4, "d_min_prime": 4, "r_nonopt": 0.2727,
                   "r_opt": 0.4545, "c_inf": 0.4545},
    })


def c3_c4():
    _, p3 = pyramid_code(f13, r=4, delta=2, Lc=2, a=2)
    write("c3", {
        "name": "c3", "label": "[12,8] Pyramid code, locality 4",
        "source": "parity-splitting of a systematic RS[11,8] over GF(13), "
                  "evaluation points 0..10",
        "code": {"family": "lrc", "q": 13, "r": 4, "delta": 2, "Lc": 2,
                 "n": 12, "k": 8, "P": p3.local_parity, "M": p3.global_mix},
        "systematic": [0, 1, 2, 3, 5, 6, 7, 8],
        "table1": {"d_min": 4, "d_min_prime": 4, "r_nonopt": 0.25,
                   "r_opt": 0.3333, "c_inf": 0.3333},
    })
    _, p4 = pyramid_code(f17, r=6, delta=3, Lc=2, a=2)
    write("c4", {
        "name": "c4", "label": "[18,12] Pyramid code, locality 6",
        "source": "parity-splitting of a systematic RS[16,12] over GF(17), "
                  "evaluation points 0..15",
        "code": {"family": "lrc", "q": 17, "r": 6, "delta": 3, "Lc": 2,
                 "n": 18, "k": 12, "P": p4.local_parity, "M": p4.global_mix},
        "systematic": [0, 1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13],
        "table1": {"d_min": 5, "d_min_prime": 5, "r_nonopt": 0.2222,
                   "r_opt": 0.3333, "c_inf": 0.3333},
    })


def c5():
    # two local XOR parities over data halves plus four global parities of a
    # seeded GRS[14,10] over GF(16); seed 3 also matches d_min' = 5
    rng = random.Random(3)
    pts = rng.sample(range(16), 14)
    mults = [rng.randrange(1, 16) for _ in range(14)]
    rs = grs_code(f16, 14, 10, eval_points=pts, multipliers=mults)
    pt = standard_form_parity(rs, list(range(10)))[0].array().tolist()
    grows = []
    for i in range(10):
        row = [1 if i == j else 0 for j in range(10)]
        row.append(1 if i < 5 else 0)
        row.append(1 if i >= 5 else 0)
        row.extend(pt[t][i] for t in range(4))
        grows.append(row)
    code = code_from_generator(Matrix(f16, grows))
    assert code.min_distance() == 5
    write("c5", {
        "name": "c5", "label": "[16,10,5] locality-5 code, two local XOR "
                               "parities plus GRS global parities",
        "source": "data halves with XOR parities; global parities from a "
                  "seeded GRS[14,10] over GF(16) (seed 3)",
        "code": code.to_json_dict(),
        "systematic": list(range(10)),
        "table1": {"d_min": 5, "d_min_prime": 5, "r_nonopt": 0.25,
                   "r_opt": 0.375, "c_inf": 0.375},
    })


def c8():
    H = [[0, 1, 1, 1, 0, 0, 0], [1, 0, 1, 0, 1, 0, 0],
         [1, 1, 0, 0, 0, 1, 0], [1, 1, 1, 0, 0, 0, 1]]
    code = LinearCode.from_parity_check(Matrix(f2, H))
    write("c8", {
        "name": "c8", "label": "[7,3,4] dual of the [7,4,3] Hamming code",
        "source": "generator spans the null space of the printed parity check",
        "code": code.to_json_dict(),
        "table2": {"d_min": 4, "r_nonopt": 0.4286, "r_opt": 0.5714,
                   "c_inf": 0.5714},
    })


def tamo_barg():
    A9 = sorted({1, 3, 9, 2, 6, 5, 4, 12, 10})
    c9 = monomial_code(f13, A9, [0, 1, 3, 4])
    assert (c9.n, c9.k, c9.min_distance()) == (9, 4, 5)
    write("c9", {
        "name": "c9", "label": "[9,4,5] all-symbol locality-2 code over GF(13)",
        "source": "evaluations of x^e, e in {0,1,3,4}, on the three cosets "
                  "of the order-3 subgroup of GF(13)*",
        "code": c9.to_json_dict(),
        "points": A9,
        "table2": {"d_min": 5, "r_nonopt": 0.4444, "r_opt": 0.5555,
                   "c_inf": 0.5555},
        "colluding": {
            "query": {"family": "grs", "q": 13, "n": 9, "k": 2, "points": A9,
                      "multipliers": [1] * 9},
            "T": 2, "method": "search",
            "expect": {"d_min": 5, "product_d_min": 4, "r_nonopt": 0.3333,
                       "r_opt": 0.3333, "r_ub": 0.3333, "c_lb_inf": 0.4444},
        },
    })
    A12 = list(range(1, 13))
    c10 = monomial_code(f13, A12, [0, 1, 2, 4, 5, 6])
    assert (c10.n, c10.k, c10.min_distance()) == (12, 6, 6)
    write("c10", {
        "name": "c10", "label": "[12,6,6] all-symbol locality-3 code over GF(13)",
        "source": "evaluations of x^e, e in {0,1,2,4,5,6}, on GF(13)*",
        "code": c10.to_json_dict(),
        "points": A12,
        "table2": {"d_min": 6, "r_nonopt": 0.4167, "r_opt": 0.5,
                   "c_inf": 0.5},
        "colluding": {
            "query": {"family": "grs", "q": 13, "n": 12, "k": 2,
                      "points": A12, "multipliers": [1] * 12},
            "T": 2, "method": "search",
            "expect": {"d_min": 6, "product_d_min": 5, "r_nonopt": 0.3333,
                       "r_opt": 0.3333, "r_ub": 0.3333, "c_lb_inf": 0.4167},
        },
    })
    c12 = monomial_code(f13, A12, [0, 1, 4, 6])
    assert (c12.n, c12.k, c12.min_distance()) == (12, 4, 6)
    write("c12", {
        "name": "c12", "label": "[12,4,6] code with two disjoint recovering "
                                "sets (sizes 2 and 3) per symbol, over GF(13)",
        "source": "evaluations of x^e, e in {0,1,4,6} (exponents avoiding 2 "
                  "mod 3 and 3 mod 4), on GF(13)*",
        "code": c12.to_json_dict(),
        "points": A12,
        "colluding": {
            "query": {"family": "grs", "q": 13, "n": 12, "k": 2,
                      "points": A12, "multipliers": [1] * 12},
            "T": 2, "method": "search",
            "expect": {"d_min": 6, "product_d_min": 5, "r_nonopt": 0.3333,
                       "r_opt": 0.4167, "r_ub": 0.4167, "c_lb_inf": 0.5833},
        },
    })


def c11():
    H = [[0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0],
         [1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
         [1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0],
         [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0],
         [1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0],
         [0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0],
         [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0],
         [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1]]
    code = LinearCode.from_parity_check(Matrix(f2, H))
    spec = code.to_json_dict()
    write("c11", {
        "name": "c11", "label": "[12,4,6] binary code of the colluding "
                                "worked example",
        "source": "generator spans the null space of the printed parity check",
        "code": spec,
        "colluding": {
            "query": spec, "T": 2, "method": "search",
            "expect": {"d_min": 6, "product_d_min": 2, "r_nonopt": 0.0833,
                       "r_opt": 0.1667, "r_ub": 0.1667, "c_lb_inf": 0.5833},
        },
    })


def c13():
    hcols = [[(c >> b) & 1 for c in range(1, 16)] for b in range(4)]
    H = Matrix(f2, [row + [0] for row in hcols] + [[1] * 16])
    ext_ham = LinearCode.from_parity_check(H)
    u = ext_ham.shorten(list(range(13)))
    assert (u.n, u.k, u.min_distance()) == (13, 8, 4)
    uuv = uuv_code(u)
    assert (uuv.n, uuv.k, uuv.min_distance()) == (26, 9, 8)
    uspec = u.to_json_dict()
    spec = {"family": "uuv", "U": uspec}
    write("c13", {
        "name": "c13", "label": "[26,9,8] (U|U+V) code, U = [13,8,4]",
        "source": "U is the [16,11,4] extended Hamming code shortened on its "
                  "first 13 coordinates; V is the repetition code",
        "code": spec,
        "colluding": {
            "query": spec, "T": 3, "method": "search", "sample_budget": 1500,
            "expect": {"d_min": 8, "product_d_min": 1, "r_nonopt": 0.0,
                       "r_opt": 0.1538, "r_ub": 0.1538, "c_lb_inf": 0.5769},
        },
    })


def c14():
    spec = {"family": "uuv", "U": {"family": "reed-muller", "v": 1, "m": 4}}
    write("c14", {
        "name": "c14", "label": "[32,6,16] (U|U+V) code, U = R(1,4); equals "
                                "the first-order length-32 Reed-Muller code",
        "source": "UUV construction on the Reed-Muller family",
        "code": spec,
        "colluding": {
            "query": spec, "T": 3, "method": "analytic", "rm": [1, 1, 5],
            "expect": {"d_min": 16, "product_d_min": 8, "r_nonopt": 0.2188,
                       "r_opt": 0.5, "r_ub": 0.5, "c_lb_inf": 0.75},
        },
    })


def c74_pyramid():
    # the [7,4] locality-2 example code over GF(8): z = 2, z^3 = 3, z^4 = 6, z^5 = 7
    write("pyramid74", {
        "name": "pyramid74", "label": "[7,4,3] Pyramid code over GF(8)",
        "source": "printed parity-check blocks of the locality example",
        "code": {"family": "lrc", "q": 8, "r": 2, "delta": 2, "Lc": 2,
                 "n": 7, "k": 4, "P": [[[3, 1]], [[3, 2]]],
                 "M": [[[6, 1]], [[7, 7]]]},
        "systematic": [0, 1, 3, 4],
    })


def index():
    write("index", {
        "table1": ["c1", "c2", "c3", "c4", "c5"],
        "table2": ["c8", "c9", "c10"],
        "table3": ["c9", "c10", "c11", "c12", "c13", "c14"],
        "extra": ["pyramid74"],
    })


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Regenerate the table-code fixtures.")
    ap.add_argument("--out", type=Path, default=OUT,
                    help="output directory (default: src/codedpir/fixtures)")
    OUT = ap.parse_args().out
    OUT.mkdir(parents=True, exist_ok=True)
    c1(); c2(); c3_c4(); c5(); c8(); tamo_barg(); c11(); c13(); c14()
    c74_pyramid(); index()
