"""Private information retrieval over arbitrary linear storage codes.

Exact finite-field machinery, the retrieval protocols (file-dependent
protocol 1; the collusion-resistant protocol 3, which with the repetition
query code is the file-independent protocol 2), the achievable-rate-matrix
combinatorics with capacity conditions, a rate optimizer, and a simulated
storage harness with privacy audits and table reproduction reports.
"""

from .audit import PrivacyReport, privacy_audit
from .codes import ErasurePattern, LinearCode, code_from_generator, repetition_code
from .dss import Dss, Transcript, run
from .errors import CodedPirError
from .families import (LrcParams, code_from_spec, cyclic_code, grs_code,
                       lrc_optimal, pyramid_code, rm_code,
                       rm_information_set, rm_translate, uuv_code)
from .fields import (FiniteField, Matrix, field_make, mat_mul, mat_rank,
                     mat_rref, mat_solve)
from .optimizer import (PatternList, compute_erasure_pattern_list,
                        compute_matrix, optimize_rate)
from .protocol1 import P1Plan, p1_answer, p1_decode, p1_plan, p1_symmetry_audit
from .protocol2 import p2_build_structure
from .protocol3 import (P3Setup, collusion_threshold, necessary_condition_p3,
                        p3_decode, p3_queries, p3_respond, p3_rm_max_rate,
                        p3_setup)
from .ratematrix import (ErasureMatrix, RateMatrix, beta_d_minimal,
                         capacity_asymptotic, capacity_finite, E_to_lambda,
                         interference_matrices, lambda_from_automorphisms,
                         lambda_generic, lambda_to_E, lrc_E_matrix,
                         necessary_condition, rate_matrix, rate_protocol1,
                         s_set, validate_rate_matrix)
from .reports import report_tables

__all__ = [
    "CodedPirError",
    # fields and codes
    "FiniteField", "Matrix", "field_make", "mat_mul", "mat_rank", "mat_rref",
    "mat_solve", "ErasurePattern", "LinearCode", "code_from_generator",
    "repetition_code", "LrcParams", "code_from_spec", "cyclic_code", "grs_code",
    "lrc_optimal", "pyramid_code", "rm_code", "rm_information_set",
    "rm_translate", "uuv_code",
    # rate matrices and the optimizer
    "ErasureMatrix", "RateMatrix", "beta_d_minimal", "capacity_asymptotic",
    "capacity_finite", "E_to_lambda", "interference_matrices",
    "lambda_from_automorphisms", "lambda_generic", "lambda_to_E",
    "lrc_E_matrix", "necessary_condition", "rate_matrix", "rate_protocol1",
    "s_set", "validate_rate_matrix", "PatternList",
    "compute_erasure_pattern_list", "compute_matrix", "optimize_rate",
    # protocols
    "P1Plan", "p1_answer", "p1_decode", "p1_plan", "p1_symmetry_audit",
    "p2_build_structure", "P3Setup", "collusion_threshold",
    "necessary_condition_p3", "p3_decode", "p3_queries", "p3_respond",
    "p3_rm_max_rate", "p3_setup",
    # storage, audits and reports
    "Dss", "Transcript", "run", "PrivacyReport", "privacy_audit",
    "report_tables",
]
__version__ = "0.1.0"
