"""The package's public names change only on purpose."""

from dataclasses import fields

import qbounds

EXPORTS = [
    "AdditiveCode", "BinarySCode", "BoundVerdict", "CapacityError", "ComplementaryCode",
    "CurvePoint", "EnumeratorPair", "ExactPolynomial", "FeasiblePolynomial",
    "InvariantError", "KrawtchoukExpansion", "LPVerdict", "ParameterError", "ParseError",
    "QBoundsError", "QuantumParams", "ReductionTarget", "SolverError", "StandardForm",
    "StructureError", "asymptotic", "binary_s_code", "binomial", "bounds",
    "check_conditions", "complementary_code", "curve_hamming_degenerate",
    "curve_nondeg_general", "curve_stabilizer", "degenerate_hamming_check", "entropy_q",
    "enumerators", "errors", "exact", "format_code", "gamma_q", "generate_curve", "gf4",
    "hamming_bound", "krawtchouk_eval", "krawtchouk_expand", "levenshtein_bound",
    "lp_critical_K", "lp_feasible", "macwilliams_transform", "mixed_hamming_check",
    "parse_code", "polynomial_bound", "quantum_distance", "reduction_targets",
    "reduction_witnesses", "singleton_bound", "solve_monotone", "standard_form",
    "strongest", "symplectic_dual", "weight_distribution",
]


def test_public_exports_are_pinned():
    # a change here is an API change: say so in the README and CHANGES.md
    assert sorted(qbounds.__all__) == EXPORTS


def test_additive_code_attributes_are_pinned():
    code = qbounds.AdditiveCode
    public = {f.name for f in fields(code)}
    public |= {name for name in vars(code) if not name.startswith("_")}
    assert sorted(public) == ["dual", "form", "generators", "is_self_orthogonal", "n", "rank"]
