"""Exact upper bounds for quantum error-correcting code parameters.

Four layers:

* :mod:`qbounds.exact` -- Krawtchouk polynomials from one three-term
  recurrence: a cached integer table of P_t(i, n), the change between a
  polynomial's values and its Krawtchouk coefficients, exact evaluation at
  rational points, the smallest-root index by sign counting, and the
  weight-distribution transform;
* :mod:`qbounds.gf4` -- GF(4) additive codes in binary symplectic form,
  duals, weight distributions and the enumerator pair (every distance is
  read off a distribution), standard form and classical reductions;
* :mod:`qbounds.bounds` -- finite-length bounds (polynomial method, exact
  LP feasibility, mixed sphere packing);
* :mod:`qbounds.asymptotic` -- rate/distance curves (the only module that
  touches floating point).

The everything-exact rule: any number presented as a bound or certificate
is a ``fractions.Fraction`` computed without rounding.

Importing the package loads no layer; a public name imports its module on
first access (PEP 562).
"""

__version__ = "0.1.0"

import importlib as _importlib

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "bounds": (
        "BoundVerdict", "FeasiblePolynomial", "LPVerdict", "check_conditions",
        "degenerate_hamming_check", "hamming_bound", "levenshtein_bound", "lp_critical_K",
        "lp_feasible", "mixed_hamming_check", "polynomial_bound", "singleton_bound", "strongest",
    ),
    "errors": (
        "CapacityError", "InvariantError", "ParameterError", "ParseError", "QBoundsError",
        "SolverError", "StructureError",
    ),
    "exact": (
        "ExactPolynomial", "KrawtchoukExpansion", "binomial", "krawtchouk_eval",
        "krawtchouk_expand", "macwilliams_transform",
    ),
    "gf4": (
        "AdditiveCode", "BinarySCode", "ComplementaryCode", "EnumeratorPair", "QuantumParams",
        "ReductionTarget", "StandardForm", "binary_s_code", "complementary_code", "enumerators",
        "format_code", "parse_code", "quantum_distance", "reduction_targets",
        "reduction_witnesses", "standard_form", "symplectic_dual", "weight_distribution",
    ),
    "asymptotic": (
        "CurvePoint", "curve_hamming_degenerate", "curve_nondeg_general", "curve_stabilizer",
        "entropy_q", "gamma_q", "generate_curve", "solve_monotone",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _importlib.import_module(f".{module}", __name__)
    return home if name == module else getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
