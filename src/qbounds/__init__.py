"""Exact upper bounds for quantum error-correcting code parameters.

Four layers:

* :mod:`qbounds.exact` -- Krawtchouk polynomials from one three-term
  recurrence: a cached integer table of P_t(i, n), the change between a
  polynomial's values and its Krawtchouk coefficients, exact evaluation at
  rational points, the smallest-root test by sign counting, and the
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
"""

__version__ = "0.1.0"

from .bounds import (
    BoundVerdict,
    FeasiblePolynomial,
    LPVerdict,
    check_conditions,
    degenerate_hamming_check,
    hamming_bound,
    levenshtein_bound,
    lp_critical_K,
    lp_feasible,
    mixed_hamming_check,
    polynomial_bound,
    singleton_bound,
    strongest,
)
from .errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    QBoundsError,
    SolverError,
    StructureError,
)
from .exact import (
    ExactPolynomial,
    KrawtchoukExpansion,
    binomial,
    krawtchouk_eval,
    krawtchouk_expand,
    macwilliams_transform,
)
from .gf4 import (
    AdditiveCode,
    BinarySCode,
    ComplementaryCode,
    EnumeratorPair,
    QuantumParams,
    ReductionTarget,
    StandardForm,
    binary_s_code,
    complementary_code,
    enumerators,
    format_code,
    parse_code,
    quantum_distance,
    reduction_targets,
    reduction_witnesses,
    standard_form,
    symplectic_dual,
    weight_distribution,
)
from .asymptotic import (
    CurvePoint,
    CurveSpec,
    curve_hamming_degenerate,
    curve_nondeg_general,
    curve_stabilizer,
    entropy_q,
    gamma_q,
    generate_curve,
    solve_monotone,
)

__all__ = [name for name in dir() if not name.startswith("_")]
