"""The package's public names change only on purpose."""

import ast
from pathlib import Path

import qbounds

SRC = Path(__file__).resolve().parents[1] / "src" / "qbounds"

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
    code = qbounds.AdditiveCode(1, ())
    public = {name for name in vars(code) if not name.startswith("_")}
    public |= {name for name in vars(qbounds.AdditiveCode) if not name.startswith("_")}
    assert sorted(public) == ["dual", "form", "generators", "is_self_orthogonal", "n", "rank"]


# Definitions that only tests use, listed for removal to tests/ in ROADMAP
# item 9; a method is named with its class.
TEST_ONLY = {
    "ExactPolynomial", "KrawtchoukExpansion.synthesize", "krawtchouk_expand",
    "compare_smallest_root", "symplectic_weight", "iter_span",
}


def test_test_only_names_have_no_caller_in_the_package():
    """Each test-only name is referenced only inside the test-only definitions."""
    called = {name.rpartition(".")[2] for name in TEST_ONLY}
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(getattr(node, "name", None), node) for node in tree.body]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{getattr(sub, 'name', '')}", sub) for sub in node.body]
        inside = {id(sub) for name, node in defs if name in TEST_ONLY for sub in ast.walk(node)}
        for node in ast.walk(tree):
            # a name read, an attribute read, or a name imported from another module
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name in called and id(node) not in inside:
                stray.append(f"{path.name}:{node.lineno}: {name}")
    assert stray == []
