"""Spans and counters around the qbounds layers, installed from outside.

The package binds names across modules (``from .exact import
krawtchouk_eval`` in ``bounds``), so each traced function is replaced in
every ``qbounds`` module that holds it.  A span records (name, start, end,
parent, op); spans stay in memory until :meth:`Tracer.report` reduces
them to per-layer figures.  The hottest functions get plain counters, as a
span each would cost more than the call.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans; ``cli.self_s`` is what is left of each
op outside every layer span (argument parsing and rendering).
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from functools import partial
from time import perf_counter

# (module, attribute) -> span name.  Besides the functions the per-layer
# metrics name, every library entry point the CLI calls is wrapped, so that
# its time is charged to its layer and not to the CLI.
SPANS = {
    ("exact", "krawtchouk_expand"): "exact.krawtchouk_expand",
    ("exact", "krawtchouk_eval"): "exact.krawtchouk_eval",
    ("exact", "compare_smallest_root"): "exact.compare_smallest_root",
    ("exact", "macwilliams_transform"): "exact.macwilliams_transform",
    ("exact", "KrawtchoukExpansion.synthesize"): "exact.synthesize",
    ("exact", "ExactPolynomial.__call__"): "exact.poly_eval",
    ("bounds", "singleton_bound"): "bounds.singleton_bound",
    ("bounds", "hamming_bound"): "bounds.hamming_bound",
    ("bounds", "levenshtein_bound"): "bounds.levenshtein_bound",
    ("bounds", "check_conditions"): "bounds.check_conditions",
    ("bounds", "lp_feasible"): "bounds.lp_feasible",
    ("bounds", "lp_critical_K"): "bounds.lp_critical_K",
    ("bounds", "verify_lp_witness"): "bounds.verify",
    ("bounds", "verify_lp_certificate"): "bounds.verify",
    ("bounds", "strongest"): "bounds.strongest",
    ("bounds", "floor_log2"): "bounds.floor_log2",
    ("bounds", "degenerate_hamming_check"): "bounds.degenerate_hamming_check",
    ("bounds", "BoundVerdict.judged_against"): "bounds.judged_against",
    ("simplex", "solve_lp"): "simplex.solve_lp",
    ("gf4", "parse_code"): "gf4.parse_code",
    ("gf4", "quantum_distance"): "gf4.quantum_distance",
    ("gf4", "standard_form"): "gf4.standard_form",
    ("gf4", "enumerators"): "gf4.enumerators",
    ("gf4", "reduction_targets"): "gf4.reduction_targets",
    ("gf4", "reduction_witnesses"): "gf4.reduction_witnesses",
    ("asymptotic", "generate_curve"): "asymptotic.generate_curve",
    ("asymptotic", "solve_monotone"): "asymptotic.solve_monotone",
    ("asymptotic", "load_classical_bound_csv"): "asymptotic.load_classical_bound_csv",
}

# counted, not spanned
COUNTERS = {
    ("gf4", "symplectic_weight"): "gf4.weight_evals",
    ("asymptotic", "entropy_q"): "asymptotic.entropy_q.calls",
}
GENERATORS = {("gf4", "iter_span"): "gf4.words_enumerated"}

# (metric, unit) in report order; ``.s`` is inclusive span time, ``.calls``
# a span count, and the rest counters or values the report computes.
METRICS = (
    ("exact.self_s", "s"),
    ("exact.krawtchouk_expand.s", "s"),
    ("exact.synthesize.s", "s"),
    ("exact.poly_eval.calls", "count"),
    ("exact.poly_eval.s", "s"),
    ("exact.compare_smallest_root.calls", "count"),
    ("exact.compare_smallest_root.s", "s"),
    ("exact.krawtchouk_eval.calls", "count"),
    ("exact.krawtchouk_eval.s", "s"),
    ("exact.macwilliams_transform.calls", "count"),
    ("exact.macwilliams_transform.s", "s"),
    ("exact.cache_entries", "count"),
    ("bounds.self_s", "s"),
    ("bounds.singleton_bound.s", "s"),
    ("bounds.hamming_bound.s", "s"),
    ("bounds.levenshtein_bound.s", "s"),
    ("bounds.check_conditions.calls", "count"),
    ("bounds.lp_feasible.s", "s"),
    ("bounds.lp_critical_K.s", "s"),
    ("bounds.verify.s", "s"),
    ("bounds.lp_feasible.feasible", "count"),
    ("simplex.self_s", "s"),
    ("simplex.solve_lp.calls", "count"),
    ("simplex.tableau_cells", "cells"),
    ("simplex.max_solution_bits", "bits"),
    ("gf4.self_s", "s"),
    ("gf4.quantum_distance.s", "s"),
    ("gf4.enumerators.s", "s"),
    ("gf4.standard_form.s", "s"),
    ("gf4.reduction_witnesses.s", "s"),
    ("gf4.words_enumerated", "count"),
    ("gf4.weight_evals", "count"),
    ("asymptotic.self_s", "s"),
    ("asymptotic.generate_curve.calls", "count"),
    ("asymptotic.solve_monotone.calls", "count"),
    ("asymptotic.entropy_q.calls", "count"),
    ("cli.self_s", "s"),
)


def _solution_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values or ()),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = ["cli.op"]
        self.spans: list[list] = []  # [name index, start, end, parent index, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1

    # -- recording -----------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; ``after(args, result)`` runs once it returns."""
        spans, stack, tracer = self.spans, self.stack, self
        self.names.append(name)
        name_index = len(self.names) - 1

        def wrapper(*args, **kwargs):
            rec = [name_index, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[name] += yielded

        return wrapper

    def _after_solve_lp(self, args, solution) -> None:
        _, A, _ = args
        self.counts["simplex.tableau_cells"] += len(A) * (len(A[0]) if A else 0)
        bits = _solution_bits(solution.x if solution.farkas is None else solution.farkas)
        self.counts["simplex.max_solution_bits"] = max(self.counts["simplex.max_solution_bits"], bits)

    def _after_lp_feasible(self, args, verdict) -> None:
        self.counts["bounds.lp_feasible.feasible"] += bool(verdict.feasible)

    def install(self) -> None:
        """Wrap every traced name in every loaded ``qbounds`` module."""
        for module_name, _ in [*SPANS, *COUNTERS, *GENERATORS]:
            importlib.import_module(f"qbounds.{module_name}")
        modules = [m for name, m in sys.modules.items() if name == "qbounds" or name.startswith("qbounds.")]
        after = {"simplex.solve_lp": self._after_solve_lp, "bounds.lp_feasible": self._after_lp_feasible}
        wrappers = [(key, partial(self._spanned, name, after=after.get(name))) for key, name in SPANS.items()]
        wrappers += [(key, partial(self._counted, name)) for key, name in COUNTERS.items()]
        wrappers += [(key, partial(self._counted_generator, name)) for key, name in GENERATORS.items()]
        for (module_name, attr), wrap in wrappers:
            home = sys.modules[f"qbounds.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, wrap(cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapped = wrap(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    @contextmanager
    def op_span(self, index: int):
        """Root span of one CLI op."""
        self.op = index
        rec = [0, 0.0, 0.0, -1, index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    # -- reduction -----------------------------------------------------

    def report(self, exact_module) -> dict[str, float]:
        """Per-layer figures for everything recorded so far."""
        child = [0.0] * len(self.spans)
        for name_index, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name_index, start, end, _, _) in enumerate(self.spans):
            name = self.names[name_index]
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child[i]
        values: dict[str, float] = {}
        for metric, _ in METRICS:
            head, _, tail = metric.rpartition(".")
            if tail == "self_s":
                values[metric] = self_time[head]
            elif tail == "s":
                values[metric] = inclusive[head]
            elif tail == "calls" and metric not in COUNTERS.values():
                values[metric] = calls[head]
            else:
                values[metric] = self.counts[metric]
        values["exact.cache_entries"] = sum(
            fn.cache_info().currsize for fn in vars(exact_module).values() if hasattr(fn, "cache_info")
        )
        return values
