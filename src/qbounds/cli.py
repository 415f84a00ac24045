"""Command-line surface.

Subcommands: ``check`` (bounds at one parameter point), ``table`` (k_max
matrix over a parameter grid), ``analyze`` (full report for a code file),
``lp`` (exact feasibility with witness/certificate), ``curves``
(asymptotic curve CSV), ``selftest`` (invariant suite).

Exit codes: 0 success (verdicts live in the payload), 1 selftest failure,
2 usage/parse/structure error, 3 capacity exceeded, 4 internal error (a
failed exact identity or solve: a bug).  ``main`` alone reports a failure,
a parser error included: stdout stays empty and stderr gets one line
prefixed ``error:``, ``capacity:`` or ``internal:``.  A reader that closes
stdout early (``| head``) ends the command quietly with exit 0.  Output is
deterministic: no timestamps; ``--meta`` adds fixed provenance headers.
Rationals render as 'p/q'.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Sequence

from . import __version__, bounds, gf4
from .asymptotic import CURVE_IDS, generate_curve
from .errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    SolverError,
    StructureError,
)
from .selftest import run_selftest

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# bounds.<name>_bound(n, d), looked up when called so wrappers around them hold
CLOSED_FORM_BOUNDS = ("singleton", "hamming", "levenshtein")
TABLE_BOUNDS = CLOSED_FORM_BOUNDS + ("lp",)
CHECK_BOUNDS = TABLE_BOUNDS + ("degenerate_hamming",)
DEFAULT_CHECK_BOUNDS = "singleton,hamming,levenshtein"
# The slowest d at n = 200 takes under 1 s; the cost grows about as n^3.
CHECK_SIZE_CAP = 200
# The full table at n-max 30 (every d, every bound but lp) takes about 3 s
# on a 2-vCPU host.
TABLE_SIZE_CAP = 30
# 50,000 samples of the slowest curve (E, or fig2 near kappa1 = 1; 35-56 us a
# sample) take 1.7-2.8 s on a 2-vCPU host.
CURVE_SAMPLES_CAP = 50_000
# K's numerator and denominator take at most n + 8 bits, which admits every
# K = 2^k with |k| <= n.  Only the LP's right-hand side carries K's
# denominator, so K's length barely moves the cost: the slowest `lp --n 24`
# found took 0.42 s on a 2-vCPU host with such a K (0.41 s at K = 1), and
# the same LP solves with 166-bit parts 0.44 s.
K_BITS_OVER_N = 8


def _fmt(value) -> object:
    """JSON-friendly rendering; Fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _query_K(n: int, k: int | None, text: str | None) -> Fraction:
    """K = 2^k or the positive rational ``text``; refused past the size cap before it is formed."""
    if k is not None:
        bits = abs(k) + 1
    else:
        # Fraction forms 10^|e| for a decimal exponent e before its size can be
        # checked (1e3000000 takes 2 s); no K within the cap needs |e| >= 10^4
        _, e, exponent = text.lower().partition("e")
        if e and len(exponent.strip().lstrip("+-").replace("_", "").lstrip("0")) > 4:
            raise CapacityError("K has a decimal exponent of more than four digits")
        try:
            K = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"not a rational number: {text!r}") from exc
        bits = max(K.numerator.bit_length(), K.denominator.bit_length())
    cap = max(n, 0) + K_BITS_OVER_N
    if bits > cap:
        raise CapacityError(f"K has a {bits}-bit numerator or denominator, over the {cap}-bit cap")
    if k is None and K <= 0:
        raise ParameterError(f"K must be positive, got {K}")
    return K if k is None else Fraction(2) ** k


def _bound_names(command: str, text: str, allowed: Sequence[str]) -> list[str]:
    """The names of a --bounds list, each one of ``allowed``."""
    names = [b.strip() for b in text.split(",") if b.strip()]
    if not names:
        raise ParameterError(f"{command}: empty bound list")
    for i, name in enumerate(names):
        if name not in allowed:
            raise ParameterError(f"{command}: unknown bound {name!r}")
        if name in names[:i]:
            raise ParameterError(f"{command}: repeated bound {name!r}")
    return names


def _closed_form(name: str, n: int, d: int) -> bounds.BoundVerdict:
    return getattr(bounds, f"{name}_bound")(n, d)


def _verdict_payload(v: bounds.BoundVerdict) -> dict:
    payload = {
        "bound": v.bound_name,
        "applicable": v.applicable,
        "value_on_2nK": _fmt(v.value_on_2nK),
        "k_max": v.k_max,
        "passed": v.passed,
    }
    if v.reason:
        payload["reason"] = v.reason
    if v.notes:
        payload["notes"] = list(v.notes)
    if v.details:
        payload["details"] = _fmt(v.details)
    return payload


def _emit(payload: dict, fmt: str, meta: bool) -> None:
    if meta:
        payload = {"meta": {"tool": "qbounds", "version": __version__}, **payload}
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in _flatten_csv(payload):
            print(line)


def _flatten_csv(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_flatten_csv(value, prefix=f"{name}."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.extend(_flatten_csv(item, prefix=f"{name}[{i}]."))
        elif isinstance(value, list):
            lines.append(f"{name},{' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{name},{value}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    n, d = args.n, args.d
    if n > CHECK_SIZE_CAP:
        raise CapacityError(f"n={n} exceeds the check cap {CHECK_SIZE_CAP}")
    K = _query_K(n, args.k, args.K)
    names = _bound_names("check", args.bounds, CHECK_BOUNDS)
    if "lp" in names and n > bounds.LP_SIZE_CAP:
        raise CapacityError(f"check: lp bound capped at n <= {bounds.LP_SIZE_CAP}")
    if "degenerate_hamming" in names:
        if None in (args.k, args.k0, args.k1):
            raise ParameterError("check: degenerate_hamming needs --k, --k0 and --k1")
    elif (args.k0, args.k1) != (None, None):
        raise ParameterError("check: --k0 and --k1 need degenerate_hamming in --bounds")
    verdicts: list[bounds.BoundVerdict] = []
    for name in names:
        if name in CLOSED_FORM_BOUNDS:
            verdicts.append(_closed_form(name, n, d).judged_against(n, K))
        elif name == "lp":
            result = bounds.lp_feasible(n, K, d)
            verdict = bounds.BoundVerdict(
                bound_name="lp",
                applicable=True,
                passed=result.feasible,
                details={"certificate": result.certificate}
                if result.certificate
                else {"witness_B": result.witness_B},
            )
            verdicts.append(verdict)
        elif name == "degenerate_hamming":
            verdicts.append(
                bounds.degenerate_hamming_check(n, args.k, args.k0, args.k1, d)
            )
    best = bounds.strongest(verdicts)
    payload = {
        "query": {"n": n, "K": _fmt(K), "d": d},
        "verdicts": [_verdict_payload(v) for v in verdicts],
        "strongest": best.bound_name if best else None,
    }
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    names = _bound_names("table", args.bounds, TABLE_BOUNDS)
    for flag, value in (("n-max", args.n_max), ("d-max", args.d_max)):
        if value <= 0:
            raise ParameterError(f"table: {flag} must be positive, got {value}")
    if args.n_max > TABLE_SIZE_CAP:
        raise CapacityError(f"table: n-max capped at {TABLE_SIZE_CAP}")
    if "lp" in names and args.n_max > bounds.LP_SIZE_CAP:
        raise CapacityError(f"table: lp bound capped at n <= {bounds.LP_SIZE_CAP}")
    lines = []
    if args.meta:
        lines.append(f"# qbounds {__version__} table n<={args.n_max} d<={args.d_max}")
    lines.append("n,d," + ",".join(f"{name}_kmax" for name in names))
    for n in range(1, args.n_max + 1):
        for d in range(1, min(args.d_max, n) + 1):
            cells = []
            for name in names:
                if name == "lp":
                    critical = bounds.lp_critical_K(n, d)
                    k_max = None if critical is None else bounds.floor_log2(critical)
                else:
                    verdict = _closed_form(name, n, d)
                    k_max = verdict.k_max if verdict.applicable else None
                cells.append("-" if k_max is None else str(max(k_max, 0)))
            lines.append(f"{n},{d}," + ",".join(cells))
    print("\n".join(lines))  # built first, so a failure leaves stdout empty
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.code_file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParameterError(f"analyze: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"analyze: {args.code_file}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc
    code = gf4.parse_code(text)
    pair = gf4.enumerators(code)
    params = pair.params
    sf = code.form
    payload = {
        "file": args.code_file,
        "n": params.n,
        "k": params.k,
        "K": params.K,
        "d": params.d,
        "degenerate": params.degenerate,
        "standard_form": {"k0": sf.k0, "k1": sf.k1},
        "enumerators": {
            "A": list(pair.A),
            "B": list(pair.B),
            "transform_identity": "verified",
        },
        "reduction_targets": [
            {**asdict(t), "relation": "quantum d <= classical d"}
            for t in gf4.reduction_targets(sf)
        ],
        "reduction_witnesses": [
            {**asdict(w.target), "distance": w.distance, "sound": w.distance >= params.d}
            for w in gf4.reduction_witnesses(code)
        ],
    }
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_lp(args: argparse.Namespace) -> int:
    K = _query_K(args.n, None, args.K)
    result, critical = bounds.lp_feasible_and_critical_K(args.n, K, args.d)
    payload: dict = {
        "n": args.n,
        "K": _fmt(K),
        "d": args.d,
        "feasible": result.feasible,
    }
    if result.feasible:
        payload["witness_B"] = _fmt(result.witness_B)
        payload["witness_A"] = _fmt(result.witness_A)
    else:
        payload["certificate"] = _fmt(result.certificate)
    payload["critical_K"] = _fmt(critical) if critical is not None else None
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    if args.samples > CURVE_SAMPLES_CAP:
        raise CapacityError(
            f"samples={args.samples} exceeds the curves cap {CURVE_SAMPLES_CAP}"
        )
    points, meta = generate_curve(args.id, args.samples, args.kappa1, args.classical_bound)
    for line in meta:
        print(f"# {line}")
    if args.meta:
        print(f"# tool: qbounds {__version__}")
    print("delta,rate")
    for p in points:
        print(f"{p.delta:.9f},{p.rate:.9f}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results, ok = run_selftest()
    for name, passed, detail in results:
        print(f"{'ok' if passed else 'FAIL'} {name}: {detail}")
    passed_count = sum(1 for _, p, _ in results if p)
    print(f"selftest: {passed_count}/{len(results)} checks passed")
    return EXIT_OK if ok else EXIT_SELFTEST


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises its usage errors for ``main`` to report."""

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbounds",
        description="Exact upper bounds for quantum error-correcting code parameters.",
    )
    parser.add_argument("--version", action="version", version=f"qbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate bounds at one (n, K, d) point")
    p.add_argument("--n", type=int, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--k", type=int, help="log2 of the code-space dimension")
    size.add_argument("--K", type=str, help="code-space dimension, rational 'p/q'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k0", type=int, help="pair-pivot count for degenerate_hamming")
    p.add_argument("--k1", type=int, help="line-pivot count for degenerate_hamming")
    p.add_argument("--bounds", default=DEFAULT_CHECK_BOUNDS)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="k_max matrix over an (n, d) grid")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("analyze", help="full report for a code file")
    p.add_argument("code_file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lp", help="exact feasibility of the enumerator LP")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=str, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("curves", help="asymptotic curve CSV")
    p.add_argument("--id", required=True, choices=CURVE_IDS)
    p.add_argument("--kappa1", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classical-bound", help="delta,rate CSV replacing the built-in")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ParseError, StructureError, ParameterError) as exc:
        status, message = EXIT_USAGE, f"error: {exc}"
    except CapacityError as exc:
        status, message = EXIT_CAPACITY, f"capacity: {exc}"
    except (InvariantError, SolverError) as exc:
        status, message = EXIT_INTERNAL, f"internal: {exc}"
    except BrokenPipeError:
        # the reader has gone; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    # a message may quote an argument that holds a line break
    print(" ".join(message.splitlines()), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
