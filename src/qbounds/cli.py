"""Command-line surface.

Subcommands: ``check`` (bounds at one parameter point), ``table`` (k_max
matrix over a parameter grid), ``analyze`` (full report for a code file),
``lp`` (exact feasibility with witness/certificate), ``curves``
(asymptotic curve CSV), ``selftest`` (invariant suite).

Exit codes: 0 success (verdicts live in the payload), 1 selftest failure,
2 usage/parse/structure error, 3 capacity exceeded, 4 internal error (a
failed exact identity or solve, which is a bug: one ``internal:`` line on
stderr).  A reader that closes stdout early (``| head``) ends the command
quietly with exit 0.  Output is deterministic: no timestamps; ``--meta``
adds fixed provenance headers.  Rationals render as 'p/q'.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__, bounds, gf4
from .asymptotic import CurveSpec, generate_curve, load_classical_bound_csv
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

CHECK_BOUNDS = ("singleton", "hamming", "levenshtein", "lp", "degenerate_hamming")
DEFAULT_CHECK_BOUNDS = "singleton,hamming,levenshtein"
# The slowest d at n = 200 takes under 1 s; the cost grows about as n^3.
CHECK_SIZE_CAP = 200
# The full table at n-max 30 (every d, every bound but lp) takes about 3 s
# on a 2-vCPU host.
TABLE_SIZE_CAP = 30


def _fmt(value) -> object:
    """JSON-friendly rendering; Fractions become 'p/q' strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"not a rational number: {text!r}") from exc


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
    if (args.k is None) == (args.K is None):
        print("check: provide exactly one of --k or --K", file=sys.stderr)
        return EXIT_USAGE
    K = Fraction(2) ** args.k if args.k is not None else _parse_rational(args.K)
    if K <= 0:
        print(f"check: K must be positive, got {K}", file=sys.stderr)
        return EXIT_USAGE
    names = [b.strip() for b in args.bounds.split(",") if b.strip()]
    if not names:
        print("check: empty bound list", file=sys.stderr)
        return EXIT_USAGE
    for name in names:
        if name not in CHECK_BOUNDS:
            print(f"check: unknown bound {name!r}", file=sys.stderr)
            return EXIT_USAGE
    if "lp" in names and n > bounds.LP_SIZE_CAP:
        print(f"check: lp bound capped at n <= {bounds.LP_SIZE_CAP}", file=sys.stderr)
        return EXIT_CAPACITY
    verdicts: list[bounds.BoundVerdict] = []
    for name in names:
        if name == "singleton":
            verdicts.append(bounds.singleton_bound(n, d).judged_against(n, K))
        elif name == "hamming":
            verdicts.append(bounds.hamming_bound(n, d).judged_against(n, K))
        elif name == "levenshtein":
            verdicts.append(bounds.levenshtein_bound(n, d).judged_against(n, K))
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
            if args.k0 is None or args.k1 is None:
                print(
                    "check: degenerate_hamming needs --k0 and --k1", file=sys.stderr
                )
                return EXIT_USAGE
            if args.k is None:
                print("check: degenerate_hamming needs --k", file=sys.stderr)
                return EXIT_USAGE
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
    names = [b.strip() for b in args.bounds.split(",") if b.strip()]
    if not names:
        print("table: empty bound list", file=sys.stderr)
        return EXIT_USAGE
    for name in names:
        if name not in ("singleton", "hamming", "levenshtein", "lp"):
            print(f"table: unknown bound {name!r}", file=sys.stderr)
            return EXIT_USAGE
    for flag, value in (("n-max", args.n_max), ("d-max", args.d_max)):
        if value <= 0:
            print(f"table: {flag} must be positive, got {value}", file=sys.stderr)
            return EXIT_USAGE
    if args.n_max > TABLE_SIZE_CAP:
        print(f"table: n-max capped at {TABLE_SIZE_CAP}", file=sys.stderr)
        return EXIT_CAPACITY
    if "lp" in names and args.n_max > bounds.LP_SIZE_CAP:
        print(f"table: lp bound capped at n <= {bounds.LP_SIZE_CAP}", file=sys.stderr)
        return EXIT_CAPACITY
    if args.meta:
        print(f"# qbounds {__version__} table n<={args.n_max} d<={args.d_max}")
    print("n,d," + ",".join(f"{name}_kmax" for name in names))
    for n in range(1, args.n_max + 1):
        for d in range(1, min(args.d_max, n) + 1):
            cells = []
            for name in names:
                if name == "singleton":
                    verdict = bounds.singleton_bound(n, d)
                elif name == "hamming":
                    verdict = bounds.hamming_bound(n, d)
                elif name == "levenshtein":
                    verdict = bounds.levenshtein_bound(n, d)
                else:
                    critical = bounds.lp_critical_K(n, d)
                    if critical is None:
                        cells.append("-")
                        continue
                    value = (Fraction(2) ** n) * critical
                    cells.append(str(max(bounds.floor_log2(value) - n, 0)))
                    continue
                if not verdict.applicable:
                    cells.append("-")
                else:
                    cells.append(str(max(verdict.k_max, 0)))
            print(f"{n},{d}," + ",".join(cells))
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.code_file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        print(f"analyze: {args.code_file}: not UTF-8 ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return EXIT_USAGE
    code = gf4.parse_code(text)
    pair = gf4.enumerators(code)
    params = pair.params
    sf = gf4.standard_form(code)
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
            {
                "kind": t.kind,
                "length": t.length,
                "dimension": t.dimension,
                "restricted": t.restricted,
                "relation": "quantum d <= classical d",
            }
            for t in gf4.reduction_targets(sf, params)
        ],
        "reduction_witnesses": [
            {
                "kind": w.target.kind,
                "length": w.target.length,
                "dimension": w.target.dimension,
                "restricted": w.target.restricted,
                "distance": w.distance,
                "sound": w.distance >= params.d,
            }
            for w in gf4.reduction_witnesses(code, sf, params)
        ],
    }
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_lp(args: argparse.Namespace) -> int:
    K = _parse_rational(args.K)
    result = bounds.lp_feasible(args.n, K, args.d)
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
    critical = bounds.lp_critical_K(args.n, args.d)
    payload["critical_K"] = _fmt(critical) if critical is not None else None
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    classical = None
    label = ""
    if args.classical_bound:
        classical = load_classical_bound_csv(args.classical_bound)
        label = f"table:{args.classical_bound}"
    spec = CurveSpec(
        curve_id=args.id,
        samples=args.samples,
        kappa1=args.kappa1,
        classical_bound=classical,
        classical_label=label,
    )
    points, meta = generate_curve(spec)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbounds",
        description="Exact upper bounds for quantum error-correcting code parameters.",
    )
    parser.add_argument("--version", action="version", version=f"qbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate bounds at one (n, K, d) point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="log2 of the code-space dimension")
    p.add_argument("--K", type=str, help="code-space dimension, rational 'p/q'")
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
    p.add_argument("--id", required=True, choices=("A", "B", "D", "E", "hamming-degenerate", "fig2"))
    p.add_argument("--kappa1", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classical-bound", help="delta,rate CSV replacing the built-in")
    p.add_argument("--meta", action="store_true")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ParseError, StructureError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvariantError, SolverError) as exc:
        print(f"internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader has gone; the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
