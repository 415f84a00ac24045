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

Each command is one row of ``COMMANDS`` (help text, argument adder,
handler), and ``main`` builds the parser with the subparser of the command
that ``argv[0]`` names and no other; any other argv gets every subparser,
so help texts and error lines read the same either way.  Only ``check``,
``table``, ``lp`` and ``selftest`` import ``bounds``, only ``analyze``
``gf4``, only ``curves`` ``asymptotic`` and only ``selftest`` its suite, so
each command starts without the layers it does not run; ``fractions`` loads
only where a K is parsed or a Fraction printed, so never for ``curves``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import __version__
from .errors import (
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    SolverError,
    StructureError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from . import bounds

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
# 50,000 samples of the slowest curves (E, D, or fig2 near kappa1 = 1; 37-51 us
# a sample) take 1.9-2.5 s on a 2-vCPU host whose CPU runs the benchmark's
# calibration kernel about 1.7 times slower than its reference; A, which
# evaluates its classical bound once per sample, takes 0.5-0.6 s.
CURVE_SAMPLES_CAP = 50_000
# K's numerator and denominator take at most 4096 bits, from LP_SIZE_CAP's
# budget of about 0.4 s: only the LP's right-hand side carries K's
# denominator, so the slowest `lp --n 24` (d = 4) took 0.17-0.22 s at K = 1,
# 0.17-0.18 s with 4096-bit parts and 0.20-0.22 s with 8192-bit parts on a
# 2-vCPU host; `check` with every bound costs the same, and at n = 5 and 16
# every d takes under 0.05 s.
K_BITS_CAP = 4096
# A K under K_BITS_CAP takes at most 4096 digits in the text of its numerator
# and of its denominator, the digits on both sides of a decimal point counted
# (p / 2^4095 as a decimal takes 4096).  A text with more is refused before
# Fraction converts it, as Python refuses more than 4,300 digits with a
# ValueError.
K_DIGITS_CAP = 4096


def _query_K(k: int | None, text: str | None) -> Fraction:
    """K = 2^k or the positive rational ``text``; refused past the size cap before it is formed."""
    from fractions import Fraction

    if k is not None:
        bits = abs(k) + 1
    else:
        # Fraction forms 10^|e| for a decimal exponent e before its size can be
        # checked (1e3000000 takes 2 s); no K within the cap needs |e| >= 10^4
        mantissa, e, exponent = text.lower().partition("e")
        if e and len(exponent.strip().lstrip("+-").replace("_", "").lstrip("0")) > 4:
            raise CapacityError("K has a decimal exponent of more than four digits")
        digits = max(sum(ch.isdecimal() for ch in part) for part in mantissa.split("/"))
        if digits > K_DIGITS_CAP:
            raise CapacityError(
                f"K has a {digits}-digit numerator or denominator, over the {K_DIGITS_CAP}-digit cap"
            )
        try:
            K = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"not a rational number: {text!r}") from exc
        bits = max(K.numerator.bit_length(), K.denominator.bit_length())
    if bits > K_BITS_CAP:
        raise CapacityError(
            f"K has a {bits}-bit numerator or denominator, over the {K_BITS_CAP}-bit cap"
        )
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
    from . import bounds

    return getattr(bounds, f"{name}_bound")(n, d)


def _verdict_payload(v: bounds.BoundVerdict) -> dict:
    payload = {
        "bound": v.bound_name,
        "applicable": v.applicable,
        "value_on_2nK": v.value_on_2nK,
        "k_max": v.k_max,
        "passed": v.passed,
    }
    if v.reason:
        payload["reason"] = v.reason
    if v.notes:
        payload["notes"] = v.notes
    if v.details:
        payload["details"] = v.details
    return payload


def _json_default(value) -> str:
    """A Fraction renders as 'p/q'; any other value json cannot encode is refused."""
    if hasattr(value, "denominator"):  # json encodes ints itself, so only a Fraction
        return str(value)
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _emit(payload: dict, fmt: str, meta: bool) -> None:
    if meta:
        payload = {"meta": {"tool": "qbounds", "version": __version__}, **payload}
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        for line in _flatten_csv(payload):
            print(line)


def _flatten_csv(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_flatten_csv(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.extend(_flatten_csv(item, prefix=f"{name}[{i}]."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{name},{' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{name},{value}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    from . import bounds

    n, d = args.n, args.d
    if n > CHECK_SIZE_CAP:
        raise CapacityError(f"n={n} exceeds the check cap {CHECK_SIZE_CAP}")
    K = _query_K(args.k, args.K)
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
        "query": {"n": n, "K": K, "d": d},
        "verdicts": [_verdict_payload(v) for v in verdicts],
        "strongest": best.bound_name if best else None,
    }
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    from . import bounds

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
    from . import gf4

    try:
        with open(args.code_file, encoding="utf-8-sig") as handle:
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
            "A": pair.A,
            "B": pair.B,
            "transform_identity": "verified",
        },
        "reduction_targets": [
            {**vars(t), "relation": "quantum d <= classical d"}
            for t in gf4.reduction_targets(sf)
        ],
        "reduction_witnesses": [
            {**vars(w.target), "distance": w.distance, "sound": w.distance >= params.d}
            for w in gf4.reduction_witnesses(code)
        ],
    }
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_lp(args: argparse.Namespace) -> int:
    from . import bounds

    K = _query_K(None, args.K)
    result, critical = bounds.lp_feasible_and_critical_K(args.n, K, args.d)
    payload: dict = {"n": args.n, "K": K, "d": args.d, "feasible": result.feasible}
    if result.feasible:
        payload["witness_B"] = result.witness_B
        payload["witness_A"] = result.witness_A
    else:
        payload["certificate"] = result.certificate
    payload["critical_K"] = critical
    _emit(payload, args.format, args.meta)
    return EXIT_OK


def cmd_curves(args: argparse.Namespace) -> int:
    if args.samples > CURVE_SAMPLES_CAP:
        raise CapacityError(
            f"samples={args.samples} exceeds the curves cap {CURVE_SAMPLES_CAP}"
        )
    if args.kappa1 is not None and args.id != "fig2":
        raise ParameterError("curves: --kappa1 needs --id fig2")
    from .asymptotic import generate_curve

    kappa1 = 0.0 if args.kappa1 is None else args.kappa1
    points, meta = generate_curve(args.id, args.samples, kappa1, args.classical_bound)
    for line in meta:
        print(f"# {line}")
    if args.meta:
        print(f"# tool: qbounds {__version__}")
    sys.stdout.write("delta,rate\n" + "".join(f"{p.delta:.9f},{p.rate:.9f}\n" for p in points))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

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


def _check_arguments(p: argparse.ArgumentParser) -> None:
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


def _table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--meta", action="store_true")


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("code_file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--meta", action="store_true")


def _lp_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=str, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--meta", action="store_true")


def _curves_arguments(p: argparse.ArgumentParser) -> None:
    from .asymptotic import CURVE_IDS

    p.add_argument("--id", required=True, choices=CURVE_IDS)
    p.add_argument("--kappa1", type=float, help="fig2 only; default 0")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classical-bound", help="delta,rate CSV replacing the built-in")
    p.add_argument("--meta", action="store_true")


def _no_arguments(p: argparse.ArgumentParser) -> None:
    pass


# name -> (help, argument adder, handler), in the order --help lists them
COMMANDS = {
    "check": ("evaluate bounds at one (n, K, d) point", _check_arguments, cmd_check),
    "table": ("k_max matrix over an (n, d) grid", _table_arguments, cmd_table),
    "analyze": ("full report for a code file", _analyze_arguments, cmd_analyze),
    "lp": ("exact feasibility of the enumerator LP", _lp_arguments, cmd_lp),
    "curves": ("asymptotic curve CSV", _curves_arguments, cmd_curves),
    "selftest": ("run the invariant suite", _no_arguments, cmd_selftest),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` alone, or of every command.

    ``command`` None or a name that is no command gets every subparser, so
    ``--help`` and the usage errors of a bad command list them all.
    """
    parser = _Parser(
        prog="qbounds",
        description="Exact upper bounds for quantum error-correcting code parameters.",
    )
    parser.add_argument("--version", action="version", version=f"qbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in COMMANDS else COMMANDS:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
