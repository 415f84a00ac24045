"""Command-line surface: payloads, exit codes, determinism."""

import argparse
import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import qbounds
from qbounds import bounds, cli, gf4
from qbounds.bounds import LP_SIZE_CAP
from qbounds.cli import (
    CHECK_SIZE_CAP,
    COMMANDS,
    CURVE_SAMPLES_CAP,
    EXIT_INTERNAL,
    K_BITS_CAP,
    TABLE_SIZE_CAP,
    build_parser,
    main,
)
from qbounds.errors import InvariantError, ParameterError, SolverError
from qbounds.selftest import fixture_manifest, fixture_text

# sha256 of stdout, recorded from the power-basis / Sturm-chain implementation
# that the integer Krawtchouk table replaced; output must stay byte-identical.
GOLDEN_TABLE = "8ffdf7e783464fe33d97e9f0f97ba7edd0bcae645a600f0071da78950588b7da"
GOLDEN_CHECK = {
    2: "1e1a0013f49f8637a43115984ede5dec865cd1986e0c2e1b5f9ace79a02dbe0d",
    3: "f8141bfc4e96a353bbb9438ce10e2e084f2bd8fb0dac3a59a6f697c005c721e5",
    4: "472b9b96ca7d5f519c63d9c35bb8f401572ec075311c4df307a4cf72d1856c04",
    5: "239f385d79bbf98c8b4118450fb3049e2aa121b9b22d7484410612b462925475",
    6: "37b5ae5fb7bb43e48dbd66c6ed5aaf785adac68bed1734d1227ea208aa10eb54",
    7: "dd24e100ffdddcc8f739da010e4110a054f000c71d5b7e8b9d84abd2b4e8e6e5",
    8: "392bb3cf467e65c287e979da593b25facc3dcf66ec2e11a4f578296e373fa27c",
    9: "d9c26ba8abfc58f1d2f77d7eef9a5893992940bbde7764240090f15985cea677",
    10: "de0ac3e6306f29eeba3e4fcd3601ed008dc2c861db75acfb7f01ef316fbced9e",
}
GOLDEN_ANALYZE = {
    "c422.code": "732b8b58496304fd59cfc50fd6e58469261dfe17c79a80702a929ca1c8ad9a12",
    "five_qubit.code": "e5dd7fb658f23b3db191f7e7ef51f65b9a7dfa8fad1c71d626aaa95b012ea360",
    "omega_line.code": "176111f46b3a98fe816c6704e3f4d55eb194d0a456a496f18afac4b919319bbd",
    "steane.code": "f9b8c7ea7069380c33b1007a63021628b52affe8ebcf4860ffb62bd9c92a4397",
    "xx_zz.code": "32b782c6bd94b83ca0eea18834e6075077eaf6e5b8061a91c1aee6eff52acd88",
}

# sha256 of `analyze` stdout on gf4.random_self_orthogonal_code(n, rank,
# random.Random(seed)), keyed by (n, rank, seed), recorded from the nested
# coset scan that reading d off the enumerator pair replaced.  The set holds
# k = 0 through 3, k1 = 0 through 3 and four degenerate codes.
GOLDEN_ANALYZE_RANDOM = {
    (5, 3, 20): "08ecc939dafbcd46583c6a18347c61b93f342713da722abcae3c49567fdd0a38",
    (6, 4, 26): "c29407fa8e267338270b78ea3fe1bc5135040b7b4e92787299791f56b3b7860f",
    (6, 5, 13): "8107152ddf5386cf2b3b5f4f812877d07d2eef42f48c10cb5fdf75bf3ec20600",
    (6, 6, 0): "392536038c3290aa512ddb30b42e237d32dc989a63b1662c9ebbb09dc527cb9d",
    (9, 8, 32): "360ebc61e098f49468a6e2d22f1d45e8a137cfa15c009a485f5e0c3b33dae653",
    (10, 7, 17): "bd41b7c7ad1700db607c0e55f15c83b4e7a4e28670162b55074cedfc5b51e457",
    (10, 8, 22): "613434a09a4123d81703c3d5a200920e6f82ea60a6534246bd919fc457172f6d",
    (10, 8, 26): "759b0a20c5b66a1565a05d04d10e588fc229fab89abb014d1d2dd9d77a487954",
}
# the same digest for codes whose dual, of rank 15 through 20, is counted
# at or above gf4.PARALLEL_RANK, recorded while the count forked one
# process per CPU
GOLDEN_ANALYZE_SPLIT = {
    (9, 3, 15): "b35b7e2978eeab2150730a8150a003e72481ff1fbc6878faa5af45bdd8a37526",
    (9, 2, 16): "90a74db85f72a491469cf540b38d5dd41862ec52e1d173ccfbc00dcd29ff87e7",
    (10, 3, 17): "856a5f44217d54daeacfcb251f6be17546e93e0869fbffcd74d3daefa6269f67",
    (10, 2, 18): "2862a90420d4e0129e8aa900f6e4a805e0bcfeb00315d490d0da5f1f38fabbc6",
    (11, 3, 19): "0441711bfe3dc9537168bd67b4bdd08a77a745f9f38cc57871df8ce96b47c162",
    (12, 4, 20): "5f661ee718a1248a41de07694d0ac3c7e403018c0845f9a4f528ea0746ec0009",
}

# sha256 of the concatenated stdout of `lp` at d = 2..4, each with K = 1 (feasible
# except at (5, 4), which admits no K) and K = Singleton ceiling + 1/2 (infeasible),
# recorded from the Fraction-tableau simplex that fraction-free pivoting replaced:
# witnesses and certificates must stay byte-identical.
GOLDEN_LP = {
    5: "020e3ca84b22dd8883c445c763ff4acd7f5ccd3a2b0f4738c8f10b01a435bec5",
    6: "81b658be03ffc1a49ae7c3d9ccaba5c775e40114e9d02648b711e52619a8cb51",
    7: "2fb809305ae671bfe5efc1df6b79e307a38808a25c6fd1878f23d74433cbad97",
    8: "dc3160ce350f3c044e7c1daaff15d5536af315b257817eacf90d8c320db9a915",
    9: "17c8e4802de95a21b178773621fb2ee6a9ed31495a03a7c4f34fd2d30bdc249e",
    10: "32a49584d363d01b46eecc676c37356c4e7b3c9d88a8b11490f8caf8db339ff9",
}

# sha256 of the concatenated stdout, at d = 2..4, of `check --bounds lp` with K = 1,
# 7/3, the Singleton ceiling + 1/2 and 2^(-n-1), then of `lp` at K = 2^(-n-1), where
# no feasibility simplex runs; recorded from the implementation that built the
# enumerator LP's rows and checks in separate helpers: witnesses, certificates, a
# rational K and the branch below 2^-n must stay byte-identical.
GOLDEN_CHECK_LP = {
    5: "f3c6a85c88d5208233a0476c863d7cf7b8c96dd275ac86f89c209313907564ec",
    6: "34195e40cc4b845b829b0f86574d4fe86d6d5aa7c76983a807a42c8fff1b6136",
    7: "3f9577abf3595be92ac9a93d014eddeda3f3bdbeb00911e5e079e68240dfe8d3",
    8: "cc1a110632ee07945595dfc0965a24e03496e9fd469df32e2e8d74cda65c1797",
    9: "d748d63fbb77926f21c1be8098952eda23f0bf9ce4fdfaa01c8df4a3ac24b730",
    10: "c948f7619c517b21bb72c5f6548194b9c8886852b9c544c8d35d1266c38f07d4",
}


# sha256 of the concatenated stdout of `curves --id <id>` at --samples 2, 17 and
# 333 (fig2 at each of --kappa1 0, 0.4 and 1), keyed by (id, classical), where
# classical adds --classical-bound CLASSICAL_CSV; recorded from the four separate
# bisection loops that one shared bisection replaced: curves must stay
# byte-identical.
GOLDEN_CURVES = {
    ("A", False): "35c023ae9885963306739a65f4d2c483b33baad137a4e7222fdb9459cab5c434",
    ("B", False): "711588d8086b91bdb40408c180946e2255e66d999996b166a636cb9d8417fda2",
    ("D", False): "26dc809ba3b91ed4b5d78f898d052118480648d9ee5a8a9ca92ebef44c46bc0f",
    ("E", False): "0573dbca839cbbfa5fce2c072107d7c02eafd5aaaa26ca3f6b3e418be11d0fb5",
    ("hamming-degenerate", False):
        "fa6aeb78d31b44f02e26422fc20735fdccff733e915372ff7b55bd32546ea0b2",
    ("fig2", False): "7244736d5051aee91e76c549b22ad75ec77085bec781d5edd3b8e169077c3777",
    ("A", True): "4def0febb42e7decb6afee76dd6ce9283a14cb70fa632c0dd8b4b595161bb7c4",
    ("D", True): "dfccdc14e879322d156f47acde48178e616c6b89e1f23a4ea4cb529b33779124",
    ("E", True): "7a34e38d765c60b48d3811b92367446fc97c671cdd4fca755bd024a445794925",
    ("fig2", True): "a75a15cecd74490841f9838d240cf6da2b91cf2078d387293aff133a28aaa280",
}
CLASSICAL_CSV = "delta,rate\n0.0,1.0\n0.1,0.72\n0.2,0.45\n0.3,0.21\n0.45,0.04\n0.6,0.0\n"

# sha256 of stdout for rendering paths the digests above leave out: the CSV of an
# LP witness and certificate (through `check` and `lp`), of `analyze`'s nested
# records, and the JSON of degenerate_hamming's notes and details; recorded from
# the implementation that copied each payload to turn Fractions into strings
# before printing it.
GOLDEN_RENDER = {
    "check-csv-lp-witness": (
        ("check", "--n", "9", "--K", "7/3", "--d", "4",
         "--bounds", "singleton,hamming,levenshtein,lp", "--format", "csv"),
        "797b28092e59e0aa2f78f146ff0ca5658e6447e8274904283f6a22a9a744b6c9"),
    "check-csv-lp-certificate": (
        ("check", "--n", "9", "--K", "181/16", "--d", "4", "--bounds", "lp", "--format", "csv"),
        "d25c3194669fcd27a8ec0ace7da17ab54a2698506549f619c85459ebe7aae994"),
    "lp-csv-feasible": (
        ("lp", "--n", "9", "--K", "7/3", "--d", "4", "--format", "csv"),
        "e5b618a0251df99892155934708cc0f43c312f56c1bd786868daf6075b10c053"),
    "lp-csv-infeasible": (
        ("lp", "--n", "9", "--K", "181/16", "--d", "4", "--format", "csv"),
        "c8ef4c0614f0f0723cd1b0ec29e3dbd575b33419631ed53ee5c55b759a9e1163"),
    "analyze-csv-five-qubit": (
        ("analyze", "five_qubit.code", "--format", "csv"),
        "00422df06f97b8f341c99f29df7cc5a79f71994821527cf125dcae32cbb0fadf"),
    "check-json-degenerate-hamming-k1-0": (
        ("check", "--n", "5", "--k", "1", "--d", "3",
         "--bounds", "degenerate_hamming", "--k0", "2", "--k1", "0"),
        "ffc954423a2deb577877f178af2592a5963b3c8d3f87381c3685363269231709"),
    "check-json-degenerate-hamming-k1-2": (
        ("check", "--n", "5", "--k", "1", "--d", "3",
         "--bounds", "degenerate_hamming", "--k0", "1", "--k1", "2"),
        "f084ed13388f94f86bb889540e80741311d59c42a6021beb4ecde9540ee61fae"),
}


@pytest.fixture()
def five_qubit_file(tmp_path):
    path = tmp_path / "five_qubit.code"
    path.write_text(fixture_text("five_qubit.code"), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_existing_code_passes_everywhere(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "--k", "1", "--d", "3",
                       "--bounds", "singleton,hamming,levenshtein,lp")
    assert code == 0
    payload = json.loads(out)
    assert all(v["passed"] for v in payload["verdicts"])
    assert payload["strongest"] in ("singleton", "hamming")


def test_check_hamming_rejects_k2(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "--k", "2", "--d", "3")
    assert code == 0  # verdicts live in the payload
    payload = json.loads(out)
    hamming = next(v for v in payload["verdicts"] if v["bound"] == "hamming")
    assert hamming["passed"] is False


def test_check_trivial_distance_passes(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "--k", "1", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    for v in payload["verdicts"]:
        assert v["passed"] is True or v["applicable"] is False


def test_check_rational_K_and_degenerate_hamming(capsys):
    code, out, _ = run(capsys, "check", "--n", "5", "--k", "1", "--d", "3",
                       "--k0", "2", "--k1", "0",
                       "--bounds", "degenerate_hamming")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"][0]["passed"] is True


# code files the failure rows below name, written to the working directory;
# one row of length n has a dual of rank 2n - 1, just over the enumeration cap
FAILURE_FILES = {
    "bad.code": "XZQ\n".encode("utf-8"),
    "nso.code": "XX\nZX\n".encode("utf-8"),
    "latin1.code": "XZZXI # Ä\n".encode("latin-1"),
    "wide.code": ("X" * (gf4.ENUMERATION_CAP // 2 + 1) + "\n").encode("utf-8"),
    "zero.code": "IIII\nXXXX\n".encode("utf-8"),
}
CHECK_5 = ("check", "--n", "5", "--d", "3")
TABLE_4 = ("table", "--n-max", "4", "--d-max", "4")
FAILURES = [
    # the argument parser
    (("check", "--n", "x", "--k", "1", "--d", "3"), 2,
     "error: qbounds check: argument --n: invalid int value: 'x'"),
    (("lp", "--n", "5", "--d", "3"), 2,
     "error: qbounds lp: the following arguments are required: --K"),
    ((), 2, "error: qbounds: the following arguments are required: command"),
    (CHECK_5 + ("--k", "1", "extra\nline"), 2, "error: qbounds: unrecognized arguments"),
    (CHECK_5 + ("--k", "1", "--K", "2"), 2,
     "error: qbounds check: argument --K: not allowed with argument --k"),
    (CHECK_5, 2, "error: qbounds check: one of the arguments --k --K is required"),
    (("curves", "--id", "Z"), 2, "error: qbounds curves: argument --id: invalid choice"),
    # bound lists and grid limits
    (CHECK_5 + ("--k", "1", "--bounds", ""), 2, "error: check: empty bound list"),
    (CHECK_5 + ("--k", "1", "--bounds", "nope"), 2, "error: check: unknown bound 'nope'"),
    (TABLE_4 + ("--bounds", " "), 2, "error: table: empty bound list"),
    (TABLE_4 + ("--bounds", "degenerate_hamming"), 2, "error: table: unknown bound"),
    (CHECK_5 + ("--k", "1", "--bounds", "singleton,singleton"), 2,
     "error: check: repeated bound 'singleton'"),
    (TABLE_4 + ("--bounds", "lp,hamming, lp"), 2, "error: table: repeated bound 'lp'"),
    (("table", "--n-max", "0", "--d-max", "3", "--bounds", "singleton"), 2,
     "error: table: n-max must be positive, got 0"),
    (("table", "--n-max", "4", "--d-max", "-2", "--bounds", "singleton"), 2,
     "error: table: d-max must be positive, got -2"),
    # K, the degenerate Hamming counts and kappa1
    (("check", "--n", "5", "--K", "-1", "--d", "3"), 2, "error: K must be positive, got -1"),
    (("lp", "--n", "5", "--K", "0", "--d", "3"), 2, "error: K must be positive, got 0"),
    (CHECK_5 + ("--k", "1", "--bounds", "degenerate_hamming"), 2,
     "error: check: degenerate_hamming needs --k, --k0 and --k1"),
    (CHECK_5 + ("--K", "2", "--k0", "2", "--k1", "0", "--bounds", "degenerate_hamming"), 2,
     "error: check: degenerate_hamming needs --k, --k0 and --k1"),
    (CHECK_5 + ("--k", "1", "--k0", "9", "--k1", "9"), 2,
     "error: check: --k0 and --k1 need degenerate_hamming in --bounds"),
    (CHECK_5 + ("--k", "1", "--k1", "0", "--bounds", "singleton,lp"), 2,
     "error: check: --k0 and --k1 need degenerate_hamming in --bounds"),
    (("curves", "--id", "B", "--kappa1", "5"), 2, "error: curves: --kappa1 needs --id fig2"),
    (("curves", "--id", "E", "--kappa1", "0.3"), 2, "error: curves: --kappa1 needs --id fig2"),
    # code files
    (("analyze", "missing.code"), 2, "error: analyze: [Errno 2] No such file or directory"),
    (("analyze", "latin1.code"), 2, "error: analyze: latin1.code: not UTF-8"),
    (("analyze", "bad.code"), 2, "error: line 1: "),
    (("analyze", "zero.code"), 2, "error: line 1: row is zero\n"),
    (("analyze", "nso.code"), 2, "error: code is not self-orthogonal"),
    # every cap
    (("check", "--n", str(CHECK_SIZE_CAP + 1), "--k", "1", "--d", "3"), 3,
     f"capacity: n={CHECK_SIZE_CAP + 1} exceeds the check cap"),
    (("check", "--n", str(LP_SIZE_CAP + 1), "--k", "1", "--d", "3", "--bounds", "lp"), 3,
     f"capacity: check: lp bound capped at n <= {LP_SIZE_CAP}"),
    (CHECK_5 + ("--k", "20000"), 3, "capacity: K has a 20001-bit numerator"),
    (("lp", "--n", str(LP_SIZE_CAP + 1), "--K", "1", "--d", "3"), 3,
     f"capacity: n={LP_SIZE_CAP + 1} exceeds the exact-LP cap"),
    (("table", "--n-max", str(TABLE_SIZE_CAP + 1), "--d-max", "3", "--bounds", "singleton"), 3,
     f"capacity: table: n-max capped at {TABLE_SIZE_CAP}"),
    (("table", "--n-max", str(LP_SIZE_CAP + 1), "--d-max", "3", "--bounds", "lp"), 3,
     f"capacity: table: lp bound capped at n <= {LP_SIZE_CAP}"),
    (("curves", "--id", "E", "--samples", str(CURVE_SAMPLES_CAP + 1)), 3,
     f"capacity: samples={CURVE_SAMPLES_CAP + 1} exceeds the curves cap"),
    (("analyze", "wide.code"), 3, f"capacity: rank {gf4.ENUMERATION_CAP + 1} exceeds"),
]


@pytest.mark.parametrize("argv, status, prefix", FAILURES,
                         ids=[" ".join(argv)[:40] or "no command" for argv, _, _ in FAILURES])
def test_every_failure_is_one_stderr_line(capsys, tmp_path, monkeypatch, argv, status, prefix):
    monkeypatch.chdir(tmp_path)
    for name, body in FAILURE_FILES.items():
        (tmp_path / name).write_bytes(body)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (status, "")
    assert err.startswith(prefix) and len(err.splitlines()) == 1 and err.endswith("\n")


# argument lists the other tests run successfully, one or more per command
ACCEPTED = [
    ("check", "--n", "5", "--k", "1", "--d", "3", "--bounds", "singleton,hamming,levenshtein,lp"),
    ("check", "--n", "5", "--k", "1", "--d", "3", "--k0", "2", "--k1", "0",
     "--bounds", "degenerate_hamming"),
    ("check", "--n", "20", "--K", "7/3", "--d", "4", "--format", "csv", "--meta"),
    ("table", "--n-max", "12", "--d-max", "6", "--bounds", "singleton,hamming,levenshtein,lp"),
    ("table", "--n-max", "3", "--d-max", "2", "--bounds", "lp", "--meta"),
    ("analyze", "five_qubit.code"),
    ("analyze", "five_qubit.code", "--format", "csv", "--meta"),
    ("lp", "--n", "5", "--K", "4", "--d", "3"),
    ("lp", "--n", "7", "--K", "5", "--d", "3", "--format", "csv", "--meta"),
    ("curves", "--id", "E", "--samples", "100"),
    ("curves", "--id", "fig2", "--kappa1", "0", "--samples", "40",
     "--classical-bound", "classical.csv", "--meta"),
    ("selftest",),
]


def parsed(parser, argv):
    """The Namespace ``parser`` makes of ``argv``, or the one line it refuses it with."""
    try:
        return parser.parse_args(list(argv))
    except ParameterError as exc:
        return f"error: {exc}"


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("argv", ACCEPTED + [argv for argv, _, _ in FAILURES if argv],
                         ids=lambda argv: " ".join(argv)[:40])
def test_command_parser_reads_argv_as_the_full_parser(argv):
    alone, full = build_parser(argv[0]), build_parser()
    assert list(subparsers(alone)) == [argv[0]]
    assert parsed(alone, argv) == parsed(full, argv)


@pytest.mark.parametrize("name", COMMANDS)
def test_command_parser_help_matches_the_full_parser(name):
    alone = subparsers(build_parser(name))[name]
    assert alone.format_help() == subparsers(build_parser())[name].format_help()


@pytest.mark.parametrize("argv", [(), ("-h",), ("--version",), ("nope",), ("--n", "5")])
def test_argv_without_a_command_gets_every_subparser(argv):
    parser = build_parser(argv[0] if argv else None)
    assert list(subparsers(parser)) == list(COMMANDS)
    assert parser.format_help() == build_parser().format_help()


@pytest.mark.parametrize("argv", ACCEPTED[:1] + [("lp", "--n", "5", "--d", "3")])
def test_main_builds_one_subparser_for_a_command(capsys, monkeypatch, argv):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def recorded(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recorded)
    run(capsys, *argv)
    assert added == [argv[0]]


def test_commands_register_every_handler_once():
    handlers = [handler.__name__ for _, _, handler in COMMANDS.values()]
    assert handlers == [f"cmd_{name}" for name in COMMANDS]
    assert sorted(handlers) == sorted(name for name in vars(cli) if name.startswith("cmd_"))


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        main([flag])
    captured = capsys.readouterr()
    assert stop.value.code == 0 and captured.out and captured.err == ""


def _stderr_uses(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr == "stderr" and isinstance(node.value, ast.Name)
            and node.value.id == "sys"]


def test_main_alone_writes_stderr():
    # every failure reaches the user through the one report in cli.main
    outside = []
    for path in sorted(Path(qbounds.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        uses = _stderr_uses(tree)
        if path.name == "cli.py":
            reporter = next(node for node in tree.body
                            if isinstance(node, ast.FunctionDef) and node.name == "main")
            assert len(_stderr_uses(reporter)) == 1
            uses = [line for line in uses if line not in _stderr_uses(reporter)]
        outside += [f"{path.name}:{line}" for line in uses]
    assert outside == []


def stdout_digest(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_golden_table(capsys):
    assert stdout_digest(capsys, "table", "--n-max", "12", "--d-max", "6",
                         "--bounds", "singleton,hamming,levenshtein,lp") == GOLDEN_TABLE


@pytest.mark.parametrize("d", sorted(GOLDEN_CHECK))
def test_golden_check(capsys, d):
    assert stdout_digest(capsys, "check", "--n", "20", "--K", "7/3", "--d", str(d),
                         "--bounds", "singleton,hamming,levenshtein") == GOLDEN_CHECK[d]


@pytest.mark.parametrize("name", sorted(GOLDEN_ANALYZE))
def test_golden_analyze(capsys, tmp_path, monkeypatch, name):
    assert sorted(GOLDEN_ANALYZE) == sorted(fixture_manifest())
    # a relative path, so the echoed file name does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(fixture_text(name), encoding="utf-8")
    assert stdout_digest(capsys, "analyze", name) == GOLDEN_ANALYZE[name]


def random_code_digest(capsys, tmp_path, monkeypatch, key):
    n, rank, seed = key
    code = gf4.random_self_orthogonal_code(n, rank, random.Random(seed))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "random.code").write_text(gf4.format_code(code), encoding="utf-8")
    return stdout_digest(capsys, "analyze", "random.code")


@pytest.mark.parametrize("key", sorted(GOLDEN_ANALYZE_RANDOM))
def test_golden_analyze_random(capsys, tmp_path, monkeypatch, key):
    assert random_code_digest(capsys, tmp_path, monkeypatch, key) == GOLDEN_ANALYZE_RANDOM[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_ANALYZE_SPLIT))
def test_golden_analyze_split_rank(capsys, tmp_path, monkeypatch, key):
    n, rank, _ = key
    assert 2 * n - rank >= gf4.PARALLEL_RANK  # the rank of the dual
    assert random_code_digest(capsys, tmp_path, monkeypatch, key) == GOLDEN_ANALYZE_SPLIT[key]


@pytest.mark.parametrize("n", sorted(GOLDEN_LP))
def test_golden_lp(capsys, n):
    outs = []
    for d in range(2, 5):
        for K in (F(1), F(2) ** (n - 2 * d + 2) + F(1, 2)):
            code, out, _ = run(capsys, "lp", "--n", str(n), "--K", str(K), "--d", str(d))
            assert code == 0
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == GOLDEN_LP[n]


@pytest.mark.parametrize("n", sorted(GOLDEN_CHECK_LP))
def test_golden_check_lp(capsys, n):
    outs = []
    tiny = F(1, 2 ** (n + 1))
    for d in range(2, 5):
        for K in (F(1), F(7, 3), F(2) ** (n - 2 * d + 2) + F(1, 2), tiny):
            code, out, _ = run(capsys, "check", "--n", str(n), "--K", str(K), "--d", str(d),
                               "--bounds", "lp")
            assert code == 0
            outs.append(out)
        code, out, _ = run(capsys, "lp", "--n", str(n), "--K", str(tiny), "--d", str(d))
        assert code == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == GOLDEN_CHECK_LP[n]


@pytest.mark.parametrize("key", sorted(GOLDEN_CURVES), ids=lambda k: f"{k[0]}-{k[1]}")
def test_golden_curves(capsys, tmp_path, monkeypatch, key):
    curve_id, classical = key
    # a relative path, so the echoed classical-bound label does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "classical.csv").write_text(CLASSICAL_CSV, encoding="utf-8")
    outs = []
    for kappa1 in (("0", "0.4", "1") if curve_id == "fig2" else (None,)):
        for samples in ("2", "17", "333"):
            argv = ["curves", "--id", curve_id, "--samples", samples]
            if kappa1 is not None:
                argv += ["--kappa1", kappa1]
            if classical:
                argv += ["--classical-bound", "classical.csv"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
    assert hashlib.sha256("".join(outs).encode("utf-8")).hexdigest() == GOLDEN_CURVES[key]


@pytest.mark.parametrize("label", sorted(GOLDEN_RENDER))
def test_golden_render(capsys, tmp_path, monkeypatch, label):
    argv, digest = GOLDEN_RENDER[label]
    # a relative path, so the echoed file name does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "five_qubit.code").write_text(fixture_text("five_qubit.code"), encoding="utf-8")
    assert stdout_digest(capsys, *argv) == digest


def test_emit_renders_fractions_inside_tuples(capsys):
    payload = {"query": {"K": F(7, 3), "B": (F(1), F(1, 2), 3)}, "rows": ({"x": F(-1, 4)},)}
    cli._emit(payload, "json", meta=False)
    assert json.loads(capsys.readouterr().out) == {
        "query": {"K": "7/3", "B": ["1", "1/2", 3]}, "rows": [{"x": "-1/4"}],
    }
    cli._emit(payload, "csv", meta=False)
    assert capsys.readouterr().out == "query.K,7/3\nquery.B,1 1/2 3\nrows[0].x,-1/4\n"


@pytest.mark.parametrize("value", [object(), {1, 2}, 1j, b"K"])
def test_emit_refuses_values_json_cannot_encode(capsys, value):
    with pytest.raises(TypeError):
        cli._emit({"K": F(1, 2), "value": value}, "json", meta=False)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bounds", ["singleton,hamming,levenshtein", "lp"])
@pytest.mark.parametrize("K", ["-1", "0"])
def test_check_rejects_nonpositive_K(capsys, bounds, K):
    code, out, err = run(capsys, "check", "--n", "5", "--K", K, "--d", "3",
                         "--bounds", bounds)
    assert code == 2 and out == ""
    assert "K must be positive" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("check", "--k", "20000"),
    ("check", "--k", "-20000"),
    ("check", "--k", str(-K_BITS_CAP)),
    ("check", "--K", "1e5000"),
    ("check", "--K", "1e-5000"),
    ("check", "--K", str(2**K_BITS_CAP)),
    ("check", "--K", "1e30000000"),
    ("lp", "--K", "1e5000"),
    ("lp", "--K", "1e-5000"),
    ("lp", "--K", f"1/{2**K_BITS_CAP}"),
    ("lp", "--K", "1e-30000000"),
    # past Python's 4,300-digit conversion limit
    ("check", "--K", "7" * 4400),
    ("lp", "--K", "1/" + "7" * 4400),
], ids=lambda argv: " ".join(argv)[:24])
def test_K_size_cap_exits_before_any_bound(capsys, monkeypatch, argv):
    def refuse(*_):
        raise AssertionError("a bound ran")

    for name in ("singleton_bound", "hamming_bound", "levenshtein_bound", "lp_feasible",
                 "lp_feasible_and_critical_K"):
        monkeypatch.setattr(bounds, name, refuse)
    command, flag, value = argv
    code, out, err = run(capsys, command, "--n", "5", flag, value, "--d", "3")
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and len(err.strip().splitlines()) == 1
    assert value not in err and len(err) < 100
    # the cap does not depend on n: 1e5 fits at n = 5, and so does the largest K under it
    monkeypatch.undo()
    # (2^4096 - 1) / 2^4095 as a decimal, 4096 digits in all
    digits = str((2**K_BITS_CAP - 1) * 5 ** (K_BITS_CAP - 1))
    longest = f"{digits[:-K_BITS_CAP + 1]}.{digits[-K_BITS_CAP + 1:]}"
    for K in ("1/32", "32", "1e5", str(2**K_BITS_CAP - 1), f"1/{2**K_BITS_CAP - 1}", longest):
        assert run(capsys, command, "--n", "5", "--K", K, "--d", "3")[0] == 0


def test_check_size_cap_exit(capsys):
    code, _, err = run(capsys, "check", "--n", str(CHECK_SIZE_CAP + 1), "--k", "1",
                       "--d", "3")
    assert code == 3
    assert err.startswith("capacity:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("n", [gf4.ENUMERATION_CAP // 2 + 1, 3200])
def test_analyze_refuses_an_over_cap_dual_before_building_it(capsys, tmp_path, monkeypatch, n):
    # one row of length n: the dual has rank 2n - 1
    def refuse(*_):
        raise AssertionError("the dual was built")

    monkeypatch.setattr(gf4, "symplectic_dual", refuse)
    path = tmp_path / "wide.code"
    path.write_text("X" * n + "\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (3, "")
    assert err == f"capacity: rank {2 * n - 1} exceeds enumeration cap {gf4.ENUMERATION_CAP}\n"


def test_table_matrix(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "8", "--d-max", "8",
                       "--bounds", "singleton,hamming")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,singleton_kmax,hamming_kmax"
    cells = {tuple(map(int, row.split(",")[:2])): row.split(",")[2:] for row in lines[1:]}
    assert cells[(5, 3)] == ["1", "1"]
    # singleton column equals n - 2d + 2 clipped at 0
    for (n, d), values in cells.items():
        assert int(values[0]) == max(n - 2 * d + 2, 0)


@pytest.mark.parametrize("n_max, d_max", [("-1", "3"), ("0", "3"), ("4", "0"), ("4", "-2")])
def test_table_rejects_nonpositive_limits(capsys, n_max, d_max):
    code, out, err = run(capsys, "table", "--n-max", n_max, "--d-max", d_max,
                         "--bounds", "singleton")
    assert code == 2 and out == ""
    assert err.startswith("error: table:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("error", [InvariantError, SolverError])
def test_internal_error_exits_4_with_one_line(capsys, monkeypatch, error):
    def broken(n, d):
        raise error("identity failed")

    monkeypatch.setattr("qbounds.bounds.singleton_bound", broken)
    code, out, err = run(capsys, "table", "--n-max", "3", "--d-max", "2",
                         "--bounds", "singleton")
    assert code == EXIT_INTERNAL == 4
    assert err == "internal: identity failed\n"


# objective - 1 is a wrong optimum; objectives 1 and 2 put the critical K,
# (1 - objective) / 2^n, at or below 0
WRONG_OBJECTIVES = (lambda v: v - 1, lambda v: F(1), lambda v: F(2))


def test_wrong_critical_K_exits_4(capsys, monkeypatch):
    from qbounds import simplex

    solve = simplex.solve_lp
    for wrong in WRONG_OBJECTIVES:
        def perturbed(c, A, b, wrong=wrong):
            sol = solve(c, A, b)
            sol.objective = wrong(sol.objective)
            return sol

        monkeypatch.setattr(simplex, "solve_lp", perturbed)
        code, out, err = run(capsys, "table", "--n-max", "3", "--d-max", "2", "--bounds", "lp")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "internal: simplex produced an invalid critical-K witness\n"


@pytest.mark.parametrize("K", ["2", "5"], ids=["feasible", "infeasible"])
def test_lp_wrong_critical_K_exits_4(capsys, monkeypatch, K):
    from qbounds import simplex

    solve = simplex.solve_lp_then_free_row0
    for wrong in WRONG_OBJECTIVES:
        def perturbed(c, A, b, wrong=wrong):
            feasibility, freed = solve(c, A, b)
            freed.objective = wrong(freed.objective)
            return feasibility, freed

        monkeypatch.setattr(simplex, "solve_lp_then_free_row0", perturbed)
        code, out, err = run(capsys, "lp", "--n", "7", "--K", K, "--d", "3")
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == "internal: simplex produced an invalid critical-K witness\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly(unbuffered):
    # a pipe whose read end is closed before the command writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qbounds.cli", "table", "--n-max", "12", "--d-max", "6",
             "--bounds", "singleton,hamming"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_analyze_five_qubit(capsys, five_qubit_file):
    code, out, _ = run(capsys, "analyze", five_qubit_file)
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["k"], payload["d"]) == (5, 1, 3)
    assert payload["standard_form"] == {"k0": 2, "k1": 0}
    assert payload["enumerators"]["A"] == [1, 0, 0, 0, 15, 0]
    assert payload["enumerators"]["B"] == [1, 0, 0, 30, 15, 18]
    assert payload["enumerators"]["transform_identity"] == "verified"
    assert all(w["sound"] for w in payload["reduction_witnesses"])


def test_analyze_reads_past_a_byte_order_mark(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "five.code").write_bytes(bom + fixture_text("five_qubit.code").encode())
        outputs.append(run(capsys, "analyze", "five.code"))
    assert outputs[1] == outputs[0] and outputs[0][0] == 0


def test_analyze_c422(capsys, tmp_path):
    path = tmp_path / "c422.code"
    path.write_text(fixture_text("c422.code"), encoding="utf-8")
    code, out, _ = run(capsys, "analyze", str(path))
    payload = json.loads(out)
    assert payload["d"] == 2
    binary = next(
        t for t in payload["reduction_targets"] if t["kind"] == "binary"
    )
    assert (binary["length"], binary["dimension"]) == (6, 4)


def test_analyze_checks_self_orthogonality_once(capsys, tmp_path, monkeypatch):
    check = gf4.AdditiveCode.__dict__["is_self_orthogonal"]
    original, calls = check.func, []

    def counted(code):
        calls.append(code)
        return original(code)

    monkeypatch.setattr(check, "func", counted)
    path = tmp_path / "steane.code"
    path.write_text(fixture_text("steane.code"), encoding="utf-8")
    assert run(capsys, "analyze", str(path))[0] == 0
    assert len(calls) == 1


def test_analyze_builds_dual_and_complement_once(capsys, tmp_path, monkeypatch):
    calls = {"symplectic_dual": 0, "standard_form": 0}
    for name in calls:
        original = getattr(gf4, name)

        def counted(code, _original=original, _name=name):
            calls[_name] += 1
            return _original(code)

        monkeypatch.setattr(gf4, name, counted)
    path = tmp_path / "steane.code"
    path.write_text(fixture_text("steane.code"), encoding="utf-8")
    assert run(capsys, "analyze", str(path))[0] == 0
    assert calls == {"symplectic_dual": 1, "standard_form": 1}

def test_lp_subcommand(capsys):
    code, out, _ = run(capsys, "lp", "--n", "5", "--K", "2", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    assert payload["witness_B"] == ["1", "0", "0", "30", "15", "18"]
    assert payload["critical_K"] == "2"

    code, out, _ = run(capsys, "lp", "--n", "5", "--K", "4", "--d", "3")
    payload = json.loads(out)
    assert payload["feasible"] is False and payload["certificate"]


def test_curves_terminal_points(capsys):
    code, out, _ = run(capsys, "curves", "--id", "E", "--samples", "100")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rows[0] == "delta,rate"
    last_delta, last_rate = map(float, rows[-1].split(","))
    assert abs(last_delta - 0.375) < 1e-3 and last_rate < 1e-6

    code, out, _ = run(capsys, "curves", "--id", "B", "--samples", "100")
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    last_delta, last_rate = map(float, rows[-1].split(","))
    assert abs(last_delta - 0.316) < 1e-3 and last_rate < 1e-6


def test_curves_fig2_zero_matches_curve_e(capsys):
    _, out_e, _ = run(capsys, "curves", "--id", "E", "--samples", "40")
    _, out_f, _ = run(capsys, "curves", "--id", "fig2", "--kappa1", "0",
                      "--samples", "40")
    data_e = [r for r in out_e.splitlines() if not r.startswith("#")]
    data_f = [r for r in out_f.splitlines() if not r.startswith("#")]
    assert data_e == data_f


def test_curves_fig2_kappa1_defaults_to_zero(capsys):
    _, out_default, _ = run(capsys, "curves", "--id", "fig2", "--samples", "17")
    _, out_zero, _ = run(capsys, "curves", "--id", "fig2", "--kappa1", "0", "--samples", "17")
    assert out_default == out_zero and "# kappa1: 0.0\n" in out_default


@pytest.mark.parametrize("classical", [False, True])
def test_curve_e_is_fig2_at_zero_kappa1(capsys, tmp_path, monkeypatch, classical):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "classical.csv").write_text(CLASSICAL_CSV, encoding="utf-8")
    extra = ["--classical-bound", "classical.csv"] if classical else []
    points = lambda text: text[text.index("delta,rate\n"):].splitlines()[1:]
    for samples in ("2", "17", "333"):
        _, out_e, _ = run(capsys, "curves", "--id", "E", "--samples", samples, *extra)
        _, out_f, _ = run(capsys, "curves", "--id", "fig2", "--kappa1", "0",
                          "--samples", samples, *extra)
        assert points(out_e) == points(out_f) and len(points(out_e)) >= 2


def test_curves_classical_bound_plugin(capsys, tmp_path):
    table = tmp_path / "classical.csv"
    table.write_text("delta,rate\n0.0,1.0\n0.75,0.0\n", encoding="utf-8")
    code, out, _ = run(capsys, "curves", "--id", "E", "--samples", "20",
                       "--classical-bound", str(table))
    assert code == 0
    assert f"table:{table}" in out


def test_curves_classical_bound_reads_past_a_byte_order_mark(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "classical.csv").write_bytes(bom + CLASSICAL_CSV.encode())
        outputs.append(run(capsys, "curves", "--id", "E", "--samples", "20",
                           "--classical-bound", "classical.csv"))
    assert outputs[1] == outputs[0] and outputs[0][0] == 0


@pytest.mark.parametrize("body,fragment", [
    (None, "cannot read"),
    ("delta,rate\n0.0,1.0\n0.5,abc\n", "line 3"),
    ("delta,rate\n# comment\n0.1\n0.75,0.0\n", "line 3"),
    ("delta,rate\n0,-0.1\n0.5,-0.2\n", "line 2"),
    ("delta,rate\n0.0,1.0\n1.5,0.0\n", "line 3"),
    ("delta,rate\n0.0,1.0\n0.5,inf\n", "line 3"),
    # an empty body stands for an empty path, which names no table either
    pytest.param("", "cannot read classical bound CSV ''", id="empty-path"),
])
def test_curves_classical_bound_errors(capsys, tmp_path, body, fragment):
    table = tmp_path / "classical.csv" if body != "" else ""
    if body:
        table.write_text(body, encoding="utf-8")
    # B consumes no classical bound, but the table is read for every id
    for curve_id in ("E", "B"):
        code, out, err = run(capsys, "curves", "--id", curve_id, "--samples", "20",
                             "--classical-bound", str(table))
        assert code == 2 and out == ""
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1


def test_curves_samples_cap_exit(capsys):
    code, out, err = run(capsys, "curves", "--id", "E", "--samples",
                         str(CURVE_SAMPLES_CAP + 1))
    assert code == 3 and out == ""
    assert err.startswith("capacity:") and len(err.strip().splitlines()) == 1

def test_curves_deterministic(capsys):
    first = run(capsys, "curves", "--id", "hamming-degenerate", "--samples", "50")
    second = run(capsys, "curves", "--id", "hamming-degenerate", "--samples", "50")
    assert first == second


def test_meta_flag_adds_header(capsys):
    _, out_plain, _ = run(capsys, "curves", "--id", "B", "--samples", "10")
    _, out_meta, _ = run(capsys, "curves", "--id", "B", "--samples", "10", "--meta")
    assert "# tool: qbounds" in out_meta and "# tool: qbounds" not in out_plain
    data = lambda text: [r for r in text.splitlines() if not r.startswith("#")]
    assert data(out_plain) == data(out_meta)


def test_selftest_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest")
    code2, out2, _ = run(capsys, "selftest")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "checks passed" in out1
