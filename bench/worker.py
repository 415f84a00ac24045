"""Run one batch of qbounds CLI commands in a fresh interpreter.

Usage: python3 worker.py JOB.json RESULT.json

The job names the source tree to import, the input files to write into the
working directory and the argv lists to run.  Each op calls
``qbounds.cli.main(argv)`` in-process with stdout and stderr captured; the
next op starts when the previous one returns.  The result records the
monotonic time of the first op (set-up ends there), each op's latency,
exit code and stdout, the calibrations and the peak RSS, plus the
per-layer trace when the job asks for one.

Between ops, at most every CALIBRATE_EVERY_S, the worker times a fixed
calibration kernel that shares no code with the package.  On a shared host
the CPU's speed drifts by tens of percent over seconds to minutes; the
kernel's duration next to each op lets the runner scale op times to one
reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

CALIBRATE_EVERY_S = 0.2


def calibration_kernel() -> None:
    """Fixed interpreter work: big-integer Fraction sums, then int and dict updates."""
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(1, i)
    table: dict[int, int] = {}
    x = 0
    for i in range(30000):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[x & 255] = table.get(x & 255, 0) + 1


def calibrate() -> float:
    """Seconds the kernel takes now, with the collector paused so that the
    package's heap does not change the kernel's cost."""
    gc.disable()
    try:
        began = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - began
    finally:
        gc.enable()


def run(job: dict) -> dict:
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import qbounds.cli
    import qbounds.exact

    if not os.path.realpath(qbounds.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"qbounds was imported from {qbounds.cli.__file__}, not from {src}")
    for rel, text in job["files"].items():
        path = Path(rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        op_span = tracer.op_span
    else:
        op_span = lambda index: contextlib.nullcontext()  # noqa: E731

    main = qbounds.cli.main
    latencies, codes, outputs, errors = [], [], [], []
    calibrations = [(0, calibrate())]  # (index of the next op, kernel seconds)
    first_op = time.monotonic()
    last_calibration = time.perf_counter()
    for index, argv in enumerate(job["ops"]):
        if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
            calibrations.append((index, calibrate()))
            last_calibration = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        error = ""
        began = time.perf_counter()
        try:
            with op_span(index), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is counted as failed, and the batch goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - began)
        codes.append(code)
        outputs.append(out.getvalue())
        errors.append(error or err.getvalue().strip())
    calibrations.append((len(latencies), calibrate()))
    return {
        "first_op": first_op,
        "latencies": latencies,
        "calibrations": calibrations,
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report(qbounds.exact) if tracer else None,
    }


if __name__ == "__main__":
    job_path, result_path = sys.argv[1:3]
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    result = run(job)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
