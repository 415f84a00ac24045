"""qbounds benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all ...   # the four workloads in turn
    python3 bench/run.py --record             # rewrite bench/shape.json

The load is a closed loop with one client: each op is one CLI command run
in-process through ``qbounds.cli.main``, and the next op starts when it
returns.  A batch is a workload's whole op list, run in a fresh worker
process so that the library's caches start empty, as they do for a CLI
user.  A run checks every output and starts batches until the next one
would end after ``--seconds``.

End-to-end metrics (``--trace 0``), over the run's batches:

* ``wall_s``: time to run the batch, the sum over its ops of each op's
  median latency;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile (nearest rank)
  of those per-op medians; each workload has at least 100 ops, so at least
  10 lie beyond p90;
* ``setup_s``: median time from spawning a worker to its first op
  (interpreter start, ``import qbounds``, writing the input files), over
  the batches and a few workers spawned only to set up;
* ``peak_rss_mb``: median peak RSS of the workers at the end of a batch.

Times are scaled to one reference CPU speed (see ``scaled_latencies``);
the unscaled batch time is printed beside them.  Ops that exit nonzero,
raise or fail an output check count in ``failed`` and in the printed
``error_rate``.  With ``--trace 1`` every second batch runs with
bench/tracer.py installed, and the run reports the per-layer metrics
instead, as medians over the traced batches; ``trace.overhead_frac``
compares traced and untraced batch times.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> {value, unit}).  At the default seed
every batch's concatenated stdout must match the sha256 recorded in
bench/shape.json.  The package is imported from the ``src/`` beside
``bench/``; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracer import METRICS as LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "qbounds" / "fixtures"
WORK = ROOT / ".bench_work"
SHAPE = BENCH / "shape.json"
WORKER_TIMEOUT_S = 150
SETUP_PROBES = 6  # extra spawns that only set up, the first of them discarded
# Duration of worker.calibration_kernel on a 2.1 GHz Xeon vCPU in a quiet
# spell.  Every reported time is scaled to the speed at which the kernel
# takes this long; see scaled_latencies.
CALIBRATION_REF_S = 0.0075

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


@dataclass
class Batch:
    traced: bool
    setup_s: float
    latencies: list[float]
    result: dict
    failures: list[str]
    labels: list[str]
    digest: str


def scaled_latencies(result: dict) -> list[float]:
    """Op latencies at the reference speed.

    The host's speed drifts over seconds, so each op is scaled by the mean
    of the calibrations taken just before and just after it.
    """
    calibrations = result["calibrations"]
    scaled, k = [], 0
    for index, latency in enumerate(result["latencies"]):
        while calibrations[k + 1][0] <= index:
            k += 1
        speed = (calibrations[k][1] + calibrations[k + 1][1]) / 2
        scaled.append(latency * CALIBRATION_REF_S / speed)
    return scaled


class Runner:
    """Spawns workers for one workload and checks what they print."""

    def __init__(self, workload: workloads.Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.verdicts: dict[tuple[int, int | None, str], tuple[str | None, str]] = {}

    def spawn(self, ops: list[list[str]], traced: bool) -> tuple[float, dict]:
        """Run ops in a fresh worker; returns (scaled set-up seconds, worker result)."""
        cwd = self.scratch / "batch"
        shutil.rmtree(cwd, ignore_errors=True)
        cwd.mkdir(parents=True)
        job_path, result_path = self.scratch / "job.json", self.scratch / "result.json"
        job = {"src": str(SRC), "files": self.workload.files, "ops": ops, "trace": traced}
        job_path.write_text(json.dumps(job), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(job_path), str(result_path)],
                cwd=cwd,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
            raise BenchError(f"worker exited with status {proc.returncode}: {tail[0]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setup_s = (result["first_op"] - spawned) * CALIBRATION_REF_S / result["calibrations"][0][1]
        return setup_s, result

    def batch(self, traced: bool) -> Batch:
        ops = self.workload.ops
        setup_s, result = self.spawn([op.argv for op in ops], traced)
        failures, labels = [], []
        for index, op in enumerate(ops):
            code, out, error = result["codes"][index], result["outputs"][index], result["errors"][index]
            key = (index, code, out)
            if key not in self.verdicts:
                if code == 0:
                    self.verdicts[key] = checks.check(self.workload.name, op, out)
                else:
                    self.verdicts[key] = (f"exit code {code}: {error}", "failed")
            problem, label = self.verdicts[key]
            labels.append(label)
            if problem:
                failures.append(f"op {index} {' '.join(op.argv)}: {problem}")
        digest = hashlib.sha256("".join(result["outputs"]).encode("utf-8")).hexdigest()
        return Batch(traced, setup_s, scaled_latencies(result), result, failures, labels, digest)


def op_medians(batches: list[Batch]) -> list[float]:
    """Each op's median scaled latency over the batches.

    A per-op median drops the ops that a burst of host contention slowed in
    one batch, which a pooled percentile would keep.
    """
    return [statistics.median(op) for op in zip(*(b.latencies for b in batches))]


def _nearest_rank(sorted_values: list[float], share: float) -> float:
    return sorted_values[max(math.ceil(share * len(sorted_values)) - 1, 0)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: str | None) -> dict:
    """Run batches of one workload; ``golden`` is the stdout digest to expect."""
    workload = workloads.build(name, seed, FIXTURES)
    scratch = WORK / f"{os.getpid()}-{name}"
    runner = Runner(workload, scratch)
    try:
        # The first probe also compiles bytecode and proves the import works.
        setups = [runner.spawn([], False)[0] for _ in range(SETUP_PROBES)][1:]
        deadline = time.monotonic() + seconds
        batches: list[Batch] = []
        longest = 0.0
        while not batches or (trace and len(batches) < 2) or time.monotonic() + longest <= deadline:
            began = time.monotonic()
            batches.append(runner.batch(traced=trace and len(batches) % 2 == 1))
            longest = max(longest, time.monotonic() - began)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()

    plain = [b for b in batches if not b.traced]
    traced = [b for b in batches if b.traced]
    attempted = len(batches) * len(workload.ops)
    failures = [f for b in batches for f in b.failures]
    digests_ok = golden is None or all(b.digest == golden for b in batches)
    latencies = sorted(op_medians(plain))
    wall = sum(latencies)
    values = {
        "wall_s": wall,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * _nearest_rank(latencies, 0.9),
        "setup_s": statistics.median(setups + [b.setup_s for b in plain]),
        "peak_rss_mb": statistics.median(b.result["peak_rss_mb"] for b in plain),
    }
    beyond_p90 = sum(1 for x in latencies if 1000 * x > values["op_p90_ms"])
    print(
        f"{name} seed={seed}: {len(plain)} untraced + {len(traced)} traced batches of "
        f"{len(workload.ops)} ops; {attempted} ops attempted, {len(failures)} failed"
    )
    for metric, unit in END_TO_END:
        print(f"  {metric:<12} {values[metric]:12.4f} {unit}")
    print(f"  {'error_rate':<12} {len(failures) / attempted:12.4f} fraction")
    print(f"  latency samples {len(latencies)} ops (each the median of {len(plain)} batches), {beyond_p90} beyond p90")
    unscaled = statistics.median(sum(b.result["latencies"]) for b in plain)
    kernel = statistics.median(c for b in plain for _, c in b.result["calibrations"])
    print(f"  unscaled wall_s {unscaled:.4f} s; calibration kernel median {1000 * kernel:.2f} ms")
    if golden is None:
        print("  stdout digest: not checked (not the default seed)")
    else:
        print(f"  stdout digest: {'matches' if digests_ok else 'DIFFERS from'} bench/shape.json")
    for failure in failures[:10]:
        print(f"  FAILED {failure}")
    if trace:
        # span times scaled by their batch's mean calibration factor
        factors = [sum(b.latencies) / sum(b.result["latencies"]) for b in traced]
        layer = {
            metric: statistics.median(
                b.result["trace"][metric] * (f if unit == "s" else 1) for b, f in zip(traced, factors)
            )
            for metric, unit in LAYER_METRICS
        }
        traced_wall = sum(op_medians(traced))
        layer["trace.overhead_frac"] = (traced_wall - wall) / wall
        units = dict(LAYER_METRICS, **{"trace.overhead_frac": "fraction"})
        for metric, value in layer.items():
            print(f"  {metric:<36} {value:14.6f} {units[metric]}")
        metrics = {m: {"value": v, "unit": units[m]} for m, v in layer.items()}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return {
        "correct": not failures and digests_ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "labels": Counter(batches[0].labels),
        "digest": batches[0].digest,
    }


def record(shape: dict) -> None:
    """Rewrite the op counts, mixes and default-seed digests in shape.json."""
    for name in workloads.WORKLOADS:
        outcome = run_workload(name, shape["default_seed"], 0, False, None)
        if outcome["failed"]:
            raise BenchError(f"{name}: {outcome['failed']} ops failed; nothing recorded")
        entry = shape["workloads"][name]
        entry["ops"] = outcome["attempted"]
        entry["mix"] = dict(sorted(outcome["labels"].items()))
        entry["digest"] = outcome["digest"]
    SHAPE.write_text(json.dumps(shape, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {SHAPE.relative_to(ROOT)}")


def _terminate(signum, frame) -> None:
    # Raised inside subprocess.run, this kills and reaps the current worker,
    # and run_workload's cleanup still runs.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite bench/shape.json")
    args = parser.parse_args(argv)
    if not (SRC / "qbounds" / "__init__.py").is_file():
        print(f"bench: no qbounds package under {SRC}", file=sys.stderr)
        return 2
    shape = json.loads(SHAPE.read_text(encoding="utf-8"))
    try:
        if args.record:
            record(shape)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seed = shape["default_seed"] if args.seed is None else args.seed
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes = {}
        for name in names:
            golden = shape["workloads"][name]["digest"] if seed == shape["default_seed"] else None
            outcomes[name] = run_workload(name, seed, args.seconds, bool(args.trace), golden)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        metrics = next(iter(outcomes.values()))["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, o in outcomes.items() for m, v in o["metrics"].items()}
    summary = {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
