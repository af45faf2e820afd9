"""Benchmark of the tensorgraphs command line, one process per operation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is taken from
``src/`` next to this directory.  A single closed-loop client starts the
next CLI process only after the previous one has exited.  Whole rounds
of the workload run until ``--seconds`` have passed, within the
workload's bounds on the round count; then every output is checked
against ``reference``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` replays one round in-process with spans at every
public function (see ``tracing.py``) and reports per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it name every metric with its unit.  The exit
code is 2, with no result, when the package or the CLI cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OP_TIMEOUT_S = 20.0
VERSION_ARGS = ["-m", "tensorgraphs.cli", "--version"]
SETUP_REPEATS = 3
# further --version samples are taken between ops at this interval, so
# setup_s is a median over the whole run rather than over its first second
SETUP_INTERVAL_S = 3.0
# Ops stop starting this long after --seconds, even short of the
# workload's minimum rounds, so a run that regresses into timeouts still
# ends within its time limit.
ROUND_GRACE_S = 60.0


@dataclass
class Outcome:
    exit_code: int | None  # None: killed at the timeout
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_kb: int


class Cli:
    """Runs ``python ARGS`` as a fresh process per call, through the
    spawner, with ``src`` on PYTHONPATH and ``workdir`` as the directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=workdir, text=True)
        self.blobs: dict[bytes, bytes] = {}  # one copy of each distinct output

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)

    def python(self, args: list[str]) -> Outcome:
        out, err = self.workdir / "op.stdout", self.workdir / "op.stderr"
        self.spawner.stdin.write(json.dumps({
            "argv": [sys.executable, *args], "env": self.env,
            "stdout": str(out), "stderr": str(err), "timeout": OP_TIMEOUT_S}) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SetupError("the process spawner exited")
        reply = json.loads(line)
        stdout, stderr = out.read_bytes(), err.read_bytes()
        code = None if reply["timed_out"] else reply["status"]
        return Outcome(code, self.blobs.setdefault(stdout, stdout), stderr,
                       reply["seconds"], reply["maxrss_kb"])

    def run(self, args: tuple[str, ...] | list[str]) -> Outcome:
        return self.python(["-m", "tensorgraphs.cli", *args])

    def seconds(self, args: list[str]) -> float:
        """Wall time of ``python ARGS``, which must succeed."""
        outcome = self.python(args)
        if outcome.exit_code != 0:
            raise SetupError(f"`python {' '.join(args)}` failed: "
                             f"{outcome.stderr.decode(errors='replace').strip()[-300:]}")
        return outcome.seconds

    def median_seconds(self, args: list[str], repeats: int) -> float:
        return statistics.median(self.seconds(args) for _ in range(repeats))


class SetupError(Exception):
    """The package or its CLI cannot be run from this checkout."""


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and that
    percentile; with ten values or fewer, the smallest."""
    ordered = sorted(values)
    index = max(0, len(ordered) - 11)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def setup(cli: Cli) -> tuple[str, list[float]]:
    """Tool version, and wall times of ``--version`` (interpreter start,
    package import, argparse; no graph work)."""
    if not (SRC / "tensorgraphs" / "cli.py").is_file():
        raise SetupError(f"no package source at {SRC}")
    warm = cli.run(["--version"])  # also leaves compiled bytecode behind
    if warm.exit_code != 0:
        raise SetupError("`tensorgraphs --version` failed: "
                         + warm.stderr.decode(errors="replace").strip()[-300:])
    version = warm.stdout.decode().strip()
    return version, [cli.seconds(VERSION_ARGS) for _ in range(SETUP_REPEATS)]


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tensorgraphs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(workload: workloads.Workload, cli: Cli, seconds: float,
            setup_times: list[float]) -> tuple[dict, dict]:
    """Closed loop over whole rounds, then checks.  Returns (summary, metrics)."""
    runs: list[tuple[workloads.Op, Outcome]] = []
    start = last_setup = time.perf_counter()
    deadline = start + seconds
    in_setup = 0.0
    i = 0
    while ((time.perf_counter() < deadline or i < workload.min_rounds)
           and i != workload.max_rounds):
        for op in workload.round(i):
            if time.perf_counter() > deadline + ROUND_GRACE_S:
                break
            runs.append((op, cli.run(op.args)))
            if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                setup_times.append(cli.seconds(VERSION_ARGS))
                in_setup += setup_times[-1]
                last_setup = time.perf_counter()
        i += 1
        if time.perf_counter() > deadline + ROUND_GRACE_S:
            break
    loop_wall = time.perf_counter() - start - in_setup

    cache: dict = {}
    statuses = [workloads.classify(op, o.exit_code, o.stdout, o.stderr, cache) for op, o in runs]
    ok = [o.seconds for (op, o), (status, _) in zip(runs, statuses) if status == "ok"]
    # a failed op missed every latency limit: +inf, reported as the timeout
    latencies = [o.seconds if status == "ok" else math.inf
                 for (op, o), (status, _) in zip(runs, statuses)]
    p50 = min(nearest_rank(latencies, 0.5), OP_TIMEOUT_S)
    tail_s, tail_pct = tail(ok) if ok else (OP_TIMEOUT_S, 0.0)
    failed = len(runs) - len(ok)
    summary = {
        "rounds": i,
        "attempted": len(runs),
        "failed": failed,
        "correct": all(status in ("ok", "known") for status, _ in statuses),
        "failures": sorted({f"{op.name}: {status} ({reason})"
                            for (op, _), (status, reason) in zip(runs, statuses) if status != "ok"}),
        "op_tail_percentile": round(tail_pct, 1),
        "op_tail_count": len(ok),
        "error_rate": failed / len(runs),
        "loop_wall_s": loop_wall,
        "setup_samples": len(setup_times),
        # measured against recorded baseline timings, so fixes show as movement
        "baseline_timings_s": {
            name: {"baseline": baseline,
                   "median": statistics.median(o.seconds for op, o in runs if op.name == name)}
            for name, baseline in workloads.BASELINE_TIMINGS_S.items()
            if any(op.name == name for op, _ in runs)},
    }
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(ok) / loop_wall, "1/s"),
        "peak_rss_mb": (max(o.maxrss_kb for _, o in runs) / 1024.0, "MB"),
    }
    return summary, metrics


def run_workload(name: str, args) -> dict | None:
    """Measure (or trace) one workload, print its report lines, and return
    its result object; None when the CLI cannot be run."""
    env = environment(args) | {"workload": name}
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=WORK))
    cli = Cli(workdir)
    try:
        try:
            version, setup_times = setup(cli)
        except SetupError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return None
        workload = workloads.WORKLOADS[name](args.seed, workdir, version)
        if args.trace:
            import tracing  # imports the package under test; only the traced run needs it
            summary, metrics = tracing.traced_run(workload, cli, SRC, WORK / "traces")
        else:
            summary, metrics = measure(workload, cli, args.seconds, setup_times)
    finally:
        cli.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# env {json.dumps(env)}")
    print(f"# summary {json.dumps(summary)}")
    if not args.trace:
        print(f"# {name}: error_rate {summary['error_rate']:.4f} "
              f"({summary['failed']} of {summary['attempted']} ops failed)")
        print(f"# {name}: op_tail_s is p{summary['op_tail_percentile']} "
              f"of {summary['op_tail_count']} completed ops")
    for metric, (value, unit) in metrics.items():
        print(f"# {name}: {metric} = {value:.6g} {unit}")
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(workloads.WORKLOADS), "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 2
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:  # metrics named <workload>.<metric>
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
