"""Traced in-process replay, parallel-efficiency probe and size sweep.

One pass per workload: the first round of the workload, then the small
``Coverage`` round, is replayed by calling ``tensorgraphs.cli.run`` in
this process.  Each replayed op is a root span (the ``cli.run`` call);
every call to a public function of a package module made beneath it is
a child span with name, start, end, parent and op id.  Calls are seen
through ``sys.setprofile``, so no package code is patched.  Spans stay
in memory and are written out when the pass ends; self times come from
the spans.  The same ops are first replayed without the hook, and the
difference is the tracing overhead.

The sweep times public functions directly, untraced, on uniform random
and melonic graphs at several sizes, and reports a scaling exponent per
function and family.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import multiprocessing.util
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import reference as ref
import workloads

LAYERS = ("formats", "core", "topology", "bubbles", "dual", "checks", "sampling", "cli")
SWEEP_SIZES = {"random": (10, 100, 1000, 4000), "melonic": (10, 100, 1000)}
SWEEP_BUDGET_S = 0.05  # repeat small sizes until this much time is spent
HEAVY_S = 0.2
OP_LIMIT_S = 20.0  # per replayed op, as for CLI processes
SWEEP_CALL_LIMIT_S = 10.0
SWEEP_LIMIT_S = 90.0
IMPORT_REPEATS = 5

# per-layer counters: span name -> (metric, value taken from the call's locals)
CALL_COUNTERS = {
    "formats.parse_graph": ("formats.parse_graph.bytes", lambda f: len(f.f_locals["document"])),
    "topology.trace_faces": (
        "topology.slots",
        lambda f: len(f.f_locals["s"].vertices) * (f.f_locals["s"].rank + 1) * f.f_locals["s"].rank),
}
# span name -> (metric, value taken from the return value)
RETURN_COUNTERS = {
    "core.components": ("core.components.groups", len),
    "bubbles.enumerate_bubbles": ("bubbles.count", len),
}
# decisions never return None, so a None return means the call raised
DECISIONS = ("checks.mo_admissibility", "checks.colorability")

TIMED = (
    "formats.parse_graph", "formats.serialize_graph", "core.validate_colored",
    "core.build_colored", "core.build_stranded", "core.components",
    "topology.bicolored_faces", "topology.bicolored_face_count", "topology.trace_faces",
    "bubbles.enumerate_bubbles", "bubbles.bubble_census", "bubbles.bubble_ribbon",
    "dual.dual_counts", "checks.mo_admissibility", "checks.colorability",
    "sampling.random_colored", "sampling.census",
)
CALLS = ("core.components", "bubbles.bubble_ribbon", "sampling.random_colored")


class SpanRecorder:
    """Spans at every public function of the package's modules."""

    def __init__(self, package: str):
        self.names: dict = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if (fn.__module__ == module.__name__ and not name.startswith("_")
                        and not inspect.isgeneratorfunction(fn)):
                    self.names[fn.__code__] = f"{layer}.{name}"
        # [id, parent, op, name, start, end, nested under a same-name span]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.op = None
        # forked census workers start untraced: their spans would be lost anyway
        multiprocessing.util.register_after_fork(self, lambda _self: sys.setprofile(None))

    def _hook(self):
        names, spans, stack, active, counters = (
            self.names, self.spans, self.stack, self.active, self.counters)
        clock = time.perf_counter

        def hook(frame, event, arg):
            name = names.get(frame.f_code)
            if name is None:
                return
            if event == "call":
                parent = stack[-1][0] if stack else None
                span = [len(spans), parent, self.op, name, clock(), None, active[name] > 0]
                spans.append(span)
                stack.append(span)
                active[name] += 1
                if name in CALL_COUNTERS:
                    metric, value = CALL_COUNTERS[name]
                    counters[metric] += value(frame)
            elif event == "return" and stack and stack[-1][3] == name:
                span = stack.pop()
                span[5] = clock()
                active[name] -= 1
                if name in RETURN_COUNTERS and arg is not None:
                    metric, value = RETURN_COUNTERS[name]
                    counters[metric] += value(arg)
                if name in DECISIONS and arg is None:
                    counters["checks.failed"] += 1

        return hook

    def start(self, op: int) -> None:
        self.op = op
        sys.setprofile(self._hook())

    def stop(self) -> None:
        """Unhook, closing spans left open when the interpreter dropped the
        hook (it does so when the hook itself hits the recursion limit, and
        the open calls then ended by raising)."""
        sys.setprofile(None)
        now = time.perf_counter()
        while self.stack:
            span = self.stack.pop()
            span[5] = now
            if span[3] in DECISIONS:
                self.counters["checks.failed"] += 1
        self.active.clear()


class TimeLimit(Exception):
    """Raised in this process when a replayed op or sweep call runs too long."""


@contextmanager
def time_limit(seconds: float):
    def expire(_signum, _frame):
        raise TimeLimit(f"over {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_cli(run, args) -> tuple[int | None, bytes, bytes]:
    """(exit code, stdout, stderr) as the CLI process would produce them;
    exit code None when the op ran past its time limit."""
    try:
        with time_limit(OP_LIMIT_S):
            result = run(list(args))
    except TimeLimit as err:
        return None, b"", str(err).encode()
    except Exception as err:  # the process would print a traceback and exit 1
        return 1, b"", f"{type(err).__name__}: {err}".encode()
    text = (result.report + "\n").encode() if result.report else b""
    return (result.exit_code, text, b"") if result.exit_code in (0, 1) else \
        (result.exit_code, b"", text)


def replay(run, ops, recorder: SpanRecorder | None) -> tuple[float, list]:
    outputs = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if recorder is None:
            outputs.append(call_cli(run, op.args))
            continue
        recorder.start(op_id)
        try:
            outputs.append(call_cli(run, op.args))
        finally:
            recorder.stop()
    return time.perf_counter() - start, outputs


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [end - start for _id, _parent, _op, _name, start, end, _nested in spans]
    for _id, parent, _op, _name, start, end, _nested in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    own = self_times(recorder.spans)
    total = defaultdict(float)
    calls = Counter()
    self_s = defaultdict(float)
    for sid, _parent, _op, name, start, end, nested in recorder.spans:
        calls[name] += 1
        if not nested:
            total[name] += end - start
        self_s[name.split(".")[0]] += own[sid]
        if name == "cli.run":
            self_s["cli.run"] += own[sid]
    out = {f"{name}.s": (total[name], "s") for name in TIMED}
    out.update({f"{name}.calls": (calls[name], "count") for name in CALLS})
    for metric in ("formats.parse_graph.bytes", "topology.slots", "core.components.groups",
                   "bubbles.count", "checks.failed"):
        out[metric] = (recorder.counters[metric], "bytes" if metric.endswith("bytes") else "count")
    out.update({f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS if layer != "cli"})
    out["cli.run.self_s"] = (self_s["cli.run"], "s")
    return out


def write_spans(recorder: SpanRecorder, ops, path: Path) -> None:
    spans = recorder.spans
    own = self_times(spans)
    origin = spans[0][4] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for sid, parent, op, name, start, end, _nested in spans:
            fh.write(json.dumps({
                "id": sid, "parent": parent, "op": op, "op_name": ops[op].name, "name": name,
                "start": start - origin, "end": end - origin, "self": own[sid]}) + "\n")


def parallel_efficiency(tg, seed: int) -> float:
    """Serial work (the census at parallelism 1) over 2 x the wall time of
    the same census at parallelism 2."""
    size, samples = workloads.CENSUS_SIZE, workloads.CENSUS_SAMPLES
    start = time.perf_counter()
    tg.census(3, size, samples, seed, parallelism=1)
    serial = time.perf_counter() - start
    start = time.perf_counter()
    tg.census(3, size, samples, seed, parallelism=2)
    return serial / (2 * (time.perf_counter() - start))


def _time_call(fn) -> float:
    """Median seconds per call: cheap calls repeat up to the budget, calls
    under HEAVY_S run at least three times."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    times = [first]
    repeats = 0 if first >= HEAVY_S else max(2, min(200, int(SWEEP_BUDGET_S / max(first, 1e-7))))
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def sweep(tg, seed: int) -> tuple[dict, list[str]]:
    """Seconds per call by (function, family, n), and failed cross-checks."""
    timings: dict = defaultdict(dict)
    problems = []
    started = time.perf_counter()
    for family, sizes in SWEEP_SIZES.items():
        for n in sizes:
            rng = workloads.rng_for("sweep", seed, f"{family}-{n}")
            if family == "random":
                gseed = rng.randrange(1 << 32)
                timings[("sampling.random_colored", family)][n] = _time_call(
                    lambda: tg.random_colored(3, n, gseed))
                g = tg.random_colored(3, n, gseed)
                sigma = [list(m) for m in g.matchings]
            else:
                sigma = workloads.melonic_matchings(n, rng)
                g = tg.ColoredGraph(3, tuple(f"w{i}" for i in range(n)),
                                    tuple(f"b{j}" for j in range(n)), tuple(map(tuple, sigma)))
            s = tg.to_stranded(g)
            doc = tg.serialize_graph(g)
            cases = {
                "core.validate_colored": lambda: tg.validate_colored(g),
                "core.components": lambda: tg.components(g, set(g.colors)),
                "core.to_stranded": lambda: tg.to_stranded(g),
                "formats.serialize_graph": lambda: tg.serialize_graph(g),
                "formats.parse_graph": lambda: tg.parse_graph(doc),
                "topology.bicolored_face_count": lambda: tg.bicolored_face_count(g),
                "topology.bicolored_faces": lambda: tg.bicolored_faces(g),
                "topology.trace_faces": lambda: tg.trace_faces(s),
                "bubbles.enumerate_bubbles": lambda: tg.enumerate_bubbles(g, 3),
                "bubbles.bubble_census": lambda: tg.bubble_census(g),
                "dual.dual_counts": lambda: tg.dual_counts(g),
                "checks.mo_admissibility": lambda: tg.mo_admissibility(s),
                "checks.colorability": lambda: tg.colorability(s),
            }
            for name, fn in cases.items():
                left = SWEEP_LIMIT_S - (time.perf_counter() - started)
                try:
                    with time_limit(min(SWEEP_CALL_LIMIT_S, max(left, 0.01))):
                        timings[(name, family)][n] = _time_call(fn)
                except RecursionError:
                    continue  # recorded defect: the searches recurse once per vertex
                except TimeLimit:
                    problems.append(f"sweep {name} {family}-{n}: over the time limit")
            faces = ref.face_count(sigma)
            if not tg.bicolored_face_count(g) == tg.trace_faces(s).count == faces:
                problems.append(f"sweep {family}-{n}: face counts disagree")
            if len(tg.enumerate_bubbles(g, 3)) != len(ref.bubbles(sigma, 3)):
                problems.append(f"sweep {family}-{n}: bubble counts disagree")
    return timings, problems


def exponent(points: dict[int, float]) -> float:
    """Least-squares slope of log time over log n, over the sizes n >= 100
    that ran (all sizes that ran when fewer than two of those did)."""
    large = {n: t for n, t in points.items() if n >= 100}
    xs, ys = zip(*[(math.log(n), math.log(t))
                   for n, t in (large if len(large) >= 2 else points).items()])
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def process_start(cli) -> dict[str, tuple[float, str]]:
    interp = cli.median_seconds(["-c", "pass"], IMPORT_REPEATS)
    imported = cli.median_seconds(["-c", "import tensorgraphs.cli"], IMPORT_REPEATS)
    return {"cli.interp_start_s": (interp, "s"), "cli.import_s": (imported - interp, "s")}


def traced_run(workload: workloads.Workload, cli, src: Path, trace_dir: Path):
    sys.path.insert(0, str(src))
    import tensorgraphs as tg  # noqa: PLC0415
    from tensorgraphs.cli import run  # noqa: PLC0415

    coverage = workloads.Coverage(workload.seed, workload.workdir, workload.tool_version)
    ops = workload.round(0) + coverage.round(0)
    plain_s, _ = replay(run, ops, None)
    recorder = SpanRecorder("tensorgraphs")
    traced_s, outputs = replay(run, ops, recorder)

    cache: dict = {}
    statuses = [workloads.classify(op, *out, cache) for op, out in zip(ops, outputs)]
    timings, problems = sweep(tg, workload.seed)
    metrics = layer_metrics(recorder)
    metrics["sampling.census.parallel_efficiency"] = (
        parallel_efficiency(tg, ref.subseed(workload.seed, 0)), "ratio")
    metrics["cli.report_bytes"] = (sum(len(out) + len(err) for _c, out, err in outputs), "bytes")
    metrics.update(process_start(cli))
    for (name, family), points in sorted(timings.items()):
        if len(points) >= 2:  # fewer only after a sweep time limit, which fails the run
            metrics[f"{name}.exponent.{family}"] = (exponent(points), "exponent")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    stem = f"{workload.name}-seed{workload.seed}"
    write_spans(recorder, ops, trace_dir / f"{stem}.spans.jsonl")
    (trace_dir / f"{stem}.sweep.json").write_text(json.dumps(
        {f"{name} {family}": points for (name, family), points in sorted(timings.items())},
        indent=1) + "\n")

    failed = sum(status != "ok" for status, _ in statuses)
    summary = {
        "attempted": len(ops),
        "failed": failed,
        "correct": not problems and all(status in ("ok", "known") for status, _ in statuses),
        "failures": problems + [f"{op.name}: {status} ({reason})"
                                for op, (status, reason) in zip(ops, statuses) if status != "ok"],
        "replayed_plain_s": plain_s,
        "replayed_traced_s": traced_s,
        "spans_file": str(trace_dir / f"{stem}.spans.jsonl"),
    }
    return summary, metrics
