"""lattice-dual benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and uses the library in ./src.  Each
workload is a fixed task list built from the seed (workloads.py), driven in
a closed loop by one caller: a task starts when the previous one has
finished.  Passes over the list repeat while the next one is expected to
end within S seconds (at least one pass).  Every result is checked against
its reference answer after its pass, outside the timed interval.

End-to-end times are yardstick-scaled: a fixed piece of pure-Python work
(yardstick.py) runs after every 0.1 s of tasks, and each task's latency is
multiplied by NOMINAL_S over the median of the yardstick samples nearest
it, so that most of the host's fast and slow phases cancel out.  The run
pins itself, and so the CLI children, to one CPU, on which the yardstick
then runs too.  solve_s is the median over the passes of a pass's task time
(yardstick excluded); task_p50_ms and task_p90_ms are percentiles over
every task latency of every pass; setup_s is the median of several
set-ups, scaled by yardstick samples taken between them.  The unscaled
figures are printed too.  Per-layer times are not scaled.

--trace 0 prints the end-to-end metrics.  --trace 1 spends half of S on
untraced passes and half on passes with the span wrappers of tracing.py
installed, and prints the per-layer metrics; their names and units are
listed in BENCHMARK.json.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The lines before it give
each metric with its unit, the sample count, the failures, and context
that is not gated: Python version, nproc and the non-blank line count of
src/.  A traced run writes its spans to bench/out/.

Self-test: python3 bench/selftest.py
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 5
# Task time between two yardstick samples within a pass.
YARD_EVERY_S = 0.1
# Bare interpreter starts timed for cli.interp_ms.
INTERP_RUNS = 11


def load_library():
    """Import lattice_dual from this checkout's src/, or exit 2."""
    sys.path[:0] = [SRC, HERE]
    try:
        import lattice_dual
    except ImportError as exc:
        sys.exit(f"error: cannot import lattice_dual from {SRC}: {exc}")
    if not os.path.realpath(lattice_dual.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: lattice_dual was imported from {lattice_dual.__file__}, not {SRC}")
    return lattice_dual


def load_units() -> tuple:
    """Units of the end-to-end and the per-layer metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def src_lines() -> int:
    count = 0
    for dirpath, _, filenames in os.walk(SRC):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    count += sum(1 for line in fh if line.strip())
    return count


class Pass:
    """One timed pass: per-task latencies, failure count, and the yardstick's
    samples taken between its tasks, as (index of the next task, seconds)."""

    def __init__(self, wall: float, latencies: list, failed: int, yard: list):
        self.wall, self.latencies, self.failed, self.yard = wall, latencies, failed, yard
        self.seconds = sum(latencies)

    def scaled(self) -> list:
        """Yardstick-scaled latencies: each is multiplied by NOMINAL_S over
        the median of the four samples nearest its task, two taken before
        it and two after, as the host's phases change within a pass."""
        where = [i for i, _ in self.yard]
        out = []
        for i, latency in enumerate(self.latencies):
            j = bisect.bisect_right(where, i)
            near = [y for _, y in self.yard[max(0, j - 2) : j + 2]]
            out.append(latency * yardstick.NOMINAL_S / statistics.median(near))
        return out


def run_pass(tasks, call) -> Pass:
    results, latencies, yard = [], [], [(0, yardstick.sample())]
    since = 0.0
    start = perf_counter()
    for i, task in enumerate(tasks):
        t0 = perf_counter()
        try:
            result = call(task)
        except Exception as exc:  # a task that raises has failed; go on
            result = exc
        latency = perf_counter() - t0
        latencies.append(latency)
        results.append(result)
        since += latency
        if since >= YARD_EVERY_S or i == len(tasks) - 1:
            yard.append((i + 1, yardstick.sample()))
            since = 0.0
    wall = perf_counter() - start
    failed = 0
    for task, result in zip(tasks, results):
        if not isinstance(result, Exception):
            try:
                if task.check(result):
                    continue
            except Exception as exc:
                result = exc
        failed += 1
        if isinstance(result, Exception):
            detail = "".join(traceback.format_exception(result))
        else:
            detail = repr(result)[:300]
        print(f"FAILED {task.kind}: {detail}", file=sys.stderr)
    return Pass(wall, latencies, failed, yard)


def measure(tasks, budget: float, call, before=None, after=None) -> list:
    """Repeat passes while the next one is expected to end within `budget`."""
    passes = []
    start = perf_counter()
    while True:
        if before:
            before()
        passes.append(run_pass(tasks, call))
        if after:
            after()
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - start + typical > budget:
            return passes


def end_to_end(setup_times, setup_scale: float, passes, children: bool) -> dict:
    per_pass = [p.scaled() for p in passes]
    latency = [lat for lats in per_pass for lat in lats]
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return {
        "setup_s": setup_scale * statistics.median(setup_times),
        "solve_s": statistics.median(sum(lats) for lats in per_pass),
        "task_p50_ms": 1e3 * statistics.median(latency),
        "task_p90_ms": 1e3 * statistics.quantiles(latency, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def medians(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def traced_in_process(lib, tasks, budget: float):
    """Traced passes in this process; returns (passes, metrics, spans)."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer, lib)
    runs = {id(t): tracer.wrap(f"bench.{t.kind}", t.run) for t in tasks}
    rows = []

    def call(task):
        try:
            return runs[id(task)]()
        finally:
            tracer.end_task()

    def after():
        rows.append(tracing.layer_metrics(tracer.snapshot()))

    passes = measure(tasks, budget, call, tracer.reset, after)
    metrics = medians(rows)
    metrics.update({"cli.interp_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0})
    return passes, metrics, tracer.spans


def traced_children(tasks, budget: float, work: str, env: dict):
    """Each CLI task in a child that installs the wrappers (cli_child.py)."""
    import tracing

    child = os.path.join(HERE, "cli_child.py")
    path = os.path.join(work, "trace.json")
    rows, snap, mains, imports, spans, shift = [], {}, [], [], [], [0]

    def call(task):
        proc = subprocess.run(
            [sys.executable, child, path, *task.argv],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        tracing.merge(snap, doc)
        imports.append(doc["import_s"])
        mains.append(doc["spans"]["cli.main"][1])
        # Span ids restart in every child; shift them to stay unique.
        kept = doc["kept"][: tracing.SPAN_CAP - len(spans)]
        spans.extend((i + shift[0], label, t0, t1, parent and parent + shift[0])
                     for i, label, t0, t1, parent in kept)
        shift[0] += max((row[0] for row in kept), default=0)
        return proc.returncode, proc.stdout

    def after():
        rows.append(tracing.layer_metrics(snap))
        snap.clear()

    passes = measure(tasks, budget, call, after=after)
    interp = []
    for _ in range(INTERP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=ROOT)
        interp.append(perf_counter() - t0)
    metrics = medians(rows)
    metrics["cli.interp_ms"] = 1e3 * statistics.median(interp)
    metrics["cli.import_ms"] = 1e3 * statistics.median(imports)
    metrics["cli.main_ms"] = 1e3 * statistics.median(mains)
    return passes, metrics, spans


def us_per_node(tasks, passes, nodes) -> float:
    """Untraced time of the in-process duality tasks per recursion node."""
    per_pass = [
        sum(lat for task, lat in zip(tasks, p.latencies) if task.duality and not task.argv)
        for p in passes
    ]
    return 1e6 * statistics.median(per_pass) / nodes if nodes and any(per_pass) else 0.0


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, label, start, end, parent in spans:
            fh.write(json.dumps(
                {"id": span_id, "name": label, "start": start, "end": end, "parent": parent}
            ) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small task lists, for the self-test")
    args = parser.parse_args(argv)

    lib = load_library()
    import workloads

    nproc = len(os.sched_getaffinity(0))
    # The host's CPUs change speed independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    e2e_units, layer_units = load_units()
    os.makedirs(OUT, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as work:
        setup_times, setup_yard = [], [yardstick.sample()]
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            tasks = build(args.seed, args.tiny, work)
            setup_times.append(perf_counter() - t0)
            setup_yard.append(yardstick.sample())
        setup_scale = yardstick.NOMINAL_S / statistics.median(setup_yard)
        # The inputs and reference answers live for the whole run; keep the
        # collector from traversing them during the timed passes.
        gc.collect()
        gc.freeze()
        children = any(t.argv for t in tasks)
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(tasks, budget, lambda task: task.run())
        if args.trace:
            if children:
                traced, metrics, spans = traced_children(tasks, budget, work, workloads.cli_env())
            else:
                traced, metrics, spans = traced_in_process(lib, tasks, budget)
            passes = untraced + traced
            metrics["trace.overhead_ratio"] = statistics.median(
                p.seconds for p in traced
            ) / statistics.median(p.seconds for p in untraced)
            metrics["duality.us_per_node"] = us_per_node(tasks, untraced, metrics["duality.nodes"])
            write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"), spans)
        else:
            passes = untraced
            metrics = end_to_end(setup_times, setup_scale, untraced, children)

    attempted = len(tasks) * len(passes)
    failed = sum(p.failed for p in passes)
    units = layer_units if args.trace else e2e_units
    if args.trace:
        metrics["failed_ratio"] = failed / attempted
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(tasks)} tasks, "
          f"{len(tasks) * len(untraced)} untraced task latency samples")
    yard = [y for p in untraced for _, y in p.yard]
    print(f"yardstick: median {1e3 * statistics.median(yard):.4g} ms over {len(yard)} samples "
          f"(nominal {1e3 * yardstick.NOMINAL_S:.4g} ms); unscaled median pass "
          f"{statistics.median(p.seconds for p in untraced):.6g} s, "
          f"set-up {statistics.median(setup_times):.6g} s")
    print(f"context: python {platform.python_version()}, nproc {nproc}, "
          f"src non-blank lines {src_lines()}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} tasks)")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
