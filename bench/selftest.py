"""Self-test of the benchmark; never looks at timings.

    python3 bench/selftest.py

Runs every workload at its --tiny size, untraced and traced, and checks the
output against BENCHMARK.json: exactly the listed metrics with their units,
no failed task.  Traced twice, a workload must repeat every count exactly.
Node counts of the full-size duality instances are pinned, and a copy of
the benchmark without src/ must exit nonzero without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Per-layer ratios of two counts; every metric with unit "count" is a count.
COUNT_RATIOS = ("duality.repeat_ratio", "hypotheses.enumerations_per_minimal")


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def run(workload: str, trace: int, cwd: str = ROOT, script: str = RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    check(proc.returncode == 0, f"{workload} trace {trace} exits 0 ({proc.stderr[-500:]})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def schema(doc: dict, listed: dict, what: str) -> None:
    check(set(doc) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    check(doc["correct"] is True and doc["failed"] == 0, f"{what}: no task failed")
    check(isinstance(doc["attempted"], int) and doc["attempted"] >= 1, f"{what}: tasks attempted")
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    check(got == listed, f"{what}: metric names and units as in BENCHMARK.json")
    check(all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values()),
          f"{what}: metric values are numbers")


def pinned_nodes() -> None:
    """Node counts quoted in BENCHMARK.json's reasons for the workloads."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import gen
    import workloads

    for k, nodes in ((6, 1673), (9, 30503)):
        got = workloads.dual_task("matching", *gen.matching(k), True).run()
        check(got == (True, nodes), f"matching k={k} takes {nodes} nodes (got {got[1]})")
    poset, fam_a, fam_b = gen.matching(9)
    for drop in (0, 255, 511):
        got = workloads.dual_task("near-dual", poset, fam_a, fam_b[:drop] + fam_b[drop + 1 :], False).run()
        check(got[0] is False and got[1] <= 55, f"k=9 without B-member {drop} rejects in {got[1]} <= 55 nodes")
    n = 100
    task = workloads.dual_task("trivial", gen.antichain(n), [1 << i for i in range(n)], [0], True)
    got = task.run()
    check(got == (True, 2 * n + 1), f"trivial dual n={n} takes {2 * n + 1} nodes (got {got[1]})")


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e.get("setup_s") == "s", "setup_s is an end-to-end metric in seconds")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")
    counted = [k for k, unit in layers.items() if unit == "count"] + list(COUNT_RATIOS)

    for w in (w["name"] for w in spec["workloads"]):
        schema(result(w, 0), e2e, f"{w} untraced")
        first, second = result(w, 1), result(w, 1)
        schema(first, layers, f"{w} traced")
        counts = [{k: doc["metrics"][k]["value"] for k in counted} for doc in (first, second)]
        check(counts[0] == counts[1], f"{w}: counts repeat exactly {counts[0]}")

    pinned_nodes()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare, script=os.path.join(bare, "bench", "run.py"))
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without src/ the benchmark exits nonzero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
