#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (DF(2), 1 s per run).

Checks, for every workload in BENCHMARK.json:
  * an untraced run exits 0 and its last line holds exactly the keys
    correct/attempted/failed/metrics, with every end-to-end metric present,
    nonzero and carrying its BENCHMARK.json unit;
  * a traced run reports every per-layer metric with its unit, and every
    metric its workload measures is nonzero (except the few in MAY_BE_ZERO);
  * with --corrupt (a payload byte of each stored run flipped before it is
    read back) the correctness gates trip: exit code 1, "correct": false
    and a nonzero failure count.
Finally, a copy of only BENCHMARK.json and perfbench/ (no sources to build)
must exit nonzero without printing a result.

Usage: python3 perfbench/smoke.py        (exit code 0 = all checks passed)
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".bench_build" / "smoke-bare"

# Measured per-layer metrics that a healthy run may leave at 0: no solve of
# the grid is incremental, small views prune no chunks, and error, coalesce
# and queue counts depend on timing.
MAY_BE_ZERO = {"flow.incremental_share", "metrics.chunks_pruned",
               "serve.errors", "serve.coalesced", "serve.queue_depth_max"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(root, workload, *extra):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return res.returncode, last, res.stderr, lines[:-1]


def measured_layers(report):
    """Names in the per-layer table of run.py's report that carry a value
    ('-' marks a metric the workload does not measure)."""
    names, inside = set(), False
    for line in report:
        if line.startswith("-- "):
            inside = line.startswith("-- per-layer")
        elif inside and len(line.split()) >= 2 and line.split()[1] != "-":
            names.add(line.split()[0])
    return names


def main():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in definition["per_layer"]}
    for wl in (w["name"] for w in definition["workloads"]):
        code, res, err, _ = run(ROOT, wl, "--trace", "0", "--smoke")
        check(code == 0 and res is not None, f"{wl}: untraced run exits 0")
        if res is None:
            print(err[-2000:])
            continue
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"{wl}: result line has exactly the four keys")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{wl}: correct, attempted > 0, failed == 0")
        m = res["metrics"]
        check(set(m) == set(e2e), f"{wl}: every end-to-end metric emitted")
        check(all(m[n]["unit"] == u for n, u in e2e.items() if n in m),
              f"{wl}: end-to-end units match BENCHMARK.json")
        check(all(isinstance(m[n]["value"], (int, float)) and m[n]["value"] > 0
                  for n in e2e if n in m),
              f"{wl}: end-to-end values are positive numbers")

        code, res, _, report = run(ROOT, wl, "--trace", "1", "--smoke")
        ok = code == 0 and res is not None
        check(ok and set(res["metrics"]) == set(layer) and all(
            res["metrics"][n]["unit"] == u for n, u in layer.items()),
              f"{wl}: traced run emits every per-layer metric with its unit")
        measured = measured_layers(report)
        zero = sorted(n for n in measured - MAY_BE_ZERO
                      if ok and res["metrics"].get(n, {}).get("value") == 0)
        check(ok and bool(measured) and not zero,
              f"{wl}: the layers it measures are nonzero"
              + (f" (zero: {', '.join(zero)})" if zero else ""))

        code, res, _, _ = run(ROOT, wl, "--trace", "0", "--smoke", "--corrupt")
        check(code == 1 and res is not None and not res["correct"]
              and res["failed"] > 0,
              f"{wl}: gates trip on a corrupted stored run")

    # A directory holding only the benchmark's own files cannot build.
    shutil.rmtree(BARE, ignore_errors=True)
    (BARE / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for p in HERE.iterdir():
        if p.is_file():
            shutil.copy(p, BARE / "perfbench")
    code, res, _, _ = run(BARE, "packet_seq", "--trace", "0")
    check(code != 0 and res is None,
          "bare benchmark directory exits nonzero without a result")
    shutil.rmtree(BARE, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
