#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark for dragonviz.

Builds the dragonviz libraries and the dvbench program from this checkout's
sources (an optimized build under .bench_build/), runs one named workload
for a fixed time and prints:

  * a human-readable report: provenance, end-to-end metrics, correctness
    gates, simulated statistics and (traced runs) the per-layer table with
    self times and tracing overhead;
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics. With --trace 0 the metrics are the end-to-end
    metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.

Usage:
  python3 perfbench/run.py --workload packet_seq --seed 1 --seconds 20 --trace 0

Exit codes: 0 = every gate held; 1 = a correctness gate failed (the result
line is still printed, with "correct": false); 2 = the checkout cannot be
built or the arguments are wrong; 3 = dvbench crashed or timed out.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
WORKLOADS = ("packet_seq", "packet_par4", "flow_sweep", "serve_explore")
DVBENCH_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(code, msg):
    log("run.py: " + msg)
    sys.exit(code)


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(2, f"missing {path.name} at the checkout root")
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds dvbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, "no src/ tree next to perfbench/: nothing to build")
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            fail(2, f"{tool} not found on PATH")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(2, "cmake configure failed")
    res = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                         stdout=sys.stderr)
    if res.returncode != 0:
        fail(2, "build failed")
    exe = BUILD_DIR / "dvbench"
    if not exe.is_file():
        fail(2, "build produced no dvbench binary")
    return exe


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/self/mounts)."""
    best, fstype = "", "unknown"
    try:
        target = os.path.realpath(path)
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1].replace("\\040", " ")
                inside = target == mnt or target.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) > len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def run_dvbench(exe, args, work, trace_out):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if args.smoke:
        cmd += ["--smoke"]
    if args.corrupt:
        cmd += ["--corrupt"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DVBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(3, f"dvbench exceeded {DVBENCH_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(3, f"dvbench exited with code {res.returncode}")
    return json.loads(lines[-1])


def fmt(v):
    if isinstance(v, float) and v != int(v):
        return f"{v:.6g}"
    return f"{int(v)}" if isinstance(v, (int, float)) else str(v)


def report(d, prov, definition, args):
    """Human-readable block (everything before the result line)."""
    out = []
    out.append(f"== dragonviz benchmark: {args.workload} (seed {args.seed}, "
               f"{args.seconds} s, trace {args.trace})")
    out.append("-- provenance")
    for k, v in prov.items():
        out.append(f"   {k:18s} {v}")
    if not prov["optimized"]:
        out.append("   !!! WARNING: dvbench is NOT an optimized build; "
                   "timings are meaningless")
    units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
    out.append("-- end-to-end (host time; untraced unless trace 1)")
    for name, unit in units.items():
        out.append(f"   {name:18s} {fmt(d['e2e'].get(name, float('nan'))):>16s} {unit}")
    attempted, failed = d["attempted"], d["failed"]
    out.append(f"   {'error_rate':18s} {fmt(failed / attempted if attempted else 1.0):>16s}"
               f" ratio ({failed} failed / {attempted} attempted)")
    for k, v in sorted(d["info"].items()):
        out.append(f"   {k:18s} {fmt(v):>16s}")
    out.append("-- correctness gates")
    for g in d["gates"]:
        status = "ok  " if g["failures"] == 0 else "FAIL"
        line = f"   [{status}] {g['name']} ({g['checks']} checks"
        line += f", {g['failures']} failed: {g['first_failure']})" if g["failures"] else ")"
        out.append(line)
    out.append("-- simulated statistics (exact model outputs, not gated; the repo "
               "has no CODES reference data, so no accuracy error is claimed)")
    for s in d["simulated"]:
        out.append("   " + json.dumps(s, sort_keys=True))
    if args.trace:
        measured = set(d["layer_measured"])
        out.append("-- per-layer (traced run; '-' = not measured by this "
                   "workload, reported as 0)")
        for m in definition["per_layer"]:
            name = m["name"]
            value = fmt(d["layer"][name]) if name in measured else "-"
            out.append(f"   {name:28s} {value:>16s} {m['unit']}")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (DF(2)); for perfbench/smoke.py")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt every stored run before its read-back "
                         "(the gates must trip)")
    args = ap.parse_args()

    definition = load_definition()
    exe = build()
    work = BUILD / f"work-{os.getpid()}"
    trace_out = None
    if args.trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
    try:
        work.mkdir(parents=True, exist_ok=True)
        fstype = filesystem_of(work)
        d = run_dvbench(exe, args, work, trace_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    b = d["build"]
    prov = {
        "compiler": b["compiler"],
        "build_type": b["build_type"],
        "optimized": b["optimized"],
        "DV_OBS_ENABLED": b["obs_enabled"],
        "nproc": len(os.sched_getaffinity(0)),
        "store_fs": fstype,
        "seed": args.seed,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    if trace_out:
        prov["span_file"] = str(trace_out.relative_to(ROOT))
    if not b["optimized"]:
        log("!!! WARNING: dvbench was built without optimization")
    kind = "per_layer" if args.trace else "end_to_end"
    reported = d["layer"] if args.trace else d["e2e"]
    wanted = [(m["name"], m["unit"]) for m in definition[kind]]
    missing = [n for n, _ in wanted if n not in reported]
    if missing:
        fail(3, "dvbench did not report " + ", ".join(missing))
    if args.trace:
        extra = sorted(set(reported) - {n for n, _ in wanted})
        if extra:
            fail(3, "dvbench reported per-layer metrics that BENCHMARK.json "
                    "does not name: " + ", ".join(extra))
    print(report(d, prov, definition, args))
    values = {n: reported[n] for n, _ in wanted}
    result = {
        "correct": bool(d["correct"]),
        "attempted": int(d["attempted"]),
        "failed": int(d["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
