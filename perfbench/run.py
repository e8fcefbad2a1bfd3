#!/usr/bin/env python3
"""The repository benchmark: one workload per call, metrics on stdout.

    python3 perfbench/run.py --workload fig7_wan --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the perfbench binary)
into $CARGO_TARGET_DIR, default .bench_build; later calls only check that
the build is current. Each call then runs, as separate processes:

  1. `perfbench selftest`: percentile rule, strategy byte-identity on one
     small spec per traced family, span bookkeeping;
  2. the untraced campaign (Campaign::run(1) + write_campaign_report),
     repeated for --seconds: updates_per_s, peak_rss_mb, ok_frac and
     harness.report_s;
  3. the traced campaign (execute_run per job with the timing strategy),
     repeated for a third of --seconds: setup_s and every per-layer metric.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones; both
do the same work. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. A failed correctness gate prints
correct=false and exits 1; a build or run error exits 1 with no result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 850

# Event classes of the trace -> the per-layer name of their spans. kFault
# and kInternal events belong to no single layer: sim.other.
CLASS_LAYERS = {
    "install": "p4rt.install",
    "delivery": "p4rt.delivery",
    "service": "p4rt.service",
    "scenario": "control.submit",
    "control": "control.ctrl",
    "timer": "faults.timer",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def run(cmd, timeout, capture=True):
    """Runs one child to completion (killed on timeout); returns stdout."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")
    return proc.returncode, proc.stdout


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found: run from the repository root")
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
                      BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", str(build_dir), "-j",
                   str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        fail("build failed")
    return build_dir / "perfbench"


def last_json(code, out, what):
    lines = [l for l in (out or "").splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{what} exited {code} without a result")
    if code != 0 and not (what == "selftest" and "ok" in result):
        fail(f"{what} exited {code}")
    return result


def report_bytes(out_dir):
    data = (out_dir / "campaign.jsonl").read_bytes()
    csv = out_dir / "campaign.csv"
    return data + (csv.read_bytes() if csv.is_file() else b"")


def source_digest():
    """sha256 over src/ (path and bytes): identifies the measured code in a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    return lines[1] if Path(lines[0]).resolve() == ROOT.resolve() else "unknown"


def metrics_of(plain, traced):
    """Every metric, end-to-end and per-layer, as name -> value."""
    med_wall = median(plain["wall_s"])
    nonterminal = traced["nonterminal"]
    submitted = plain["requests"] + nonterminal
    bad = plain["failed"] + nonterminal
    m = {
        "updates_per_s": plain["requests"] / med_wall,
        "setup_s": median(traced["setup_s"]),
        "peak_rss_mb": plain["peak_rss_mb"],
        "ok_frac": 1.0 - bad / submitted,
        "control.failed_frac": bad / submitted,
    }
    classes = traced["classes"]
    for cls, layer in CLASS_LAYERS.items():
        m[f"{layer}_s"] = median(classes[cls]["s"])
        m[f"{layer}_n"] = classes[cls]["n"]
    other = [a + b for a, b in zip(classes["internal"]["s"],
                                   classes["fault"]["s"])]
    m["sim.other_s"] = median(other)
    m["sim.other_n"] = classes["internal"]["n"] + classes["fault"]["n"]
    inst = traced["install_ns"]
    if "p99" not in inst:
        fail(f"only {inst['samples']} install spans: p99 lacks ten samples "
             "beyond it")
    m["p4rt.install_ns_p50"] = inst["p50"]
    m["p4rt.install_ns_p99"] = inst["p99"]
    m["p4rt.install_ns_top"] = inst["top"]
    m["p4rt.install_ns_top_pct"] = inst["top_pct"]
    m["p4rt.install_ns_samples"] = inst["samples"]
    for name, value in plain["counters"].items():
        m[name] = value
    m["control.useful_frac"] = (plain["completed"] / plain["dispatched"]
                                if plain["dispatched"] else 0.0)
    run_s = median(traced["run_s"])
    m["sim.events"] = traced["events"]
    m["sim.run_s"] = run_s
    m["sim.events_per_s"] = traced["events"] / run_s
    m["net.gen_s"] = median(traced["gen_s"])
    m["harness.teardown_s"] = median(traced["teardown_s"])
    m["harness.report_s"] = median(plain["report_s"])
    m["harness.violations_p4u"] = plain["p4u_loops_blackholes"]
    m["trace.overhead_frac"] = median(traced["wall_s"]) / med_wall - 1.0
    m["trace.gap_frac"] = median(traced["gap_s"]) / median(traced["wall_s"])
    return m


def gates(selftest, plain, traced, plain_dir, traced_dir):
    """Correctness gates; returns the list of failures."""
    bad = []
    if not selftest.get("ok"):
        bad.append(f"selftest: {selftest.get('failures')}")
    if plain["churn_incomplete_runs"] or (
            plain["workload"] == "churn_ft8" and traced["nonterminal"]):
        bad.append("a churn request never reached a terminal state")
    if plain["p4u_loops_blackholes"]:
        bad.append(f"{plain['p4u_loops_blackholes']} loops/blackholes on "
                   "P4Update rows")
    if report_bytes(plain_dir) != report_bytes(traced_dir):
        bad.append("traced and untraced campaign reports differ")
    if not (plain["passes_identical"] and traced["passes_identical"]):
        bad.append("repeated passes produced different reports")
    if traced["job_error"]:
        bad.append(f"span bookkeeping: {traced['job_error']}")
    if not plain["optimized"]:
        log("WARNING: the benchmark build is not optimised")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    out = build_dir / "out" / args.workload
    plain_dir, traced_dir = out / "plain", out / "traced"
    budget = 60 + 4 * args.seconds

    def measure(mode, seconds, out_dir):
        cmd = [binary, "measure", "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(seconds), "--mode", mode,
               "--out", out_dir]
        result = last_json(*run(cmd, budget), f"{mode} run")
        (out / f"{mode}.json").write_text(json.dumps(result) + "\n")
        return result

    selftest = last_json(*run([binary, "selftest", "--out", out / "selftest"],
                              60), "selftest")
    plain = measure("plain", args.seconds, plain_dir)
    # The traced run only feeds medians of per-pass sums and pooled order
    # statistics, so a third of the time (and at least 3 passes) suffices.
    traced = measure("traced", args.seconds / 3, traced_dir)

    problems = gates(selftest, plain, traced, plain_dir, traced_dir)
    every = metrics_of(plain, traced)
    all_declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(every) - all_declared)
    missing = sorted(all_declared - set(every))
    if unknown or missing:
        fail(f"metrics not matching BENCHMARK.json: undeclared {unknown}, "
             f"never computed {missing}")

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "build_type": plain["build_type"],
        "optimized": plain["optimized"],
        "compiler": plain["compiler"],
        "commit": commit(),
        "src_sha256": source_digest(),
        "report_sha256": hashlib.sha256(report_bytes(plain_dir)).hexdigest(),
        "untraced_passes": plain["passes"],
        "traced_passes": traced["passes"],
        "jobs_per_pass": plain["jobs"],
        "spans": str(traced_dir / "spans.tsv"),
        "gates": problems or "all passed",
    }
    print("stamp " + json.dumps(stamp))
    metrics = {name: {"value": every[name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": plain["jobs"] * plain["passes"] +
                     traced["jobs"] * traced["passes"],
        "failed": (plain["churn_incomplete_runs"] +
                   plain["p4u_loops_blackholes"]) * plain["passes"],
        "metrics": metrics,
    }
    for p in problems:
        log(f"GATE FAILED: {p}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
