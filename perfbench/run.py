#!/usr/bin/env python3
"""Repository benchmark: builds the workload program from source, runs one
workload, checks its simulated outputs and prints one JSON result line.

Run from the repository root:

  python3 perfbench/run.py --workload gate_chain --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test          # checks the benchmark itself
  python3 perfbench/run.py --make-references    # rewrites references.json

The last line of standard output is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Everything the build and the runs leave behind goes under
.bench_build/ in the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("gate_chain", "closed_loop", "approx_flow", "serve_mix")
# Workloads whose outputs are compared with references.json; serve_mix checks
# every answer itself, against a local recomputation.
REFERENCED = ("gate_chain", "closed_loop", "approx_flow")
RUN_TIMEOUT_S = 170

# End-to-end metrics: one value per run, every workload.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# The workloads' own end-to-end figures (printed, not in the result line).
WORKLOAD_METRICS = {
    "gate_chain": (("timed_ops_per_s", "1/s"),),
    "closed_loop": (("timed_ops_per_s", "1/s"),),
    "approx_flow": (("surfaces_per_s", "1/s"), ("flow_s", "s"), ("rtl_mpix_per_s", "Mpix/s")),
    "serve_mix": (("req_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms")),
}

STORE_FAMILIES = ("netlist", "library", "delay", "surface")


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(d):
    """Per-layer metrics of a traced run's result, in a fixed order."""
    lay = d["layers"]

    def v(key):
        return float(lay.get(key, 0.0))

    steps, events = v("gatesim.timed.steps"), v("gatesim.timed.events")
    # busy_s covers the benchmark's own timed-simulation calls; the steps a
    # closed-loop campaign makes inside ClosedLoopRuntime::run are runtime time.
    direct_events = events - v("runtime.timed_events")
    hits = sum(v(f"engine.store.{f}_hits") for f in STORE_FAMILIES)
    misses = sum(v(f"engine.store.{f}_misses") for f in STORE_FAMILIES)
    out = [
        ("gatesim.timed.busy_s", "s", v("gatesim.timed.busy_s")),
        ("gatesim.timed.steps", "count", steps),
        ("gatesim.timed.events", "count", events),
        ("gatesim.timed.events_per_step", "count", ratio(events, steps)),
        ("gatesim.timed.events_per_s", "1/s",
         ratio(direct_events, v("gatesim.timed.busy_s"))),
        ("gatesim.timed.max_queue_depth", "count", v("gatesim.timed.max_queue_depth")),
        ("gatesim.timed.error_steps", "count", v("gatesim.timed.error_steps")),
        ("rtl.self_s", "s", v("rtl.self_s")),
        ("rtl.mult_ops", "count", v("rtl.mult_ops")),
        ("rtl.add_ops", "count", v("rtl.add_ops")),
        ("rtl.pixels", "count", v("rtl.pixels")),
        ("synth.busy_s", "s", v("synth.busy_s")),
        ("synth.cpu_s", "s", v("synth.cpu_s")),
        ("synth.netlists", "count", v("engine.store.netlist_misses")),
        ("synth.gates", "count", v("synth.gates")),
        ("cell.busy_s", "s", v("cell.busy_s")),
        ("cell.aged_libraries", "count", v("engine.store.library_misses")),
        ("sta.busy_s", "s", v("sta.busy_s")),
        ("sta.cpu_s", "s", v("sta.cpu_s")),
        ("sta.aged_runs", "count", v("sta.aged_runs")),
        ("sta.fresh_runs", "count", v("sta.fresh_runs")),
        ("sta.gate_visits", "count", v("sta.gate_visits")),
        ("gatesim.packed.busy_s", "s", v("gatesim.packed.busy_s")),
        ("gatesim.packed.evals", "count", v("gatesim.packed.evals")),
        ("gatesim.packed.lane_util", "frac",
         ratio(v("gatesim.packed.vectors"), v("gatesim.packed.lane_slots"))),
        ("core.self_s", "s", v("core.self_s")),
        ("core.points", "count", v("core.points")),
        ("core.surfaces", "count", v("core.surfaces")),
        ("core.flows", "count", v("core.flows")),
    ]
    for family in STORE_FAMILIES:
        out.append((f"engine.store.{family}_hits", "count", v(f"engine.store.{family}_hits")))
        out.append((f"engine.store.{family}_misses", "count",
                    v(f"engine.store.{family}_misses")))
    out += [
        ("engine.store.hit_ratio", "frac", ratio(hits, hits + misses)),
        ("engine.persist.save_s", "s", v("traced.engine.persist.save_s")),
        ("engine.persist.open_s", "s", v("traced.engine.persist.open_s")),
        ("engine.persist.bytes_written", "count", v("engine.persist.bytes_written")),
        ("engine.persist.bytes_read", "count", v("engine.persist.bytes_read")),
        ("engine.persist.records_loaded", "count", v("engine.persist.records_loaded")),
        ("engine.persist.records_dropped", "count", v("engine.persist.records_dropped")),
        ("engine.persist.hits", "count", v("engine.persist.hits")),
        ("runtime.plan_s", "s", v("traced.runtime.plan_s")),
        ("runtime.run_s", "s", v("traced.runtime.run_s")),
        ("runtime.epochs", "count", v("runtime.epochs")),
        ("runtime.vectors", "count", v("runtime.vectors")),
        ("runtime.control_events", "count", v("runtime.control_events")),
        ("runtime.commit_ratio", "frac",
         ratio(v("runtime.committed"), v("runtime.control_events"))),
        ("service.server_s", "s", v("traced.service.server_s")),
        ("service.wire_s", "s", v("traced.service.wire_s")),
        ("service.completed", "count", v("service.completed")),
        ("service.shed", "count", v("service.shed")),
        ("service.deduped", "count", v("service.deduped")),
        ("service.cancelled", "count", v("service.cancelled")),
        ("service.max_queue_depth", "count", v("service.max_queue_depth")),
        ("service.dedup_ratio", "frac", v("service.dedup_ratio")),
        ("image.busy_s", "s", v("image.busy_s")),
        ("bench.self_s", "s", v("bench.self_s")),
        ("trace.wall_s", "s", v("trace.wall_s")),
        ("trace.unattributed_s", "s", v("trace.unattributed_s")),
        ("trace_overhead_frac", "frac", float(d["trace_overhead_frac"])),
    ]
    return out


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds the workload program under .bench_build; returns its path."""
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        fail("no src/ next to perfbench/: run from a full checkout of the repository")
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail("cmake configure failed")
        cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            fail("build failed")
    return build_dir / "aapx_perfbench"


def run_workload(exe, root, workload, seed, seconds, trace, threads=0, extra=()):
    work = root / ".bench_build" / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", str(work)]
    if threads:
        cmd += ["--threads", str(threads)]
    cmd += list(extra)
    if trace:
        cmd += ["--trace-out", str(root / ".bench_build" / f"trace_{workload}.json")]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: workload program exited with {proc.returncode}")
    return json.loads(lines[-1])


def load_references():
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def checked_values(result):
    """(key, unit index, value) of every output compared with a reference."""
    if result["workload"] not in REFERENCED:
        return []
    return [(k, i, v) for k, vs in sorted(result["checks"].items()) for i, v in enumerate(vs)]


def mismatches(result, references):
    """(key, unit index) of every checked output that differs from its
    stored reference; each unit's output is compared on its own."""
    ref = references.get(result["workload"], {})
    return [(k, i) for k, i, v in checked_values(result) if ref.get(k) != v]


def verdict(result, references):
    """attempted = requests the program checked itself + outputs compared
    with a reference; failed = those that failed."""
    bad = mismatches(result, references)
    for key, i in bad[:10]:
        want = references.get(result["workload"], {}).get(key)
        print(f"perfbench: {key} (unit {i}): got {result['checks'][key][i]!r}, "
              f"reference {want!r}", file=sys.stderr)
    attempted = max(1, int(result["attempted"]) + len(checked_values(result)))
    failed = min(attempted, int(result["failed"]) + len(bad))
    return attempted, failed


def report(args, exe, root):
    d = run_workload(exe, root, args.workload, args.seed, args.seconds, args.trace)
    attempted, failed = verdict(d, load_references())
    print(f"perfbench {d['workload']} seed={d['seed']} threads={d['threads']} "
          f"trace={int(args.trace)}: {failed} of {attempted} checked outputs failed")
    if args.trace:
        rows = per_layer(d)
    else:
        rows = [(name, unit, float(d[name])) for name, unit in END_TO_END]
    extra = [(name, unit, float(d["metrics"][name]))
             for name, unit in WORKLOAD_METRICS[d["workload"]]]
    extra.append(("fail_frac", "frac", failed / attempted))
    for name, unit, value in rows + extra:
        print(f"  {name:34s} {value:.6g} {unit}")
    print("  work counts (identical on every run of one seed):")
    for name, value in sorted(d["counts"].items()):
        print(f"    {name:32s} {value:.0f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in rows},
    }))
    return 0 if failed == 0 else 1


def make_references(exe, root):
    """Runs every input variant of the reference-checked workloads and
    records their outputs (the reference is this commit's simulation)."""
    plan = {"gate_chain": [(seed, 1) for seed in range(8)],
            "closed_loop": [(0, 2)],
            "approx_flow": [(0, 3)]}
    refs = {}
    for workload, runs in plan.items():
        checks = {}
        for seed, seconds in runs:
            d = run_workload(exe, root, workload, seed, seconds, False)
            for key, values in d["checks"].items():
                for value in values:
                    if checks.setdefault(key, value) != value:
                        fail(f"{workload}: {key} differs between units or runs")
        refs[workload] = dict(sorted(checks.items()))
        print(f"{workload}: {len(checks)} reference values")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def self_test(exe, root):
    """The benchmark's own checks: determinism across runs and thread
    counts, exact work counts, and a reference check that can fail."""
    refs = load_references()
    problems = []
    for workload in WORKLOADS:
        a = run_workload(exe, root, workload, 3, 1, False)
        b = run_workload(exe, root, workload, 3, 1, False)
        one = run_workload(exe, root, workload, 3, 1, False, threads=1)
        if verdict(a, refs)[1] != 0:
            problems.append(f"{workload}: outputs do not match the references")
        if a["counts"] != b["counts"]:
            diff = {k for k in a["counts"] if a["counts"][k] != b["counts"].get(k)}
            problems.append(f"{workload}: work counts differ between two runs: {sorted(diff)}")
        if a["checks"] != one["checks"]:
            problems.append(f"{workload}: outputs differ between --threads 1 and "
                            f"--threads {a['threads']}")
        if workload in REFERENCED:
            key = sorted(a["checks"])[0]
            corrupt = json.loads(json.dumps(refs))
            corrupt[workload][key] = "corrupted"
            if mismatches(a, corrupt) != [(key, i) for i in range(len(a["checks"][key]))]:
                problems.append(f"{workload}: a corrupted reference went unnoticed")
        else:
            c = run_workload(exe, root, workload, 3, 1, False,
                             extra=("--corrupt-expected", "1"))
            if verdict(c, refs)[1] == 0:
                problems.append(f"{workload}: a corrupted expectation went unnoticed")
        print(f"self-test {workload}: {len(a['checks'])} outputs, "
              f"{len(a['counts'])} work counts, threads 1 vs {a['threads']} compared")
    t = run_workload(exe, root, "closed_loop", 5, 1, True)
    names = [name for name, _, _ in per_layer(t)]
    if len(names) != len(set(names)) or t["layers"]["gatesim.timed.busy_s"] <= 0:
        problems.append("closed_loop: traced run lacks per-layer times")
    for p in problems:
        print(f"self-test FAILED: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--make-references", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    exe = build(root)
    if args.self_test:
        return self_test(exe, root)
    if args.make_references:
        return make_references(exe, root)
    if args.workload is None:
        fail("--workload is required")
    return report(args, exe, root)


if __name__ == "__main__":
    sys.exit(main())
