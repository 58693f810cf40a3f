#!/usr/bin/env python3
"""Compare emitted BENCH_*.json files against checked-in baselines.

The benches reproduce paper tables/figures, so their *result* fields
(error counts, precision settings, PSNR values, event totals) are
deterministic and must match the baselines in bench/results/ exactly.
Timing-dependent fields (wall time, throughput) and
environment-dependent ones (thread count, the metrics-registry snapshot)
legitimately vary between machines and are ignored.

Usage:
    check_bench_results.py [--baseline-dir bench/results] BENCH_a.json ...

Exit status 0 when every compared field matches, 1 on any mismatch or a
missing/unreadable file. Intended for the CI bench-regression job.
"""

import argparse
import json
import math
import os
import sys

# Fields that depend on the machine or the clock, not on the computation.
# The serve-bench request totals are here too: the server sheds load under
# deadline pressure, so how many requests complete (and therefore the error
# count and the checksum over the surfaces that DID come back) depends on
# machine speed, not on the computation. They stay in the JSON as
# informational fields.
IGNORED_FIELDS = {
    "wall_s",
    "events_per_sec",
    "threads",
    "metrics_registry",
    "requests_total",
    "request_errors",
    "gates_checksum",
}

# Field-name prefixes with the same timing-dependent character: the serve
# bench reports queries-per-second as qps_<phase>_<clients>, and the cost
# breakdown benches report per-phase seconds as *_s.
IGNORED_PREFIXES = ("qps_",)


def is_timing_suffix(key):
    # Per-phase wall-clock fields (sim_s, sta_s, store_s, ...) are
    # informational like wall_s itself, and so are the service latency
    # quantiles (*_p50_ms/_p95_ms/_p99_ms) derived from them.
    return key.endswith(("_s", "_p50_ms", "_p95_ms", "_p99_ms"))


def is_ignored(key):
    # MTTF means from the lifetime Monte-Carlo are informational: the MC is
    # deterministic (its checksum/dies/phases fields ARE compared), but the
    # means are %.6g-serialized derived statistics that would only duplicate
    # what the checksum already pins down bit-exactly.
    if key.startswith("mttf_") and key.endswith("_years"):
        return True
    return (
        key in IGNORED_FIELDS
        or key.startswith(IGNORED_PREFIXES)
        or is_timing_suffix(key)
    )

# Numeric results are serialized with %.6g; comparing at a slightly looser
# relative tolerance keeps the check robust to libc printf rounding while
# still catching any real drift in the reproduced numbers.
REL_TOL = 1e-4


def values_match(a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=1e-9)
    return a == b


def check_file(emitted_path, baseline_dir):
    name = os.path.basename(emitted_path)
    baseline_path = os.path.join(baseline_dir, name)
    problems = []
    try:
        with open(emitted_path) as f:
            emitted = json.load(f)
    except (OSError, ValueError) as e:
        return ["{}: cannot read emitted file: {}".format(name, e)]
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        return ["{}: cannot read baseline {}: {}".format(name, baseline_path, e)]

    compared = 0
    for key, expected in baseline.items():
        if is_ignored(key):
            continue
        if key not in emitted:
            problems.append("{}: missing field '{}'".format(name, key))
            continue
        compared += 1
        if not values_match(emitted[key], expected):
            problems.append(
                "{}: field '{}' = {!r}, baseline {!r}".format(
                    name, key, emitted[key], expected
                )
            )
    for key in emitted:
        if key not in baseline and not is_ignored(key):
            problems.append(
                "{}: unexpected new field '{}' (update the baseline?)".format(
                    name, key
                )
            )
    if not problems:
        print("{}: OK ({} result fields match baseline)".format(name, compared))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default="bench/results",
        help="directory holding the baseline BENCH_*.json files",
    )
    parser.add_argument("emitted", nargs="+", help="emitted BENCH_*.json files")
    args = parser.parse_args()

    problems = []
    for path in args.emitted:
        problems.extend(check_file(path, args.baseline_dir))
    for p in problems:
        print("MISMATCH: " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
