#!/usr/bin/env python3
"""Perf regression gate over BENCH_frames_per_sec.json.

Compares a freshly measured perf_smoke JSON against the committed baseline:
every (cells, users, provider, sim_threads) entry present in BOTH files must
reach at least (1 - tolerance) of the baseline frames/sec.  Entries new in
the fresh file (new scale points, new providers) pass by definition; entries
that disappeared fail, so scale points cannot be silently dropped.

Schema-2 files carry {"scales": [{"cells", "users", "frames", "entries":
[{"provider", "sim_threads", "fps"}]}]}; the PR 3 schema-1 layout
({"providers": {name: fps}}) is also accepted for the baseline side, mapped
to the 19-cell scale at sim_threads=1.

One gate for PR 6 (far-field aggregation, 127-cell worlds):
  --cost-scaling PROVIDER:BASE_CELLS:BIG_CELLS:FACTOR
                            per-user frame cost 1 / (fps x users) at
                            sim_threads=1 on the BIG_CELLS grid must be at
                            most FACTOR times the BASE_CELLS grid's (e.g.
                            culled:19:127:1.3 -- radius-bounded candidate
                            sets plus the far-field aggregate keep the
                            per-user cost flat as the world grows).

The same gate also accepts the service_main decision-latency schema
({"bench": "decision_latency", ...}, PR 7): when both files carry it the
comparison switches to decisions/sec (must reach (1 - tolerance) of the
baseline) and p99 per-frame decision latency (must stay under
(1 + tolerance) x the baseline), after checking that the two benches ran
the same (scenario, policy, provider, seed) point.

Usage: check_perf.py BASELINE_JSON FRESH_JSON [--tolerance 0.20]
           [--cost-scaling PROVIDER:BASE:BIG:FACTOR ...]
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def is_decision_latency(doc):
    return doc.get("bench") == "decision_latency"


def check_decision_latency(baseline, fresh, tolerance):
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    for field in ("scenario", "policy", "provider", "seed"):
        if baseline.get(field) != fresh.get(field):
            failures.append(
                f"bench fingerprint mismatch: {field} "
                f"{baseline.get(field)!r} vs {fresh.get(field)!r}")
    if failures:
        return failures

    base_rate, fresh_rate = baseline["decisions_per_s"], fresh["decisions_per_s"]
    floor = base_rate * (1.0 - tolerance)
    status = "ok" if fresh_rate >= floor else "REGRESSED"
    print(f"check_perf: decisions/s: base {base_rate:.0f} -> fresh "
          f"{fresh_rate:.0f} (floor {floor:.0f}) {status}")
    if fresh_rate < floor:
        failures.append(
            f"decisions/s {fresh_rate:.0f} < floor {floor:.0f} "
            f"({base_rate:.0f} - {tolerance:.0%})")

    base_p99, fresh_p99 = baseline["frame_p99_us"], fresh["frame_p99_us"]
    cap = base_p99 * (1.0 + tolerance)
    status = "ok" if fresh_p99 <= cap else "REGRESSED"
    print(f"check_perf: p99 decision latency: base {base_p99:.1f} -> fresh "
          f"{fresh_p99:.1f} us (cap {cap:.1f}) {status}")
    if fresh_p99 > cap:
        failures.append(
            f"p99 decision latency {fresh_p99:.1f} us > cap {cap:.1f} us "
            f"({base_p99:.1f} + {tolerance:.0%})")
    return failures


def load_entries(path):
    doc = load_doc(path)
    entries = {}
    if "scales" in doc:  # schema 2
        for scale in doc["scales"]:
            for e in scale["entries"]:
                key = (scale["cells"], scale["users"], e["provider"], e["sim_threads"])
                entries[key] = e["fps"]
    elif "providers" in doc:  # schema 1 (PR 3)
        for provider, fps in doc["providers"].items():
            entries[(doc["cells"], doc["users"], provider, 1)] = fps
    else:
        sys.exit(f"check_perf: {path} is not a recognised perf_smoke JSON")
    return entries


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--cost-scaling", action="append", default=[],
                        metavar="PROVIDER:BASE:BIG:FACTOR",
                        help="require per-user frame cost on the BIG-cell "
                             "grid <= FACTOR x the BASE-cell grid's "
                             "(sim_threads=1, fresh run)")
    args = parser.parse_args()

    baseline_doc = load_doc(args.baseline)
    fresh_doc = load_doc(args.fresh)
    if is_decision_latency(baseline_doc) or is_decision_latency(fresh_doc):
        if not (is_decision_latency(baseline_doc) and is_decision_latency(fresh_doc)):
            sys.exit("check_perf: decision-latency and frames/sec JSON cannot "
                     "be compared against each other")
        failures = check_decision_latency(baseline_doc, fresh_doc, args.tolerance)
        if failures:
            print("check_perf: FAIL")
            for f in failures:
                print(f"  - {f}")
            return 1
        print("check_perf: decision-latency bench within tolerance")
        return 0

    baseline = load_entries(args.baseline)
    fresh = load_entries(args.fresh)

    failures = []
    # A 0 f/s entry means the timed loop never ran (crashed or truncated
    # smoke run): without this check it would only show as a missing
    # cost-scaling entry or silently depress a floor.
    for key, fps in sorted(fresh.items()):
        if fps <= 0:
            cells, users, provider, threads = key
            failures.append(
                f"{cells}c/{users}u {provider} t{threads}: recorded "
                f"{fps:g} f/s -- crashed or truncated smoke run")

    for spec in args.cost_scaling:
        try:
            provider, base_text, big_text, factor_text = spec.split(":")
            base_cells, big_cells = int(base_text), int(big_text)
            factor = float(factor_text)
        except ValueError:
            sys.exit(f"check_perf: bad --cost-scaling spec '{spec}' "
                     "(want PROVIDER:BASE:BIG:FACTOR)")
        # cost = 1 / (fps * users); one t1 entry per (cells, provider) by
        # construction of the perf_smoke grid.
        costs = {}
        for (cells, users, prov, threads), fps in fresh.items():
            if prov == provider and threads == 1 and fps > 0:
                costs[cells] = 1.0 / (fps * users)
        if base_cells not in costs or big_cells not in costs:
            failures.append(f"--cost-scaling {spec}: missing t1 entries for "
                            f"{provider} at {base_cells} and/or {big_cells} cells")
            continue
        ratio = costs[big_cells] / costs[base_cells]
        status = "ok" if ratio <= factor else "REGRESSED"
        print(f"check_perf: {provider} per-user cost {big_cells}c/{base_cells}c "
              f"ratio {ratio:.2f} (cap {factor:.2f}) {status}")
        if ratio > factor:
            failures.append(
                f"{provider}: per-user cost at {big_cells}c is {ratio:.2f}x "
                f"the {base_cells}c cost (cap {factor:.2f})")
    for key, base_fps in sorted(baseline.items()):
        cells, users, provider, threads = key
        label = f"{cells}c/{users}u {provider} t{threads}"
        if key not in fresh:
            failures.append(f"{label}: entry missing from fresh run")
            continue
        floor = base_fps * (1.0 - args.tolerance)
        status = "ok" if fresh[key] >= floor else "REGRESSED"
        print(f"check_perf: {label}: base {base_fps:.0f} -> fresh "
              f"{fresh[key]:.0f} f/s (floor {floor:.0f}) {status}")
        if fresh[key] < floor:
            failures.append(
                f"{label}: {fresh[key]:.0f} f/s < floor {floor:.0f} "
                f"({base_fps:.0f} - {args.tolerance:.0%})")
    for key in sorted(set(fresh) - set(baseline)):
        cells, users, provider, threads = key
        print(f"check_perf: {cells}c/{users}u {provider} t{threads}: new entry "
              f"{fresh[key]:.0f} f/s (no baseline)")

    if failures:
        print("check_perf: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("check_perf: all entries within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
