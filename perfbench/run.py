#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs a workload, prints its metrics.

One workload, as the benchmark protocol runs it (the last line of standard
output is the result object; --trace 0 gives the end-to-end metrics and
--trace 1 the per-layer ones):

  python3 perfbench/run.py --workload hotspot-contend --seed 0 --seconds 44 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds.  Every workload on its
default seed, untraced and then traced, as a table of every metric with
its unit:

  python3 perfbench/run.py --all

The baseline (perfbench/baseline.json): for every workload, ten untraced
runs of its default seed and ten on seeds 0 to 9, interleaved, and a
traced run on its default and holdout seeds:

  python3 perfbench/run.py --baseline 10

The self-tests of the benchmark's own arithmetic:

  python3 perfbench/run.py --selftest

Build output, raw measurements and span files go under .bench_build/ in
the repository root.  perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import stats  # noqa: E402

# Each workload's default seed, holdout seed, and the world seeds its
# seeds pick from: seed n runs world seed worlds[n % len(worlds)].  On some
# world seeds the timed window holds branch-and-bound rounds of 0.2 to
# 0.8 s, which together can cost as much as the rest of the window.  The
# table holds world seeds whose window holds none (perfbench/README.md,
# "Seeds").  e4-sweep takes the seed as the sweep's master seed.
WORKLOADS = {
    "hotspot-contend": (0, 1, [20202, 2, 1, 4, 6, 7, 8, 10]),
    "e4-sweep": (4001, 4011, None),
}
# A run that has not finished by then is stopped and fails.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def benchmark_json():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def declared_metrics():
    """Name -> unit of every metric BENCHMARK.json declares, by kind."""
    bench = benchmark_json()
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def selftest_passes(verbose=False):
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    stream = sys.stderr if verbose else io.StringIO()
    return unittest.TextTestRunner(stream=stream, verbosity=2 if verbose else 0) \
        .run(suite).wasSuccessful()


def build():
    """Configures and builds perfbench from the sources in this checkout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.hpp")):
        fail("no simulator sources under %s" % ROOT)
    out = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_perfbench(binary, workload, seed, seconds, trace):
    """Runs one workload; returns its raw measurements and span file path."""
    runs = os.path.join(BUILD, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-%d-t%d" % (workload, seed, trace)
    raw_path = os.path.join(runs, tag + ".json")
    spans_path = os.path.join(runs, tag + ".spans.tsv")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", raw_path]
    if trace:
        cmd += ["--spans", spans_path]
    with tempfile.TemporaryDirectory(prefix=tag + "-", dir=runs) as work:
        # Its own process group, so a timeout also stops the sweep workers.
        proc = subprocess.Popen(cmd + ["--work-dir", work], stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail("%s did not finish within %d s" % (tag, RUN_TIMEOUT_S))
    if code != 0:
        fail("%s exited with code %d" % (tag, code))
    with open(raw_path) as f:
        return json.load(f), spans_path


def same_as_before(binary, key, digest):
    """True unless an earlier run of this very binary with the same inputs
    recorded a different digest; the first run records it."""
    with open(binary, "rb") as f:
        key = hashlib.sha256(f.read()).hexdigest()[:16] + " " + key
    path = os.path.join(BUILD, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    first = known.setdefault(key, digest)
    with open(path + ".tmp", "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return first == digest


def world_seed(workload, seed):
    worlds = WORKLOADS[workload][2]
    return worlds[seed % len(worlds)] if worlds else seed


def p50(values):
    return stats.percentile(values, 0.50)


def p99(values):
    return stats.tail_percentile(values, 0.99)


def fastest(raw, kind):
    """Each frame's host time in the fastest of the run's `kind` passes."""
    return stats.fastest_per_frame(raw[kind + ".frame_ms"], raw[kind + ".passes"])


def end_to_end(raw):
    sweep = "sweep.frames" in raw
    frames = fastest(raw, "untraced")
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        # e4-sweep: all items' frames over the fastest sweep's wall time.
        "frames_per_s": raw["sweep.frames"] / min(raw["sweep.wall_s"]) if sweep
                        else stats.frame_rate(frames),
        "frame_p50_ms": p50(frames),
        "frame_p99_ms": p99(frames),
        "peak_rss_mb": raw["sweep.first_peak_rss_kb" if sweep else "peak_rss_kb"] / 1024.0,
    }


def trace_overhead(raw):
    """1 minus the frame rate of the traced passes over that of the
    untraced passes they alternated with, each frame at its fastest."""
    return 1.0 - (stats.frame_rate(fastest(raw, "traced"))
                  / stats.frame_rate(fastest(raw, "untraced")))


def ms(span):
    return (span.end_ns - span.start_ns) / 1e6


def per_layer(raw, spans):
    kids = stats.children_of(spans)
    roots = {}
    for s in spans:
        if s.parent < 0:
            roots.setdefault(s.name, []).append(s)
    frames = roots["step_frame"]
    admission = {s.parent: s for s in spans if s.name == "admission"}
    epoch = {s.frame: s.value for s in roots["csi_candidate_epoch"]}

    self_ms = [stats.self_ns(f, kids.get(f.id, [])) / 1e6 for f in frames]
    admission_ms = [ms(admission[f.id]) for f in frames]
    decided = [admission[f.id].value for f in frames]
    moved = [epoch[f.frame] != epoch[f.frame - 1] for f in frames]
    refresh_ms = [t for t, m in zip(self_ms, moved) if m]
    steady_ms = [t for t, m in zip(self_ms, moved) if not m]
    decide_us = [a * 1e3 for a, d in zip(admission_ms, decided) if d > 0]
    depth = [s.value for s in roots["queued_requests"]]
    busy_s = sum(admission_ms) / 1e3
    decisions = sum(decided)

    checkpoints = [s for s in spans if s.name == "checkpoint"]
    writes = [s for s in spans if s.name == "write_file_atomic"]
    sweep = "sweep.frames" in raw
    return {
        "sim.self_ms.p50": p50(self_ms),
        "sim.self_ms.p99": p99(self_ms),
        "sim.us_per_user_frame": 1e3 * sum(self_ms) / raw["user_frames"],
        "sim.refresh_frames": len(refresh_ms),
        "sim.refresh_ms.p50": p50(refresh_ms),
        "sim.steady_ms.p50": p50(steady_ms),
        "admission.busy_s": busy_s,
        "admission.share": busy_s * 1e3 / sum(ms(f) for f in frames),
        "admission.decided_frames": len(decide_us),
        "admission.decide_us.p50": p50(decide_us),
        "admission.decide_us.p99": p99(decide_us),
        "admission.decisions": decisions,
        "admission.us_per_decision": busy_s * 1e6 / decisions if decisions else 0.0,
        "admission.grant_ratio": raw["traced.grants"] / decisions if decisions else 0.0,
        "admission.over_budget_frames":
            sum(1 for a in admission_ms if a > raw["frame_s"] * 1e3),
        "queue.depth_mean": statistics.fmean(depth),
        "queue.depth_p99": p99(depth),
        "snapshot.bytes": roots["snapshot"][0].value,
        "snapshot.ms": ms(roots["snapshot"][0]),
        "restore.ms": ms(roots["restore"][0]),
        "runner.checkpoints": len(checkpoints),
        "runner.checkpoint_ms":
            statistics.fmean(ms(s) for s in checkpoints) if checkpoints else 0.0,
        "runner.checkpoint_bytes":
            statistics.fmean(s.value for s in writes) if writes else 0.0,
        "runner.worker_cpu_s":
            statistics.median(raw["sweep.worker_cpu_s"]) if sweep else 0.0,
        "runner.cpu_util": statistics.median(
            stats.cpu_util(sup, work, wall, raw["sweep.workers"]) for sup, work, wall in
            zip(raw["sweep.supervisor_cpu_s"], raw["sweep.worker_cpu_s"],
                raw["sweep.wall_s"])) if sweep else 0.0,
        "runner.retries": raw.get("sweep.retries", 0),
        "runner.crashes": raw.get("sweep.crashes", 0),
        "runner.timeouts": raw.get("sweep.timeouts", 0),
        "trace.overhead": trace_overhead(raw),
        "trace.spans": len(spans),
        "host.spin_cores": raw["host.spin_cores"],
        "host.nproc": raw["host.nproc"],
        "host.hardware_concurrency": raw["host.hardware_concurrency"],
    }


def measure(binary, workload, seed, seconds, trace):
    """Runs one workload and returns the result object the protocol prints."""
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    failures = []
    attempted = 2  # the self-tests, and the digest against earlier runs
    if not selftest_passes():
        failures.append("self-tests of the benchmark arithmetic fail")
    world = world_seed(workload, seed)
    raw, spans_path = run_perfbench(binary, workload, world, seconds, trace)
    attempted += raw["attempted"]
    failures += raw["failures"]

    digest = raw["digest"]
    if "sweep.csv_digest" in raw:
        digest = "csv=%s items: %s" % (raw["sweep.csv_digest"], digest)
    print("digest: %s seed=%d world=%d %s" % (workload, seed, world, digest))
    if not same_as_before(binary, "%s %d" % (workload, world), digest):
        failures.append("digest differs from an earlier run of this build")

    if trace:
        spans = stats.read_spans(spans_path)
        # A badly nested span is a fault of this benchmark, not of the program.
        errors = stats.nesting_errors(spans)
        if errors:
            fail("%d badly nested spans, first: %s" % (len(errors), errors[0]))
        values = per_layer(raw, spans)
    else:
        values = end_to_end(raw)
    if set(values) != set(declared):
        fail("computed metrics differ from BENCHMARK.json: %s"
             % sorted(set(values) ^ set(declared)))

    print("host: nproc=%d hardware_concurrency=%d spin_cores=%.3f"
          % (raw["host.nproc"], raw["host.hardware_concurrency"], raw["host.spin_cores"]))
    for f in failures:
        print("perfbench: FAILED: " + f, file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in declared},
    }


def run_all(binary, seconds):
    """Every workload on its default seed, untraced then traced."""
    ok = True
    for workload, (seed, _, _) in WORKLOADS.items():
        for trace in (0, 1):
            result = measure(binary, workload, seed, seconds, trace)
            ok = ok and result["correct"]
            print("\n%s seed %d %s: correct=%s attempted=%d failed=%d"
                  % (workload, seed, "traced" if trace else "untraced",
                     result["correct"], result["attempted"], result["failed"]))
            for name, m in result["metrics"].items():
                print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    return ok


def run_baseline(binary, seconds, runs):
    """For every workload, `runs` untraced runs of its default seed, which
    give the run-to-run spread, interleaved with `runs` untraced runs on
    seeds 0 to runs-1, which give the spread across seeds; then a traced run
    on its default and holdout seeds.  Writes perfbench/baseline.json, and
    prints each set's median and spread, whether the spread is within the
    metric's bound, and how far apart the two sets' medians lie."""
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    labels = ("default_seed", "seeds_0_to_%d" % (runs - 1))
    baseline = {"seconds": seconds, "runs": runs, "workloads": {}}
    ok = True
    for workload, (default, holdout, worlds) in WORKLOADS.items():
        sets = {label: {} for label in labels}
        for i in range(runs):
            for label, seed in zip(labels, (default, i)):
                result = measure(binary, workload, seed, seconds, 0)
                ok = ok and result["correct"]
                for name, m in result["metrics"].items():
                    sets[label].setdefault(name, []).append(m["value"])
        traced = {}
        for seed in (default, holdout):
            result = measure(binary, workload, seed, seconds, 1)
            ok = ok and result["correct"]
            traced[str(seed)] = {name: m["value"] for name, m in result["metrics"].items()}
        baseline["workloads"][workload] = {
            "default_seed": default,
            "holdout_seed": holdout,
            "worlds": worlds,
            "end_to_end": {label: {name: stats.spread_summary(v) for name, v in values.items()}
                           for label, values in sets.items()},
            "traced": traced,
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    for workload, b in baseline["workloads"].items():
        for name, bound in bounds.items():
            a, c = (b["end_to_end"][label][name] for label in labels)
            print("%-16s %-13s bound %.2f | default seed: median %10.5g spread %.3f %-10s"
                  "| seeds: median %10.5g spread %.3f %-10s| medians differ %.3f"
                  % (workload, name, bound, a["median"], a["spread"],
                     "steady" if a["spread"] <= bound else "NOT steady",
                     c["median"], c["spread"],
                     "steady" if c["spread"] <= bound else "NOT steady",
                     abs(c["median"] / a["median"] - 1.0)))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selftest", action="store_true",
                        help="only the self-tests of the benchmark arithmetic")
    parser.add_argument("--baseline", type=int, metavar="RUNS",
                        help="re-measure perfbench/baseline.json with RUNS runs a set")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(0 if selftest_passes(verbose=True) else 1)
    if not args.all and not args.workload and not args.baseline:
        parser.error("give --workload, --all, --baseline or --selftest")
    if args.seconds is None:
        args.seconds = benchmark_json()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build()
    if args.all:
        sys.exit(0 if run_all(binary, args.seconds) else 1)
    if args.baseline:
        sys.exit(0 if run_baseline(binary, args.seconds, args.baseline) else 1)
    seed = WORKLOADS[args.workload][0] if args.seed is None else args.seed
    print(json.dumps(measure(binary, args.workload, seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
