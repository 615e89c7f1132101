#!/usr/bin/env python3
"""UniFabric benchmark: builds the harness, runs one workload, checks it, reports.

    python3 fabbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fabbench/run.py --workload all ...        # every workload in turn
    python3 fabbench/run.py --write-manifest          # regenerate BENCHMARK.json

Run from the repository root. The harness (fabbench/harness, a CMake project
of its own) is built from source into .bench_build/fabbench on first use.
Every workload runs in its own harness process. Human-readable lines go to
stdout first; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). See fabbench/NOTES.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
import fold  # noqa: E402

# (name, why). The first two are the gated benchmark in BENCHMARK.json.
WORKLOADS = [
    ("fabric_loadstore",
     "closed-loop 64 B loads/stores to FAM on 4 hosts x 4 cores: flit pipeline, "
     "calendar queue and switch arbitration; bypasses heap, eTrans, arbiter, collectives"),
    ("tenant_qos_flap",
     "~10k gold/silver/bronze tenants plus zipf heap reads and migrations while a FAM "
     "uplink flaps: arbiter, eTrans retry/reroute and the heap profiler"),
    ("pod_allreduce_mix",
     "8 CXL pods over Ethernet bridges on 4 workers: 256 KiB AllReduces plus heap ops; "
     "topology build cost, RSS and sharded-engine windows"),
]
# pod_allreduce_mix runs by hand but is left out of BENCHMARK.json: on a
# 4-vCPU shared host its 4-worker wall time swung from 5 s to 21 s per
# repetition, far past any bound a regression gate could hold.
GATED = ("fabric_loadstore", "tenant_qos_flap")

# (name, unit, better, bound). Simulated quantities are deterministic per
# seed; host quantities are measured on the machine that runs the benchmark.
# Host times get the widest bound allowed: on a shared 4-vCPU VM the same
# repetition ran 1.15-2.24 s, in phases of tens of seconds, and run medians
# spread by 0.07-0.17 between runs. The tenant tail moves with which
# operations meet the link flap, so its p99 spreads by 0.055-0.075 between
# seeds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_p50_us", "us", "lower", 0.15),
    ("sim_p99_us", "us", "lower", 0.25),
    ("sim_goodput_gbps", "Gb/s", "higher", 0.1),
    ("ok_ratio", "ratio", "higher", 0.05),
    ("model_err_pct", "%", "lower", 0.1),
]

PER_LAYER = [
    ("sim.engine.events", "count"), ("sim.engine.events_per_s", "1/s"),
    ("sim.engine.ns_per_event", "ns"), ("sim.engine.run_slice_s.p50", "s"),
    ("sim.engine.run_slice_s.p99", "s"), ("sim.engine.run_slices", "count"),
    ("sim.engine.windows", "count"), ("sim.engine.events_per_window", "count"),
    ("sim.engine.cross_events", "count"), ("sim.engine.parallel_eff", "ratio"),
    ("sim.engine.events_per_s.1w", "1/s"), ("sim.engine.events_per_s.4w", "1/s"),
    ("topo.cluster_build_s", "s"), ("topo.rss_after_build_mb", "MB"),
    ("fabric.link.flits_sent", "count"), ("fabric.link.busy_frac", "ratio"),
    ("fabric.link.busy_ns", "ns"), ("fabric.link.capacity_ns", "ns"),
    ("fabric.link.credit_stalls", "count"), ("fabric.link.replays", "count"),
    ("fabric.link.dropped_on_fail", "count"),
    ("fabric.switch.flits_forwarded", "count"), ("fabric.switch.queueing_ns_per_flit", "ns"),
    ("fabric.switch.queueing_samples", "count"), ("fabric.switch.hol_blocked_events", "count"),
    ("fabric.adapter.txn_latency_ns", "ns"), ("fabric.adapter.txns", "count"),
    ("fabric.adapter.mshr_timeouts", "count"), ("fabric.adapter.mshr_failures", "count"),
    ("fabric.bridge.flits_delivered", "count"), ("fabric.bridge.replays", "count"),
    ("mem.hierarchy.accesses", "count"), ("mem.hierarchy.l1_hits", "count"),
    ("mem.hierarchy.l1_hit_ratio", "ratio"), ("mem.hierarchy.l2_lookups", "count"),
    ("mem.hierarchy.l2_hits", "count"), ("mem.hierarchy.l2_hit_ratio", "ratio"),
    ("mem.hierarchy.llc_lookups", "count"), ("mem.hierarchy.llc_hits", "count"),
    ("mem.hierarchy.llc_hit_ratio", "ratio"), ("mem.hierarchy.remote_accesses", "count"),
    ("mem.hierarchy.remote_ratio", "ratio"), ("mem.hierarchy.access_latency_ns", "ns"),
    ("mem.dram.reads", "count"), ("mem.dram.writes", "count"),
    ("mem.dram.queue_full_rejects", "count"), ("mem.call_s", "s"),
    ("core.runtime_build_s", "s"), ("core.heap.alloc_s", "s"), ("core.call_s", "s"),
    ("core.etrans.transfers", "count"), ("core.etrans.job_latency_us", "us"),
    ("core.etrans.jobs", "count"), ("core.etrans.throttle_waits", "count"),
    ("core.etrans.lease_denials", "count"),
    ("core.recovery.retries", "count"), ("core.recovery.reroutes", "count"),
    ("core.recovery.jobs_aborted", "count"), ("core.recovery.jobs_recovered", "count"),
    ("core.recovery.recovered_ratio", "ratio"),
    ("core.arbiter.reservations", "count"), ("core.arbiter.rejections", "count"),
    ("core.arbiter.preemptions", "count"), ("core.arbiter.client_timeouts", "count"),
    ("core.arbiter.late_grants", "count"),
    ("core.heap.reads", "count"), ("core.heap.writes", "count"),
    ("core.heap.promotions", "count"), ("core.heap.demotions", "count"),
    ("core.heap.migrations_failed", "count"), ("core.heap.epochs", "count"),
    ("core.heap.profiler_entries", "count"),
    ("core.tenant.gold.p99_us", "us"), ("core.tenant.gold.failed", "count"),
    ("core.tenant.gold.issued", "count"),
    ("core.tenant.silver.p99_us", "us"), ("core.tenant.silver.failed", "count"),
    ("core.tenant.silver.issued", "count"),
    ("core.tenant.bronze.p99_us", "us"), ("core.tenant.bronze.failed", "count"),
    ("core.tenant.bronze.issued", "count"),
    ("core.collect.completed", "count"), ("core.collect.failed", "count"),
    ("core.collect.step_retries", "count"), ("core.collect.straggler_us", "us"),
    ("core.collect.latency_us", "us"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"), ("trace.spans_dropped", "count"),
]

# Per-layer metrics where a larger value is the better outcome; for every
# other one (host time, latency, failures, work spent) lower is better.
HIGHER_IS_BETTER = {
    "sim.engine.events_per_s", "sim.engine.events_per_s.1w", "sim.engine.events_per_s.4w",
    "sim.engine.parallel_eff", "sim.engine.events_per_window", "mem.hierarchy.l1_hit_ratio",
    "mem.hierarchy.l2_hit_ratio", "mem.hierarchy.llc_hit_ratio",
    "core.recovery.recovered_ratio", "core.recovery.jobs_recovered", "core.collect.completed",
}

# Paper Table 2 unloaded read latencies (ns): the model's calibration targets.
TABLE2_NS = {"l1_ns": 5.4, "l2_ns": 13.6, "local_ns": 111.7, "remote_ns": 1575.0}

RUN_SECONDS = 50
HARNESS_TIMEOUT_S = 170


def manifest(run_seconds):
    return {
        "command": ["python3", "fabbench/run.py"],
        "paths": ["fabbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS if n in GATED],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
                      for n, u in PER_LAYER],
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fabbench: simulator sources (src/) not found; run from a repository checkout")
        return None
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "fabbench")
    exe = os.path.join(build_dir, "fabbench_harness")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("fabbench: build failed: " + " ".join(cmd))
            return None
    return exe if os.path.isfile(exe) else None


def run_harness(exe, workload, seed, seconds, trace):
    out_dir = os.path.join(os.path.dirname(exe), "runs")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, "%s-%d-%d.json" % (workload, seed, trace))
    trace_file = os.path.join(out_dir, "%s-%d.trace.json" % (workload, seed))
    if os.path.exists(out):
        os.remove(out)
    env = {k: v for k, v in os.environ.items() if not k.startswith("UNIFAB_")}
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out, "--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "harness timed out after %d s" % HARNESS_TIMEOUT_S, trace_file
    if proc.returncode != 0 or not os.path.isfile(out):
        return None, "harness exited %d: %s" % (proc.returncode, proc.stderr[-2000:]), trace_file
    with open(out) as f:
        return json.load(f), None, trace_file


def registry_delta(rep):
    after = fold.parse_snapshot(rep["snap_after"])
    return fold.delta(fold.parse_snapshot(rep["snap_before"]), after), after


# Rep fields that are simulated outputs and must repeat exactly.
SIM_FIELDS = ("p50_us", "p99_us", "samples", "payload_bytes", "window_us", "sim_elapsed_us",
              "attempted", "completed", "failed", "in_flight", "events", "sim_extra")


def signature(rep, delta):
    sig = {k: rep[k] for k in SIM_FIELDS}
    sig["registry"] = delta
    return sig


def first_difference(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            d = first_difference(a.get(k), b.get(k), path + "/" + str(k))
            if d:
                return d
        return None
    if a != b and not (isinstance(a, float) and isinstance(b, float)
                       and math.isnan(a) and math.isnan(b)):
        return "%s: %r != %r" % (path, a, b)
    return None


def check(doc, deltas):
    """Audit/accounting results of every repetition plus exact repeatability."""
    errors = []
    reps = doc["reps"]
    for i, rep in enumerate(reps):
        for v in rep["violations"]:
            errors.append("rep %d (campaign %d): %s" % (i, rep["campaign"], v))
    first = {}
    for i, rep in enumerate(reps):
        sig = signature(rep, deltas[i])
        c = rep["campaign"]
        if c not in first:
            first[c] = (i, sig)
            continue
        j, ref = first[c]
        d = first_difference(ref, sig)
        if d:
            errors.append("campaign %d not repeatable (rep %d vs rep %d, %s workers=%d): %s"
                          % (c, j, i, "traced" if rep["traced"] else "untraced",
                             rep["workers"], d))
    for k, v in doc["probe"].items():
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            errors.append("calibration probe %s = %r" % (k, v))
    return errors


def model_err_pct(probe):
    return max(abs(probe[k] - t) / t * 100.0 for k, t in TABLE2_NS.items())


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(doc):
    reps = doc["reps"]
    campaigns = sorted({r["campaign"] for r in reps})
    firsts = [next(r for r in reps if r["campaign"] == c) for c in campaigns]
    per_campaign = lambda key: [median([r[key] for r in reps if r["campaign"] == c])
                                for c in campaigns]
    payload = sum(r["payload_bytes"] for r in firsts)
    window_us = sum(r["window_us"] for r in firsts)
    attempted = sum(r["attempted"] for r in firsts)
    completed = sum(r["completed"] for r in firsts)
    m = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "wall_s": sum(per_campaign("wall_s")),
        "cpu_s": sum(per_campaign("cpu_s")),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_p50_us": median([r["p50_us"] for r in firsts]),
        "sim_p99_us": median([r["p99_us"] for r in firsts]),
        "sim_goodput_gbps": payload * 8.0 / (window_us * 1e3) if window_us else 0.0,
        "ok_ratio": completed / attempted if attempted else 0.0,
        "model_err_pct": model_err_pct(doc["probe"]),
    }
    notes = [
        "campaigns: %d, repetitions: %d" % (len(campaigns), len(reps)),
        "headline samples per campaign: %s" % [r["samples"] for r in firsts],
        "operations: attempted %d, completed %d, failed %d, never finished %d (fail_ratio %.6g)"
        % (attempted, completed, sum(r["failed"] for r in firsts),
           sum(r["in_flight"] for r in firsts),
           (attempted - completed) / attempted if attempted else 0.0),
        "probe (ns): " + ", ".join("%s %.4f (paper %.1f)" % (k, doc["probe"][k], t)
                                   for k, t in TABLE2_NS.items()),
    ]
    return m, attempted, attempted - completed, notes


def layer_metrics(doc, deltas, afters):
    reps = doc["reps"]
    pinned = doc["pinned_workers"]
    untraced = [i for i, r in enumerate(reps) if not r["traced"] and r["workers"] == pinned]
    traced = [i for i, r in enumerate(reps) if r["traced"]]
    other = [i for i, r in enumerate(reps) if r["workers"] != pinned]
    t = traced[0]
    rep = reps[t]
    f = fold.fold(deltas[t], afters[t])
    m = fold.per_layer(f)
    m.update(fold.link_busy(f, rep["sim_elapsed_us"] * 1e3))

    host = lambda key: median([reps[i][key] for i in untraced])
    wall = host("wall_s")
    eps = {pinned: rep["events"] / wall if wall else 0.0}
    if other:
        o = reps[other[0]]
        eps[o["workers"]] = o["events"] / o["wall_s"] if o["wall_s"] else 0.0
    slices = [s for i in untraced for s in reps[i]["slice_s"]]
    q = statistics.quantiles(slices, n=100) if len(slices) >= 2 else [0.0] * 99
    windows = rep["windows"]
    m.update({
        "sim.engine.events": (rep["events"], "count"),
        "sim.engine.events_per_s": (eps[pinned], "1/s"),
        "sim.engine.ns_per_event": (wall * 1e9 / rep["events"] if rep["events"] else 0.0, "ns"),
        "sim.engine.run_slice_s.p50": (q[49], "s"),
        "sim.engine.run_slice_s.p99": (q[98], "s"),
        "sim.engine.run_slices": (len(slices), "count"),
        "sim.engine.windows": (windows, "count"),
        "sim.engine.events_per_window": (rep["events"] / windows if windows else 0.0, "count"),
        "sim.engine.cross_events": (rep["cross_events"], "count"),
        "sim.engine.events_per_s.1w": (eps.get(1, 0.0), "1/s"),
        "sim.engine.events_per_s.4w": (eps.get(4, 0.0), "1/s"),
        "sim.engine.parallel_eff": (eps[4] / eps[1] if eps.get(1) and 4 in eps else 0.0, "ratio"),
        "topo.cluster_build_s": (host("cluster_build_s"), "s"),
        "topo.rss_after_build_mb": (host("rss_after_build_mb"), "MB"),
        "core.runtime_build_s": (host("runtime_build_s"), "s"),
        "core.heap.alloc_s": (host("heap_alloc_s"), "s"),
        "core.call_s": (median([reps[i]["core_call_s"] for i in traced]), "s"),
        "mem.call_s": (median([reps[i]["mem_call_s"] for i in traced]), "s"),
        "trace.overhead_s": (median([reps[i]["wall_s"] for i in traced]) - wall, "s"),
        "trace.spans": (doc["trace_spans"], "count"),
        "trace.spans_dropped": (doc["trace_spans_dropped"], "count"),
    })
    for cls in ("gold", "silver", "bronze"):
        for key, unit in (("p99_us", "us"), ("failed", "count"), ("issued", "count")):
            name = "core.tenant.%s.%s" % (cls, key)
            m[name] = (rep["sim_extra"].get(name, 0.0), unit)
    notes = ["traced repetition: campaign %d; untraced pinned-worker repetitions: %d"
             % (rep["campaign"], len(untraced)),
             "host wall of the timed phase: untraced %.4f s, traced %.4f s" %
             (wall, median([reps[i]["wall_s"] for i in traced]))]
    return m, rep["attempted"], rep["attempted"] - rep["completed"], notes


def run_one(exe, workload, seed, seconds, trace):
    doc, err, trace_file = run_harness(exe, workload, seed, seconds, trace)
    if doc is None:
        print("fabbench: %s" % err)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    pairs = [registry_delta(r) for r in doc["reps"]]
    deltas = [p[0] for p in pairs]
    afters = [p[1] for p in pairs]
    errors = check(doc, deltas)
    if trace:
        values, attempted, failed, notes = layer_metrics(doc, deltas, afters)
        units = dict(PER_LAYER)
        notes.append("span file: %s" % os.path.relpath(trace_file, ROOT))
    else:
        values, attempted, failed, notes = end_to_end(doc)
        units = {n: u for n, u, _, _ in END_TO_END}
        values = {k: (v, units[k]) for k, v in values.items()}
    metrics = {n: {"value": values[n][0], "unit": u} for n, u in units.items()}
    print("== %s  seed %d  trace %d" % (workload, seed, trace))
    for n in notes:
        print("   " + n)
    for n, u in units.items():
        print("   %-40s %16.6g %s" % (n, metrics[n]["value"], u))
    for e in errors:
        print("   CHECK FAILED: " + e)
    return {"correct": not errors, "attempted": max(1, int(attempted)), "failed": int(failed),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root and exit")
    args = ap.parse_args()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(RUN_SECONDS), f, indent=2)
            f.write("\n")
        return 0
    names = [n for n, _ in WORKLOADS]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo):
        log("fabbench: --workload must be one of %s or all" % ", ".join(names))
        return 2
    exe = build()
    if exe is None:
        return 1
    results = [run_one(exe, w, args.seed, args.seconds, args.trace) for w in todo]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({w: r for w, r in zip(todo, results)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
