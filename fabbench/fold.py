"""Registry folding: MetricRegistry snapshots -> per-layer metrics.

The simulator's registry names every instrument by component path, e.g.
``fabric/link/fs0<->host0/fha/tx1/flits_sent`` or ``core/heap#3/promotions``.
``delta`` subtracts a snapshot taken at the start of the timed phase from
one taken at its end; ``fold`` sums the delta across all instances of a
component into ``<module>.<component>.<metric>``. Counters and gauges are
summed; a summary folds to its total count and its count-weighted mean
(sum of sums / sum of counts). Ratios are formed afterwards in ``per_layer``
and each is written next to the base counts it was computed from.
"""

import json
import re

_NONFINITE = re.compile(r"(?<![\w.])(-?)(nan|inf)(?![\w.])")


def parse_snapshot(text):
    """Parses SnapshotJson() output, which prints non-finite gauges as nan/inf."""
    def repl(m):
        return "NaN" if m.group(2) == "nan" else m.group(1) + "Infinity"
    return json.loads(_NONFINITE.sub(repl, text))


def delta(before, after):
    """after - before, per instrument. Summaries become {count, sum} deltas."""
    out = {}
    for path, a in after.items():
        b = before.get(path)
        if isinstance(a, dict):
            b = b if isinstance(b, dict) else {}
            out[path] = {"count": a.get("count", 0) - b.get("count", 0),
                         "sum": a.get("sum", 0.0) - b.get("sum", 0.0)}
        else:
            out[path] = a - (b if isinstance(b, (int, float)) else 0)
    return out


# (folded name, registry path pattern). Links named "a<->b" are CXL links;
# "a<~>b" are the Ethernet bridges between pods.
_LINK = r"^fabric/link/.*<->.*/tx[01]/"
_BRIDGE = r"^fabric/link/.*<~>.*/tx[01]/"
_HIER = r"^mem/hierarchy/.*/core\d+/"
_HEAP = r"^core/heap(#\d+)?/"
RULES = [
    ("fabric.link.flits_sent", _LINK + r"flits_sent$"),
    ("fabric.link.busy_ns", _LINK + r"busy_time_ns$"),
    ("fabric.link.credit_stalls", _LINK + r"credit_stalls$"),
    ("fabric.link.replays", _LINK + r"replays$"),
    ("fabric.link.dropped_on_fail", _LINK + r"dropped_on_fail$"),
    ("fabric.switch.flits_forwarded", r"^fabric/switch/.*/flits_forwarded$"),
    ("fabric.switch.queueing_ns", r"^fabric/switch/.*/queueing_ns$"),
    ("fabric.switch.hol_blocked_events", r"^fabric/switch/.*/hol_blocked_events$"),
    ("fabric.adapter.txn_latency_ns", r"^fabric/adapter/.*/txn_latency_ns$"),
    ("fabric.adapter.mshr_timeouts", r"^fabric/adapter/.*/mshr_timeouts$"),
    ("fabric.adapter.mshr_failures", r"^fabric/adapter/.*/mshr_failures$"),
    ("fabric.bridge.flits_delivered", _BRIDGE + r"flits_delivered$"),
    ("fabric.bridge.replays", _BRIDGE + r"replays$"),
    ("mem.hierarchy.loads", _HIER + r"loads$"),
    ("mem.hierarchy.stores", _HIER + r"stores$"),
    ("mem.hierarchy.l1_hits", _HIER + r"l1_hits$"),
    ("mem.hierarchy.l2_hits", _HIER + r"l2_hits$"),
    ("mem.hierarchy.llc_hits", _HIER + r"llc_hits$"),
    ("mem.hierarchy.remote_accesses", _HIER + r"remote_mem_accesses$"),
    ("mem.hierarchy.access_latency_ns", _HIER + r"access_latency_ns$"),
    ("mem.dram.reads", r"^mem/dram/.*/reads$"),
    ("mem.dram.writes", r"^mem/dram/.*/writes$"),
    ("mem.dram.queue_full_rejects", r"^mem/dram/.*/queue_full_rejects$"),
    ("core.etrans.transfers", r"^core/etrans/engine/(immediate|delegated)_transfers$"),
    ("core.etrans.job_latency_us", r"^core/etrans/agent/.*/job_latency_us$"),
    ("core.etrans.throttle_waits", r"^core/etrans/agent/.*/throttle_waits$"),
    ("core.etrans.lease_denials", r"^core/etrans/agent/.*/lease_denials$"),
    ("core.recovery.retries", r"^recovery/etrans/retries$"),
    ("core.recovery.reroutes", r"^recovery/etrans/reroutes$"),
    ("core.recovery.jobs_recovered", r"^recovery/etrans/jobs_recovered$"),
    ("core.recovery.jobs_aborted", r"^recovery/etrans/jobs_aborted$"),
    ("core.arbiter.reservations", r"^core/arbiter/reservations$"),
    ("core.arbiter.rejections", r"^core/arbiter/rejections$"),
    ("core.arbiter.preemptions", r"^core/arbiter/qos/preemptions$"),
    ("core.arbiter.client_timeouts", r"^core/arbiter/client/.*/timeouts$"),
    ("core.arbiter.late_grants", r"^core/arbiter/client/.*/late_grants$"),
    ("core.heap.reads", _HEAP + r"reads$"),
    ("core.heap.writes", _HEAP + r"writes$"),
    ("core.heap.promotions", _HEAP + r"promotions$"),
    ("core.heap.demotions", _HEAP + r"demotions$"),
    ("core.heap.migrations_failed", _HEAP + r"migrations_failed$"),
    ("core.heap.epochs", _HEAP + r"epochs$"),
    ("core.collect.completed", r"^core/collect/collectives_completed$"),
    ("core.collect.failed", r"^core/collect/collectives_failed$"),
    ("core.collect.step_retries", r"^core/collect/step_retries$"),
    ("core.collect.straggler_us", r"^core/collect/straggler_us$"),
    ("core.collect.latency_us", r"^core/collect/collective_latency_us$"),
]
_COMPILED = [(name, re.compile(pat)) for name, pat in RULES]

# Levels, not counts: folded from the end-of-phase snapshot, not the delta.
LEVELS = [("core.heap.profiler_entries", re.compile(_HEAP + r"profiler/entries$"))]


def fold(d, after):
    """Folds a delta (and the end snapshot, for levels) into layer names.

    Returns {name: {"value": v, "count": c, "instances": n}}: for counters and
    gauges v is the sum and c is 0; for summaries v is the count-weighted
    mean and c the number of samples.
    """
    out = {}
    for name, rx in _COMPILED:
        total, count, n, is_summary = 0.0, 0, 0, False
        for path, v in d.items():
            if not rx.search(path):
                continue
            n += 1
            if isinstance(v, dict):
                is_summary = True
                total += v["sum"]
                count += v["count"]
            else:
                total += v
        value = (total / count if count else 0.0) if is_summary else total
        out[name] = {"value": value, "count": count, "instances": n}
    for name, rx in LEVELS:
        vals = [v for p, v in after.items() if rx.search(p) and not isinstance(v, dict)]
        out[name] = {"value": float(sum(vals)), "count": 0, "instances": len(vals)}
    return out


def _ratio(num, den, empty=0.0):
    return num / den if den else empty


def per_layer(f):
    """Layer metrics derivable from one folded timed phase, with their bases.

    ``f`` is fold()'s output. Returns {name: (value, unit)}; ratio metrics
    are followed by the counts they divide.
    """
    v = lambda k: f[k]["value"]
    m = {}
    for k in ("fabric.link.flits_sent", "fabric.link.credit_stalls", "fabric.link.replays",
              "fabric.link.dropped_on_fail", "fabric.switch.flits_forwarded",
              "fabric.switch.hol_blocked_events", "fabric.adapter.mshr_timeouts",
              "fabric.adapter.mshr_failures", "fabric.bridge.flits_delivered",
              "fabric.bridge.replays", "mem.dram.reads", "mem.dram.writes",
              "mem.dram.queue_full_rejects", "core.etrans.transfers",
              "core.etrans.throttle_waits", "core.etrans.lease_denials",
              "core.recovery.retries", "core.recovery.reroutes", "core.recovery.jobs_aborted",
              "core.recovery.jobs_recovered", "core.arbiter.reservations",
              "core.arbiter.rejections", "core.arbiter.preemptions",
              "core.arbiter.client_timeouts", "core.arbiter.late_grants", "core.heap.reads",
              "core.heap.writes", "core.heap.promotions", "core.heap.demotions",
              "core.heap.migrations_failed", "core.heap.epochs", "core.heap.profiler_entries",
              "core.collect.completed", "core.collect.failed", "core.collect.step_retries"):
        m[k] = (v(k), "count")
    m["fabric.switch.queueing_ns_per_flit"] = (v("fabric.switch.queueing_ns"), "ns")
    m["fabric.switch.queueing_samples"] = (f["fabric.switch.queueing_ns"]["count"], "count")
    m["fabric.adapter.txn_latency_ns"] = (v("fabric.adapter.txn_latency_ns"), "ns")
    m["fabric.adapter.txns"] = (f["fabric.adapter.txn_latency_ns"]["count"], "count")
    m["core.etrans.job_latency_us"] = (v("core.etrans.job_latency_us"), "us")
    m["core.etrans.jobs"] = (f["core.etrans.job_latency_us"]["count"], "count")
    m["core.collect.straggler_us"] = (v("core.collect.straggler_us"), "us")
    m["core.collect.latency_us"] = (v("core.collect.latency_us"), "us")

    acc = v("mem.hierarchy.loads") + v("mem.hierarchy.stores")
    l1, l2 = v("mem.hierarchy.l1_hits"), v("mem.hierarchy.l2_hits")
    llc = v("mem.hierarchy.llc_hits")
    remote = v("mem.hierarchy.remote_accesses")
    m["mem.hierarchy.accesses"] = (acc, "count")
    m["mem.hierarchy.l1_hits"] = (l1, "count")
    m["mem.hierarchy.l1_hit_ratio"] = (_ratio(l1, acc), "ratio")
    m["mem.hierarchy.l2_lookups"] = (acc - l1, "count")
    m["mem.hierarchy.l2_hits"] = (l2, "count")
    m["mem.hierarchy.l2_hit_ratio"] = (_ratio(l2, acc - l1), "ratio")
    m["mem.hierarchy.llc_lookups"] = (acc - l1 - l2, "count")
    m["mem.hierarchy.llc_hits"] = (llc, "count")
    m["mem.hierarchy.llc_hit_ratio"] = (_ratio(llc, acc - l1 - l2), "ratio")
    m["mem.hierarchy.remote_accesses"] = (remote, "count")
    m["mem.hierarchy.remote_ratio"] = (_ratio(remote, acc), "ratio")
    m["mem.hierarchy.access_latency_ns"] = (v("mem.hierarchy.access_latency_ns"), "ns")

    rec, abt = v("core.recovery.jobs_recovered"), v("core.recovery.jobs_aborted")
    # 1 when no job needed recovery: nothing was lost.
    m["core.recovery.recovered_ratio"] = (_ratio(rec, rec + abt, empty=1.0), "ratio")
    return m


def link_busy(f, sim_elapsed_ns):
    """fabric.link.busy_frac with its bases: busy ns over (directions x elapsed ns)."""
    dirs = f["fabric.link.busy_ns"]["instances"]
    capacity = dirs * sim_elapsed_ns
    return {
        "fabric.link.busy_frac": (_ratio(f["fabric.link.busy_ns"]["value"], capacity), "ratio"),
        "fabric.link.busy_ns": (f["fabric.link.busy_ns"]["value"], "ns"),
        "fabric.link.capacity_ns": (capacity, "ns"),
    }
