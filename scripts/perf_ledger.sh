#!/usr/bin/env bash
# Appends one line to the committed host-cost ledger, BENCH_ledger.json at
# the repo root: the git revision, each bench's perf.wall_s, perf.cpu_s and
# perf.peak_rss_mb, and the wall_s total of the sim benches (every bench but
# the engine micro-benchmarks). It reads the BENCH_*.json reports that the
# bench binaries left in <build_dir>/bench (default: build), so run the
# benches from that directory first, e.g.
#
#   (cd build/bench && for b in ./bench_*; do "$b" > /dev/null; done)
#   scripts/perf_ledger.sh build
#
# The ledger is informational: it records a per-revision curve of host cost
# and gates nothing. Host numbers are only comparable between lines taken
# on the same machine.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-${ROOT}/build}"
REV="$(git -C "${ROOT}" describe --always --dirty --abbrev=7)"

python3 - "${BUILD}/bench" "${REV}" "${ROOT}/BENCH_ledger.json" <<'EOF'
import datetime, glob, json, os, sys

bench_dir, rev, ledger = sys.argv[1:4]
# Micro-benchmarks time the engine in isolation; they are not sim runs.
NOT_SIM = {"engine_hotpath", "engine_micro"}

benches = {}
for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
    with open(path) as f:
        report = json.load(f)
    perf = report["perf"]
    benches[report["bench"]] = {k: perf[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
if not benches:
    sys.exit(f"perf_ledger: no BENCH_*.json under {bench_dir}")

line = {
    "rev": rev,
    "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "cpus": os.cpu_count(),
    "sim_wall_s_total": round(sum(b["wall_s"] for n, b in benches.items() if n not in NOT_SIM), 3),
    "benches": benches,
}
with open(ledger, "a") as f:
    f.write(json.dumps(line, sort_keys=True) + "\n")
print(f"perf_ledger: {rev}: {len(benches)} benches, sim wall_s total "
      f"{line['sim_wall_s_total']} s -> {ledger}")
EOF
