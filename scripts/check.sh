#!/usr/bin/env bash
# Tier-1 verification: build + ctest across a matrix — the normal build
# (suite re-run under UNIFAB_AUDIT=1 and again under UNIFAB_SHARDS=4 worker
# threads), a Release (-O3) build that must reproduce every golden, an
# AddressSanitizer/UBSan build (UNIFAB_SANITIZE=ON), and a
# ThreadSanitizer build (UNIFAB_SANITIZE=thread) running the concurrency
# subset — plus the deterministic golden-JSON diffs (non-golden "perf"
# sections stripped), the engine hot-path throughput gates and a peak-RSS
# bound on bench_pod_scaleout. Run from anywhere.
#
# --audit additionally gates determinism: the full test suite re-runs with
# UNIFAB_AUDIT=1 (invariant sweeps + run digests on), each audited bench
# must still match its golden bit-for-bit, two back-to-back audited runs
# must print identical [unifab-audit] digest lines, and an audited run with
# UNIFAB_SHARDS=4 worker threads must reproduce those digest lines (and the
# golden) bit-for-bit — the sharded-engine determinism contract. Finally,
# audited runs of every such bench from the Release and ASan build trees
# must print the default build's digest lines too: no build type or
# sanitizer may change the event stream.
#
# Golden pairs are auto-discovered: dropping bench/golden/BENCH_<x>.json
# into the tree gates bench_<x> in both the plain and audited passes with
# no script edits.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
AUDIT=0
[[ "${1:-}" == "--audit" ]] && AUDIT=1

# Digest-determinism-checked benches that write no golden JSON.
AUDIT_EXTRA="bench_fig1_topology"

# Worker-thread count for the sharded-determinism leg: the same tests and
# benches must be bit-identical with 1 worker and with this many.
SHARDS=4

run_pass() {
  local build_dir="$1"
  shift
  echo "=== configure: ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S "${ROOT}" "$@"
  echo "=== build: ${build_dir} ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ctest: ${build_dir} ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

# Prints "<bench binary> <golden path>" per checked-in golden:
# bench/golden/BENCH_foo.json gates the bench_foo binary.
golden_pairs() {
  local golden
  for golden in "${ROOT}"/bench/golden/BENCH_*.json; do
    echo "bench_$(basename "${golden}" .json | sed 's/^BENCH_//') ${golden}"
  done
}

# The report's "perf" section holds wall-clock-derived numbers (calibrated
# iteration counts, elapsed seconds) and is exempt from golden diffs. It is
# a flat object (no nested braces) by BenchReport contract.
strip_perf() {
  sed -E 's/,"perf":\{[^}]*\}//' "$1"
}

# Golden diff with the non-golden perf section stripped from both sides.
diff_golden() {
  local golden="$1" generated="$2"
  diff -u --label "${golden}" --label "${generated}" \
      <(strip_perf "${golden}") <(strip_perf "${generated}")
}

# Regenerates a bench's JSON (optionally under UNIFAB_AUDIT=1) from a build
# tree (default: build) and diffs it against the checked-in golden
# bit-for-bit (minus the perf section).
check_golden() {
  local bin="$1" golden="$2" audit="${3:-0}" bench_dir="${4:-${ROOT}/build}/bench"
  local label="golden"
  [[ "${audit}" == "1" ]] && label="golden under UNIFAB_AUDIT=1"
  echo "=== bench: ${bench_dir}/${bin} ${label} ==="
  (cd "${bench_dir}" && UNIFAB_AUDIT="${audit}" "./${bin}" > /dev/null)
  diff_golden "${golden}" "${bench_dir}/$(basename "${golden}")"
}

# Two back-to-back audited runs of a bench must print bit-identical
# non-empty [unifab-audit] digest lines (stderr; never in the report JSON).
check_digests() {
  local bin="$1"
  local audit_dir="${ROOT}/build/bench/audit"
  mkdir -p "${audit_dir}"
  echo "=== audit: ${bin} digest determinism ==="
  local run
  for run in 1 2; do
    (cd "${ROOT}/build/bench" && UNIFAB_AUDIT=1 "./${bin}" \
        > "${audit_dir}/${bin}.run${run}.out" 2> "${audit_dir}/${bin}.run${run}.err")
    grep '^\[unifab-audit\] digest=' "${audit_dir}/${bin}.run${run}.err" \
        > "${audit_dir}/${bin}.run${run}.digest"
  done
  if [[ ! -s "${audit_dir}/${bin}.run1.digest" ]]; then
    echo "FAIL: ${bin} printed no [unifab-audit] digest lines" >&2
    exit 1
  fi
  diff -u "${audit_dir}/${bin}.run1.digest" "${audit_dir}/${bin}.run2.digest"
  sed 's/^/    /' "${audit_dir}/${bin}.run1.digest"
}

# The sharded-determinism gate: an audited run with ${SHARDS} worker threads
# must print the exact digest lines of the 1-worker runs above (the domain
# partition is fixed by the topology, so worker count must not be able to
# reorder anything observable).
check_shard_digests() {
  local bin="$1"
  local audit_dir="${ROOT}/build/bench/audit"
  echo "=== audit: ${bin} digest determinism at UNIFAB_SHARDS=${SHARDS} ==="
  (cd "${ROOT}/build/bench" && UNIFAB_AUDIT=1 UNIFAB_SHARDS="${SHARDS}" "./${bin}" \
      > "${audit_dir}/${bin}.shards.out" 2> "${audit_dir}/${bin}.shards.err")
  grep '^\[unifab-audit\] digest=' "${audit_dir}/${bin}.shards.err" \
      > "${audit_dir}/${bin}.shards.digest"
  diff -u "${audit_dir}/${bin}.run1.digest" "${audit_dir}/${bin}.shards.digest"
}

# The cross-build gate: an audited run from another build tree (Release,
# ASan) must print the exact digest lines of the default build's first
# audited run, so compiler flags and instrumentation cannot reorder events.
check_cross_build_digests() {
  local bin="$1" build_dir="$2"
  local audit_dir="${ROOT}/build/bench/audit"
  local tag
  tag="$(basename "${build_dir}")"
  echo "=== audit: ${bin} digest determinism in ${tag} ==="
  (cd "${build_dir}/bench" && UNIFAB_AUDIT=1 "./${bin}" \
      > "${audit_dir}/${bin}.${tag}.out" 2> "${audit_dir}/${bin}.${tag}.err")
  grep '^\[unifab-audit\] digest=' "${audit_dir}/${bin}.${tag}.err" \
      > "${audit_dir}/${bin}.${tag}.digest"
  diff -u "${audit_dir}/${bin}.run1.digest" "${audit_dir}/${bin}.${tag}.digest"
}

run_pass "${ROOT}/build"

# The whole suite must also hold with invariant auditing on: every sweep
# clean, and (because audit sweeps are read-only) identical behavior.
echo "=== ctest: ${ROOT}/build (UNIFAB_AUDIT=1) ==="
UNIFAB_AUDIT=1 ctest --test-dir "${ROOT}/build" --output-on-failure -j "${JOBS}"

# ...and with the sharded engine's worker pool actually running windows in
# parallel (${SHARDS} worker threads; the default passes above ran with 1).
echo "=== ctest: ${ROOT}/build (UNIFAB_SHARDS=${SHARDS}) ==="
UNIFAB_SHARDS="${SHARDS}" ctest --test-dir "${ROOT}/build" --output-on-failure -j "${JOBS}"

# Golden regression gate: every checked-in bench/golden/BENCH_<x>.json is
# produced by a fully deterministic bench_<x> binary.
while read -r bin golden; do
  check_golden "${bin}" "${golden}"
done < <(golden_pairs)

# Memory gate: the 64-host leg of bench_pod_scaleout once peaked at 3.3 GB
# (a never-used 32 MiB LLC tag array per core). Its default-build peak RSS,
# reported in the non-golden perf section, must stay under this bound.
POD_RSS_LIMIT_MB=300
echo "=== bench: bench_pod_scaleout peak RSS <= ${POD_RSS_LIMIT_MB} MB ==="
(cd "${ROOT}/build/bench" && ./bench_pod_scaleout > /dev/null)
python3 - "${ROOT}/build/bench/BENCH_pod_scaleout.json" "${POD_RSS_LIMIT_MB}" <<'EOF'
import json, sys
rss = json.load(open(sys.argv[1]))["perf"]["peak_rss_mb"]
print(f"    peak_rss_mb {rss}")
if rss > float(sys.argv[2]):
    sys.exit(f"FAIL: bench_pod_scaleout peak RSS {rss} MB > {sys.argv[2]} MB")
EOF

if [[ "${AUDIT}" == "1" ]]; then
  while read -r bin golden; do
    check_digests "${bin}"
    # Audit sweeps are read-only, so the audited run's JSON (written during
    # the digest check above) must still reproduce the golden.
    echo "=== audit: ${bin} golden under UNIFAB_AUDIT=1 ==="
    diff_golden "${golden}" "${ROOT}/build/bench/$(basename "${golden}")"
    # Worker threads must change neither the digests nor the report.
    check_shard_digests "${bin}"
    echo "=== audit: ${bin} golden under UNIFAB_SHARDS=${SHARDS} ==="
    diff_golden "${golden}" "${ROOT}/build/bench/$(basename "${golden}")"
  done < <(golden_pairs)
  for bin in ${AUDIT_EXTRA}; do
    check_digests "${bin}"
    check_shard_digests "${bin}"
  done
fi

# Release leg: the -O3 build must compile warning-free under -Werror, pass
# the suite, and reproduce every golden bit-for-bit, like the default
# RelWithDebInfo build (assertions stay on in both).
run_pass "${ROOT}/build-release" -DCMAKE_BUILD_TYPE=Release
while read -r bin golden; do
  check_golden "${bin}" "${golden}" 0 "${ROOT}/build-release"
done < <(golden_pairs)

# Hot-path throughput gate #1: the calendar-queue workloads must hold >= 2x
# over the recorded pre-overhaul baseline (enforced inside the bench).
echo "=== bench: engine hotpath (enforce >= 2x) ==="
(cd "${ROOT}/build/bench" && ./bench_engine_hotpath --enforce)

# Hot-path throughput gate #2: bench_engine_micro events/sec floor — fail on
# a >20% regression from the recorded baseline. Median of 3 repetitions to
# ride out single-CPU container noise; baselines in bench/baseline/ are
# deliberately conservative snapshots of post-overhaul throughput.
echo "=== bench: engine micro events/sec floor ==="
micro_json="${ROOT}/build/bench/engine_micro_floor_check.json"
(cd "${ROOT}/build/bench" && ./bench_engine_micro \
    --benchmark_filter='BM_EngineScheduleFire|BM_EngineDeepQueue' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only \
    --benchmark_format=json > "${micro_json}")
while read -r bench_name floor; do
  [[ "${bench_name}" =~ ^# ]] && continue
  measured="$(python3 - "${micro_json}" "${bench_name}" <<'EOF'
import json, sys
# The binary appends its own BenchReport lines after the google-benchmark
# JSON object; parse just the leading object.
data, _ = json.JSONDecoder().raw_decode(open(sys.argv[1]).read())
for b in data["benchmarks"]:
    if b.get("name") == sys.argv[2] + "_median":
        print(b["items_per_second"])
        break
else:
    sys.exit(f"no median aggregate for {sys.argv[2]}")
EOF
)"
  ok="$(python3 -c "import sys; print(int(float('${measured}') >= 0.8 * float('${floor}')))")"
  printf '    %-32s %12.0f events/s (floor %.0f x0.8)\n' "${bench_name}" "${measured}" "${floor}"
  if [[ "${ok}" != "1" ]]; then
    echo "FAIL: ${bench_name} regressed >20% below recorded baseline ${floor}" >&2
    exit 1
  fi
done < "${ROOT}/bench/baseline/engine_micro_floor.txt"

run_pass "${ROOT}/build-asan" -DUNIFAB_SANITIZE=ON

if [[ "${AUDIT}" == "1" ]]; then
  for build_dir in "${ROOT}/build-release" "${ROOT}/build-asan"; do
    while read -r bin _golden; do
      check_cross_build_digests "${bin}" "${build_dir}"
    done < <(golden_pairs)
    for bin in ${AUDIT_EXTRA}; do
      check_cross_build_digests "${bin}" "${build_dir}"
    done
  done
fi

# ThreadSanitizer leg: the sharded engine's worker pool, cross-shard
# mailboxes, and Link boundary protocol must be race-free when windows run
# on real threads. Full TSan ctest is too slow for the container, so this
# leg runs the concurrency-exercising subset with ${SHARDS} worker threads.
echo "=== configure: ${ROOT}/build-tsan (UNIFAB_SANITIZE=thread) ==="
cmake -B "${ROOT}/build-tsan" -S "${ROOT}" -DUNIFAB_SANITIZE=thread
echo "=== build: ${ROOT}/build-tsan ==="
cmake --build "${ROOT}/build-tsan" -j "${JOBS}"
echo "=== ctest: ${ROOT}/build-tsan (UNIFAB_SHARDS=${SHARDS}, concurrency subset) ==="
UNIFAB_SHARDS="${SHARDS}" ctest --test-dir "${ROOT}/build-tsan" --output-on-failure \
    -j "${JOBS}" -R 'Sharded|ShardCancel|FabricFuzz|FaultCampaign|Cluster|Collect|Failover|Contention|ETrans|Heap|SwitchMem|TranslationCache|Coherent|CcNuma|Tenant|Scenario|FabricArbiterQos|Pod|Bridge|Ofi'

echo "=== all checks passed ==="
