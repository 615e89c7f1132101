// fabbench_harness: runs one benchmark workload for a fixed host-time budget
// and writes every repetition's raw measurements as one JSON document.
//
//   fabbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <result.json> [--trace-file <spans.json>]
//
// A run's fixed simulated work is K campaigns, each one repetition of the
// workload with its own sub-seed derived from --seed (K per workload, see
// Campaigns()). Untraced (--trace 0): repetitions cycle through the K
// campaigns at the workload's pinned worker count until every campaign ran
// once and --seconds have passed. Traced (--trace 1): campaign 0 untraced,
// traced, and at the other worker count (1 <-> 4) for parallel efficiency,
// then untraced/traced pairs of it while time remains; the spans of the
// first traced repetition go to --trace-file. fabbench/run.py aggregates
// and checks the output.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fabbench/harness/trace.h"
#include "fabbench/harness/workloads.h"
#include "src/sim/random.h"

namespace fabbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_file;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "fabbench_harness: %s\nusage: fabbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <file> [--trace-file <file>]\n",
               msg);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + k).c_str());
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (!IsWorkload(a.workload)) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  if (a.out.empty()) {
    Usage("--out is required");
  }
  return a;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string RepJson(const RepResult& r, int campaign, bool traced, int workers) {
  std::string o = "{";
  const auto field = [&o](const char* k, const std::string& v) {
    if (o.size() > 1) {
      o += ",";
    }
    o += "\n \"" + std::string(k) + "\": " + v;
  };
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  field("campaign", std::to_string(campaign));
  field("traced", traced ? "true" : "false");
  field("workers", std::to_string(workers));
  field("cluster_build_s", Num(r.cluster_build_s));
  field("runtime_build_s", Num(r.runtime_build_s));
  field("heap_alloc_s", Num(r.heap_alloc_s));
  field("setup_s", Num(r.setup_s));
  field("rss_after_build_mb", Num(r.rss_after_build_mb));
  field("wall_s", Num(r.wall_s));
  field("cpu_s", Num(r.cpu_s));
  std::string slices = "[";
  for (std::size_t i = 0; i < r.slice_s.size(); ++i) {
    slices += (i == 0 ? "" : ",") + Num(r.slice_s[i]);
  }
  field("slice_s", slices + "]");
  field("core_call_s", Num(r.core_call_s));
  field("mem_call_s", Num(r.mem_call_s));
  field("events", u64(r.events));
  field("windows", u64(r.windows));
  field("cross_events", u64(r.cross_events));
  field("p50_us", Num(r.p50_us));
  field("p99_us", Num(r.p99_us));
  field("samples", u64(r.samples));
  field("payload_bytes", u64(r.payload_bytes));
  field("window_us", Num(r.window_us));
  field("sim_elapsed_us", Num(r.sim_elapsed_us));
  field("attempted", u64(r.attempted));
  field("completed", u64(r.completed));
  field("failed", u64(r.failed));
  field("in_flight", u64(r.in_flight));
  std::string extra = "{";
  for (std::size_t i = 0; i < r.sim_extra.size(); ++i) {
    extra += (i == 0 ? "" : ",") + Str(r.sim_extra[i].first) + ":" + Num(r.sim_extra[i].second);
  }
  field("sim_extra", extra + "}");
  std::string viol = "[";
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    viol += (i == 0 ? "" : ",") + Str(r.violations[i]);
  }
  field("violations", viol + "]");
  // Raw registry snapshots; run.py parses them (they may hold nan/inf).
  field("snap_before", Str(r.snap_before));
  field("snap_after", Str(r.snap_after));
  return o + "\n}";
}

}  // namespace
}  // namespace fabbench

int main(int argc, char** argv) {
  using namespace fabbench;
  const Args args = Parse(argc, argv);
  const auto t_start = HostClock::now();

  const ProbeResult probe = RunCalibrationProbe();

  const int pinned = PinnedWorkers(args.workload);
  const int other = pinned == 1 ? 4 : 1;
  SpanRecorder tracer;
  bool trace_written = false;
  std::size_t trace_spans = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<std::string> reps;
  const int campaigns = Campaigns(args.workload);
  const auto run = [&](int campaign, bool traced, int workers) {
    tracer.Clear();
    tracer.set_enabled(traced);
    RepOptions o;
    o.seed = unifab::DeriveStream(args.seed, static_cast<std::uint64_t>(campaign));
    o.workers = workers;
    o.tracer = &tracer;
    const RepResult r = RunRep(args.workload, o);
    tracer.set_enabled(false);
    if (traced && !trace_written) {
      trace_written = true;
      trace_spans = tracer.size();
      trace_dropped = tracer.op_spans_dropped();
      if (!args.trace_file.empty() && !tracer.WriteChromeJson(args.trace_file)) {
        std::fprintf(stderr, "fabbench_harness: cannot write %s\n", args.trace_file.c_str());
      }
    }
    reps.push_back(RepJson(r, campaign, traced, workers));
    std::fprintf(stderr,
                 "  rep %zu: campaign %d %s workers=%d wall %.3f s cpu %.3f s setup %.3f s\n",
                 reps.size(), campaign, traced ? "traced" : "untraced", workers, r.wall_s,
                 r.cpu_s, r.setup_s);
  };

  if (args.trace) {
    run(0, false, pinned);
    run(0, true, pinned);
    run(0, false, other);
    while (SecondsSince(t_start) < args.seconds) {
      run(0, false, pinned);
      run(0, true, pinned);
    }
  } else {
    for (int i = 0; i < campaigns || SecondsSince(t_start) < args.seconds; ++i) {
      run(i % campaigns, false, pinned);
    }
  }

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fabbench_harness: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64
               ", \"pinned_workers\": %d, \"campaigns\": %d,\n",
               args.workload.c_str(), args.seed, pinned, campaigns);
  std::fprintf(f,
               "\"probe\": {\"l1_ns\": %s, \"l2_ns\": %s, \"local_ns\": %s, \"remote_ns\": %s},\n",
               Num(probe.l1_ns).c_str(), Num(probe.l2_ns).c_str(), Num(probe.local_ns).c_str(),
               Num(probe.remote_ns).c_str());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::fprintf(f, "\"peak_rss_mb\": %s,\n",
               Num(static_cast<double>(ru.ru_maxrss) / 1024.0).c_str());
  std::fprintf(f, "\"trace_spans\": %zu, \"trace_spans_dropped\": %llu,\n", trace_spans,
               static_cast<unsigned long long>(trace_dropped));
  std::fprintf(f, "\"reps\": [\n");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::fprintf(f, "%s%s\n", reps[i].c_str(), i + 1 < reps.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? 0 : 1;
}
