// Shared output helpers for the reproduction benches. Each bench binary
// prints the paper artifact it regenerates (table rows / figure series)
// with paper-reported values alongside simulated ones where applicable,
// and additionally writes a machine-readable BENCH_<name>.json blob via
// BenchReport so sweeps and CI can diff results without screen-scraping.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/metrics.h"

namespace unifab {

inline void PrintHeader(const std::string& experiment, const std::string& artifact,
                        const std::string& description) {
  std::printf("==============================================================================\n");
  std::printf("%s — %s\n", experiment.c_str(), artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("==============================================================================\n");
}

inline void PrintFooter() { std::printf("\n"); }

// Taken during static initialisation, before main runs.
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

// What the process has cost the host so far.
struct ProcessCost {
  double cpu_s = 0.0;        // user + system CPU time
  double wall_s = 0.0;       // since kProcessStart
  double peak_rss_mb = 0.0;  // peak resident set, MiB
};

inline ProcessCost ReadProcessCost() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  ProcessCost cost;
  cost.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
  cost.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart).count();
  cost.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
  return cost;
}

// Accumulates a bench run's headline numbers plus full MetricRegistry
// snapshots and writes them as one JSON object to BENCH_<name>.json in the
// working directory. Keys keep insertion order, so two runs of the same
// bench produce byte-identical key sequences (values differ only if the
// simulation did).
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Note(const std::string& key, double value) { notes_.emplace_back(key, Num(value)); }
  void Note(const std::string& key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    notes_.emplace_back(key, buf);
  }
  void Note(const std::string& key, int value) {
    Note(key, static_cast<std::uint64_t>(value < 0 ? 0 : value));
  }
  void Note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, Quote(value));
  }
  void Note(const std::string& key, const char* value) { Note(key, std::string(value)); }

  // Folds a full registry snapshot in under `label` (e.g. one per scenario).
  void Capture(const std::string& label, const MetricRegistry& registry) {
    captures_.emplace_back(label, registry.SnapshotJson());
  }

  // Wall-clock-derived numbers (iteration counts, events/sec, elapsed
  // seconds) go here, NOT in Note(): the "perf" section is stripped by
  // scripts/check.sh before golden diffs, so it may vary run to run while
  // "results" and "metrics" stay bit-exact. Values are flat numbers only —
  // the stripper relies on the section containing no nested braces. Every
  // report's perf section ends with the process's cpu_s, wall_s and
  // peak_rss_mb, read when it is rendered.
  void Perf(const std::string& key, double value) { perf_.emplace_back(key, Num(value)); }
  void Perf(const std::string& key, std::uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
    perf_.emplace_back(key, buf);
  }

  // Writes BENCH_<name>.json; returns the path (empty on I/O failure).
  std::string WriteJson() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot open %s\n", path.c_str());
      return "";
    }
    std::fputs(ToJson().c_str(), f);
    std::fclose(f);
    std::printf("[bench json] %s\n", path.c_str());
    return path;
  }

  std::string ToJson() const {
    std::string out = "{\"bench\":";
    out += Quote(name_);
    out += ",\"results\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += Quote(notes_[i].first) + ":" + notes_[i].second;
    }
    out += "},\"metrics\":{";
    for (std::size_t i = 0; i < captures_.size(); ++i) {
      if (i != 0) {
        out += ',';
      }
      out += Quote(captures_[i].first) + ":" + captures_[i].second;
    }
    out += "},\"perf\":{";
    for (const auto& [key, value] : perf_) {
      out += Quote(key) + ":" + value + ",";
    }
    const ProcessCost cost = ReadProcessCost();
    out += Quote("cpu_s") + ":" + Num(cost.cpu_s) + ",";
    out += Quote("wall_s") + ":" + Num(cost.wall_s) + ",";
    out += Quote("peak_rss_mb") + ":" + Num(cost.peak_rss_mb) + "}}\n";
    return out;
  }

 private:
  static std::string Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    // JSON has no inf/nan literals; an absent-sample placeholder is null.
    std::string s(buf);
    if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos) {
      return "null";
    }
    return s;
  }

  // `s` as a JSON string literal: quoted, with quotes, backslashes and
  // newlines escaped.
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    out.reserve(s.size() + 2);
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> notes_;     // key -> rendered value
  std::vector<std::pair<std::string, std::string>> captures_;  // label -> snapshot JSON
  std::vector<std::pair<std::string, std::string>> perf_;      // non-golden wall-clock numbers
};

}  // namespace unifab

#endif  // BENCH_BENCH_UTIL_H_
