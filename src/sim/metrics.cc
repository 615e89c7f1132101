#include "src/sim/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace unifab {

namespace {

// Formats a double the same way everywhere so snapshots diff cleanly.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string FormatU64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string SummaryJson(const Summary& s) {
  std::string out = "{\"count\":" + FormatU64(s.Count());
  if (s.Empty()) {
    out += "}";
    return out;
  }
  out += ",\"sum\":" + FormatDouble(s.Sum());
  out += ",\"mean\":" + FormatDouble(s.Mean());
  out += ",\"min\":" + FormatDouble(s.Min());
  out += ",\"max\":" + FormatDouble(s.Max());
  out += ",\"p50\":" + FormatDouble(s.Percentile(50.0));
  out += ",\"p99\":" + FormatDouble(s.Percentile(99.0));
  out += "}";
  return out;
}

}  // namespace

std::string MetricRegistry::Insert(const std::string& path, Instrument instrument) {
  std::string final_path = path;
  int suffix = 2;
  while (instruments_.count(final_path) != 0) {
    final_path = path + "#" + std::to_string(suffix++);
  }
  instruments_.emplace(final_path, std::move(instrument));
  return final_path;
}

std::string MetricRegistry::AddCounterFn(const std::string& path, CounterFn fn) {
  Instrument inst;
  inst.kind = Instrument::Kind::kCounter;
  inst.counter = std::move(fn);
  return Insert(path, std::move(inst));
}

std::string MetricRegistry::AddGaugeFn(const std::string& path, GaugeFn fn) {
  Instrument inst;
  inst.kind = Instrument::Kind::kGauge;
  inst.gauge = std::move(fn);
  return Insert(path, std::move(inst));
}

std::string MetricRegistry::AddSummaryFn(const std::string& path, SummaryFn fn) {
  Instrument inst;
  inst.kind = Instrument::Kind::kSummary;
  inst.summary = std::move(fn);
  return Insert(path, std::move(inst));
}

bool MetricRegistry::Remove(const std::string& path) { return instruments_.erase(path) != 0; }

std::string MetricRegistry::ClaimPrefix(const std::string& prefix) {
  const int n = ++prefix_claims_[prefix];
  if (n == 1) {
    return prefix;
  }
  return prefix + "#" + std::to_string(n);
}

std::string MetricRegistry::SnapshotJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [path, inst] : instruments_) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n  \"" + JsonEscape(path) + "\": ";
    switch (inst.kind) {
      case Instrument::Kind::kCounter:
        out += FormatU64(inst.counter());
        break;
      case Instrument::Kind::kGauge:
        out += FormatDouble(inst.gauge());
        break;
      case Instrument::Kind::kSummary:
        out += SummaryJson(*inst.summary());
        break;
    }
  }
  out += first ? "}" : "\n}";
  return out;
}

MetricGroup::MetricGroup(MetricRegistry* registry, const std::string& prefix)
    : registry_(registry) {
  if (registry_ != nullptr) {
    prefix_ = registry_->ClaimPrefix(prefix);
  }
}

MetricGroup& MetricGroup::operator=(MetricGroup&& other) noexcept {
  if (this != &other) {
    RemoveAll();
    registry_ = other.registry_;
    prefix_ = std::move(other.prefix_);
    registered_ = std::move(other.registered_);
    other.registry_ = nullptr;
    other.registered_.clear();
  }
  return *this;
}

void MetricGroup::AddCounterFn(const std::string& name, MetricRegistry::CounterFn fn) {
  if (registry_ != nullptr) {
    registered_.push_back(registry_->AddCounterFn(Full(name), std::move(fn)));
  }
}

void MetricGroup::AddGaugeFn(const std::string& name, MetricRegistry::GaugeFn fn) {
  if (registry_ != nullptr) {
    registered_.push_back(registry_->AddGaugeFn(Full(name), std::move(fn)));
  }
}

void MetricGroup::AddSummaryFn(const std::string& name, MetricRegistry::SummaryFn fn) {
  if (registry_ != nullptr) {
    registered_.push_back(registry_->AddSummaryFn(Full(name), std::move(fn)));
  }
}

void MetricGroup::RemoveAll() {
  if (registry_ != nullptr) {
    for (const std::string& path : registered_) {
      registry_->Remove(path);
    }
  }
  registered_.clear();
}

void TraceRecorder::OnSchedule(Tick now, Tick fire_at, std::uint64_t event_id) {
  ++scheduled_;
  pending_[event_id] = now;
  if (records_.size() < capacity_) {
    record_index_[event_id] = records_.size();
    records_.push_back(Record{now, fire_at, event_id, false});
  }
}

void TraceRecorder::OnFire(Tick fire_at, std::uint64_t event_id) {
  ++fired_;
  auto it = pending_.find(event_id);
  if (it != pending_.end()) {
    queue_delay_ns_.Add(ToNs(fire_at - it->second));
    pending_.erase(it);
  }
  auto rec = record_index_.find(event_id);
  if (rec != record_index_.end()) {
    Record& r = records_[rec->second];
    r.fired = true;
    r.fire_at = fire_at;
  }
}

std::string TraceRecorder::ToJsonLines() const {
  std::string out;
  for (const Record& r : records_) {
    out += "{\"event\":" + FormatU64(r.event_id) +
           ",\"scheduled_ns\":" + FormatDouble(ToNs(r.scheduled_at)) +
           ",\"fire_ns\":" + FormatDouble(ToNs(r.fire_at)) +
           ",\"fired\":" + (r.fired ? "true" : "false") + "}\n";
  }
  return out;
}

}  // namespace unifab
