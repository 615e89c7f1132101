#include "src/sim/scenario.h"

#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/sim/time.h"

namespace unifab {
namespace {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

// "key=value" -> raw value string; false when the token doesn't match `key`.
bool KeyValue(const std::string& token, const char* key, std::string* out) {
  const std::string prefix = std::string(key) + "=";
  if (token.rfind(prefix, 0) != 0) {
    return false;
  }
  *out = token.substr(prefix.size());
  return true;
}

// Whole-token finite number: "5x", "inf" and "nan" are rejected.
bool ToDouble(const std::string& s, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(s, &used);
    return used == s.size() && std::isfinite(*out);
  } catch (...) {
    return false;
  }
}

// Whole-token unsigned integer. A sign is rejected up front: stoull would
// wrap "-1" to 2^64-1.
bool ToU64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0])) == 0) {
    return false;
  }
  try {
    std::size_t used = 0;
    *out = std::stoull(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

bool ParseQos(const std::string& s, QosClass* out) {
  for (int c = 0; c < kNumQosClasses; ++c) {
    if (s == QosClassName(static_cast<QosClass>(c))) {
      *out = static_cast<QosClass>(c);
      return true;
    }
  }
  return false;
}

bool ParseArrival(const std::string& s, ArrivalKind* out) {
  for (auto k : {ArrivalKind::kPoisson, ArrivalKind::kDeterministic, ArrivalKind::kBursty}) {
    if (s == ArrivalKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool ParseOp(const std::string& s, TenantOp* out) {
  for (int i = 0; i < kNumTenantOps; ++i) {
    if (s == TenantOpName(static_cast<TenantOp>(i))) {
      *out = static_cast<TenantOp>(i);
      return true;
    }
  }
  return false;
}

// "etrans:4,heap_read:2,faa:1" -> weights (unlisted ops get 0).
bool ParseMix(const std::string& s, double (*mix)[kNumTenantOps]) {
  for (double& w : *mix) {
    w = 0.0;
  }
  std::istringstream in(s);
  std::string item;
  bool any = false;
  while (std::getline(in, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    TenantOp op;
    double weight = 0.0;
    if (!ParseOp(item.substr(0, colon), &op) ||
        !ToDouble(item.substr(colon + 1), &weight) || weight < 0.0) {
      return false;
    }
    (*mix)[static_cast<int>(op)] = weight;
    any = weight > 0.0 || any;
  }
  return any;
}

}  // namespace

const char* ArrivalKindName(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson:
      return "poisson";
    case ArrivalKind::kDeterministic:
      return "deterministic";
    case ArrivalKind::kBursty:
      return "bursty";
  }
  return "unknown";
}

const char* TenantOpName(TenantOp op) {
  switch (op) {
    case TenantOp::kETrans:
      return "etrans";
    case TenantOp::kHeapRead:
      return "heap_read";
    case TenantOp::kHeapWrite:
      return "heap_write";
    case TenantOp::kHeapMigrate:
      return "heap_migrate";
    case TenantOp::kCollect:
      return "collect";
    case TenantOp::kFaa:
      return "faa";
  }
  return "unknown";
}

std::uint32_t ScenarioSpec::TotalTenants() const {
  std::uint32_t total = 0;
  for (const auto& c : classes) {
    total += c.tenants;
  }
  return total;
}

ScenarioSpec ScenarioSpec::Parse(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& why) {
    spec.errors.push_back("line " + std::to_string(line_no) + ": " + why);
  };
  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream in(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (in >> tok) {
      tokens.push_back(tok);
    }
    if (tokens.empty()) {
      continue;  // blank line / pure comment
    }
    const std::string& verb = tokens[0];
    if (verb == "scenario" && tokens.size() == 2) {
      spec.name = tokens[1];
      continue;
    }
    if (verb == "seed" && tokens.size() == 2) {
      if (!ToU64(tokens[1], &spec.seed)) {
        fail("bad seed '" + tokens[1] + "'");
      }
      continue;
    }
    if (verb == "horizon_us" && tokens.size() == 2) {
      if (!ToDouble(tokens[1], &spec.horizon_us) || spec.horizon_us <= 0.0 ||
          spec.horizon_us > kMaxParsedUs) {
        fail("bad horizon_us '" + tokens[1] + "'");
      }
      continue;
    }
    if (verb == "pods" && tokens.size() == 2) {
      std::uint64_t u = 0;
      if (!ToU64(tokens[1], &u) || u < 1 || u > 16) {
        fail("bad pods '" + tokens[1] + "' (want 1..16)");
      } else {
        spec.pods = static_cast<std::uint32_t>(u);
      }
      continue;
    }
    if (verb == "class") {
      TenantClassSpec cls;
      bool ok = true;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string& t = tokens[i];
        std::string v;
        std::uint64_t u = 0;
        double d = 0.0;
        if (KeyValue(t, "name", &v)) {
          cls.name = v;
        } else if (KeyValue(t, "qos", &v)) {
          ok = ParseQos(v, &cls.qos) && ok;
        } else if (KeyValue(t, "arrival", &v)) {
          ok = ParseArrival(v, &cls.arrival) && ok;
        } else if (KeyValue(t, "tenants", &v)) {
          ok = ToU64(v, &u) && u >= 1 && u <= kMaxU32 && ok;
          cls.tenants = static_cast<std::uint32_t>(u);
        } else if (KeyValue(t, "burst", &v)) {
          ok = ToU64(v, &u) && u >= 1 && u <= kMaxU32 && ok;
          cls.burst = static_cast<std::uint32_t>(u);
        } else if (KeyValue(t, "bytes", &v)) {
          ok = ToU64(v, &cls.bytes) && cls.bytes >= 1 && ok;
        } else if (KeyValue(t, "rate_ops_s", &v)) {
          ok = ToDouble(v, &d) && d > 0.0 && ok;
          cls.rate_ops_per_s = d;
        } else if (KeyValue(t, "request_mbps", &v)) {
          ok = ToDouble(v, &d) && d > 0.0 && ok;
          cls.request_mbps = d;
        } else if (KeyValue(t, "slo_p99_us", &v)) {
          ok = ToDouble(v, &d) && d >= 0.0 && ok;
          cls.slo_p99_us = d;
        } else if (KeyValue(t, "mix", &v)) {
          ok = ParseMix(v, &cls.mix) && ok;
        } else {
          ok = false;
        }
        if (!ok) {
          fail("bad class token '" + t + "'");
          break;
        }
      }
      if (ok) {
        if (cls.name.empty()) {
          cls.name = "class" + std::to_string(spec.classes.size());
        }
        spec.classes.push_back(std::move(cls));
      }
      continue;
    }
    fail("unknown directive '" + verb + "'");
  }
  if (spec.classes.empty()) {
    spec.errors.push_back("scenario has no classes");
  }
  std::uint64_t total_tenants = 0;
  for (const auto& c : spec.classes) {
    total_tenants += c.tenants;
  }
  if (total_tenants > kMaxU32) {
    spec.errors.push_back("scenario has more than 2^32-1 tenants in total");
  }
  return spec;
}

ScenarioSpec ScenarioSpec::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ScenarioSpec spec;
    spec.errors.push_back("cannot open scenario file '" + path + "'");
    return spec;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return Parse(text.str());
}

}  // namespace unifab
