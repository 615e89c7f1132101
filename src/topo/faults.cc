#include "src/topo/faults.h"

#include <cmath>
#include <sstream>

namespace unifab {
namespace {

// Whole-token finite number: "5x", "inf" and "nan" are rejected.
bool ParseNumber(const std::string& s, double* out) {
  try {
    std::size_t used = 0;
    *out = std::stod(s, &used);
    return used == s.size() && std::isfinite(*out);
  } catch (...) {
    return false;
  }
}

// "key=value" -> value as double; false when the token doesn't match `key`.
bool ParseKeyValue(const std::string& token, const std::string& key, double* out) {
  const std::string prefix = key + "=";
  if (token.rfind(prefix, 0) != 0) {
    return false;
  }
  return ParseNumber(token.substr(prefix.size()), out);
}

bool IsPlanTime(double us) { return us >= 0.0 && us <= kMaxParsedUs; }

// Most fail/recover pairs one flap directive may expand into.
constexpr double kMaxFlapCycles = 1e6;

}  // namespace

FaultPlan FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;

  // Split into directives: newline or ';' terminated, '#' to end-of-line.
  std::vector<std::string> directives;
  std::string cur;
  bool in_comment = false;
  for (const char c : text) {
    if (c == '\n' || c == ';') {
      directives.push_back(cur);
      cur.clear();
      in_comment = false;
      continue;
    }
    if (c == '#') {
      in_comment = true;
    }
    if (!in_comment) {
      cur.push_back(c);
    }
  }
  directives.push_back(cur);

  for (const std::string& directive : directives) {
    std::istringstream in(directive);
    std::vector<std::string> tokens;
    std::string tok;
    while (in >> tok) {
      tokens.push_back(tok);
    }
    if (tokens.empty()) {
      continue;  // blank line / pure comment
    }

    const std::string& verb = tokens[0];
    if ((verb == "fail" || verb == "recover") && tokens.size() == 3 && tokens[2][0] == '@') {
      double at_us = 0.0;
      if (!ParseNumber(tokens[2].substr(1), &at_us) || !IsPlanTime(at_us)) {
        plan.errors.push_back(directive);
        continue;
      }
      FaultEvent ev;
      ev.at = FromUs(at_us);
      ev.kind = verb == "fail" ? FaultEvent::Kind::kFail : FaultEvent::Kind::kRecover;
      ev.target = tokens[1];
      plan.events.push_back(std::move(ev));
      continue;
    }
    if (verb == "flap" && tokens.size() == 6) {
      double start_us = 0.0;
      double period_us = 0.0;
      double down_us = 0.0;
      double cycles = 0.0;
      if (ParseKeyValue(tokens[2], "start", &start_us) &&
          ParseKeyValue(tokens[3], "period", &period_us) &&
          ParseKeyValue(tokens[4], "down", &down_us) &&
          ParseKeyValue(tokens[5], "cycles", &cycles) && IsPlanTime(start_us) &&
          period_us > 0.0 && down_us > 0.0 && down_us < period_us && cycles >= 1.0 &&
          cycles <= kMaxFlapCycles && cycles == std::floor(cycles) &&
          IsPlanTime(start_us + (cycles - 1.0) * period_us + down_us)) {
        for (int k = 0; k < static_cast<int>(cycles); ++k) {
          const double t = start_us + static_cast<double>(k) * period_us;
          plan.events.push_back(
              FaultEvent{FromUs(t), FaultEvent::Kind::kFail, tokens[1]});
          plan.events.push_back(
              FaultEvent{FromUs(t + down_us), FaultEvent::Kind::kRecover, tokens[1]});
        }
        continue;
      }
    }
    plan.errors.push_back(directive);
  }
  return plan;
}

void FaultSchedulerStats::BindTo(MetricGroup& group, const std::string& prefix) const {
  group.AddCounterFn(prefix + "faults_injected", [this] { return faults_injected; });
  group.AddCounterFn(prefix + "recoveries", [this] { return recoveries; });
  group.AddCounterFn(prefix + "unknown_targets", [this] { return unknown_targets; });
}

FaultScheduler::FaultScheduler(Engine* engine, FabricInterconnect* fabric)
    : engine_(engine), fabric_(fabric) {
  metrics_ = MetricGroup(&engine_->metrics(), "recovery/faults");
  stats_.BindTo(metrics_);
}

void FaultScheduler::RegisterLink(const std::string& name, Link* link) {
  RegisterTarget(
      name, [link] { link->Fail(); }, [link] { link->Recover(); });
}

void FaultScheduler::RegisterChassis(const std::string& name, FaaChassis* faa, Link* uplink) {
  RegisterTarget(
      name,
      [faa, uplink] {
        faa->Fail();
        if (uplink != nullptr) {
          uplink->Fail();
        }
      },
      [faa, uplink] {
        if (uplink != nullptr) {
          uplink->Recover();
        }
        faa->Recover();
      });
}

void FaultScheduler::RegisterChassis(const std::string& name, FamChassis* /*fam*/, Link* uplink) {
  RegisterLink(name, uplink);
}

void FaultScheduler::RegisterTarget(const std::string& name, std::function<void()> fail,
                                    std::function<void()> recover) {
  targets_[name] = Target{std::move(fail), std::move(recover)};
}

void FaultScheduler::Schedule(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events) {
    engine_->ScheduleAt(event.at, [this, event] { Execute(event); });
  }
}

void FaultScheduler::Execute(const FaultEvent& event) {
  auto it = targets_.find(event.target);
  if (it == targets_.end()) {
    ++stats_.unknown_targets;
    return;
  }
  if (event.kind == FaultEvent::Kind::kFail) {
    ++stats_.faults_injected;
    if (it->second.fail) {
      it->second.fail();
    }
  } else {
    ++stats_.recoveries;
    if (it->second.recover) {
      it->second.recover();
    }
  }
  RequestReroute();
}

void FaultScheduler::RequestReroute() {
  if (fabric_ == nullptr) {
    return;
  }
  // The fabric manager notices the topology change after a detection delay
  // and rebuilds every routing table around it.
  engine_->Schedule(reroute_delay_, [this] { fabric_->ConfigureRouting(); });
}

}  // namespace unifab
