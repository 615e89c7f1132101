#include "fabbench/harness/trace.h"

#include <cstdio>

namespace fabbench {

double SecondsSince(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

SpanRecorder::SpanRecorder(std::size_t max_op_spans)
    : max_op_spans_(max_op_spans), origin_(HostClock::now()) {}

void SpanRecorder::Clear() {
  spans_.clear();
  op_spans_ = 0;
  dropped_ = 0;
}

void SpanRecorder::Host(const char* name, HostClock::time_point t0, HostClock::time_point t1) {
  if (!enabled_) {
    return;
  }
  const auto us = [this](HostClock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back(Span{name, Clock::kHost, us(t0), us(t1) - us(t0), next_id_++, 0});
}

std::uint64_t SpanRecorder::SimPhase(const char* name, double start_us, double end_us) {
  if (!enabled_) {
    return 0;
  }
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{name, Clock::kSim, start_us, end_us - start_us, id, 0});
  return id;
}

void SpanRecorder::Op(const char* name, double start_us, double end_us, std::uint64_t parent) {
  if (!enabled_) {
    return;
  }
  if (op_spans_ >= max_op_spans_) {
    ++dropped_;
    return;
  }
  ++op_spans_;
  spans_.push_back(Span{name, Clock::kSim, start_us, end_us - start_us, next_id_++, parent});
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"op_spans_dropped\":%llu},\n",
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"host "
               "time\"}},\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{"
               "\"name\":\"simulated time\"}}");
  for (const Span& s : spans_) {
    // Host phases and sim phases sit on tid 0; operations on tid 1 so the
    // viewer stacks them under their phase.
    const int tid = (s.clock == Clock::kSim && s.parent != 0) ? 1 : 0;
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 s.name, static_cast<int>(s.clock), tid, s.ts_us, s.dur_us,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace fabbench
