// Simulated-time primitives for the UniFabric discrete-event simulator.
//
// All simulated time is kept in integer picoseconds. Sub-nanosecond precision
// matters because cache hit latencies in the reproduced Table 2 are fractional
// nanoseconds (e.g. an L1 read costs 5.4 ns), and integer ticks keep the
// simulation fully deterministic across platforms.

#ifndef SRC_SIM_TIME_H_
#define SRC_SIM_TIME_H_

#include <cstdint>

namespace unifab {

// One tick is one picosecond of simulated time.
using Tick = std::uint64_t;

// Sentinel for "no event / never": later than any schedulable time.
inline constexpr Tick kTickNever = ~Tick{0};

inline constexpr Tick kTicksPerNs = 1000;
inline constexpr Tick kTicksPerUs = 1000 * kTicksPerNs;
inline constexpr Tick kTicksPerMs = 1000 * kTicksPerUs;
inline constexpr Tick kTicksPerSec = 1000 * kTicksPerMs;

// Converts a (possibly fractional) nanosecond count to ticks, rounding to the
// nearest picosecond.
constexpr Tick FromNs(double ns) { return static_cast<Tick>(ns * 1e3 + 0.5); }
constexpr Tick FromUs(double us) { return static_cast<Tick>(us * 1e6 + 0.5); }
constexpr Tick FromMs(double ms) { return static_cast<Tick>(ms * 1e9 + 0.5); }

// Largest time, in microseconds, that a parsed plan or spec may name
// (about 11.6 simulated days): FromUs of any value in [0, kMaxParsedUs]
// fits a Tick with room to spare.
inline constexpr double kMaxParsedUs = 1e12;

// Converts ticks back to floating-point time units for reporting.
constexpr double ToNs(Tick t) { return static_cast<double>(t) / 1e3; }
constexpr double ToUs(Tick t) { return static_cast<double>(t) / 1e6; }
constexpr double ToMs(Tick t) { return static_cast<double>(t) / 1e9; }
constexpr double ToSec(Tick t) { return static_cast<double>(t) / 1e12; }

// The time it takes to move `bytes` across a link running at
// `gigabytes_per_sec`, rounded up to a whole picosecond so a transfer never
// takes zero simulated time.
constexpr Tick SerializationDelay(std::uint64_t bytes, double gigabytes_per_sec) {
  // bytes / (GB/s) = ns; ns * 1000 = ticks.
  const double ns = static_cast<double>(bytes) / gigabytes_per_sec;
  const Tick ticks = static_cast<Tick>(ns * 1e3);
  return ticks == 0 ? 1 : ticks;
}

}  // namespace unifab

#endif  // SRC_SIM_TIME_H_
