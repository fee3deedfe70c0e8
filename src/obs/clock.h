#ifndef GPML_OBS_CLOCK_H_
#define GPML_OBS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace gpml {
namespace obs {

/// Monotonic timestamp in microseconds (steady_clock). All observability
/// timings — span durations, stage histograms, the slow-query threshold —
/// are taken from this clock, never from wall time, so they are immune to
/// NTP slews.
inline uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Milliseconds to whole microseconds (truncating), the unit of histogram
/// observations and span times.
inline uint64_t MsToUs(double ms) { return static_cast<uint64_t>(ms * 1e3); }

/// A started monotonic stopwatch. Two clock reads per measured region; cheap
/// enough to stay on unconditionally in the engine (bench_obs bounds what
/// publishing an execution costs in microseconds).
class Stopwatch {
 public:
  Stopwatch() : start_us_(MonotonicMicros()) {}

  uint64_t ElapsedMicros() const { return MonotonicMicros() - start_us_; }
  double ElapsedMs() const {
    return static_cast<double>(ElapsedMicros()) / 1e3;
  }
  uint64_t start_us() const { return start_us_; }

 private:
  uint64_t start_us_;
};

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_CLOCK_H_
