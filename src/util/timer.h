// Wall-clock timing helpers used by benchmarks and the service's request
// timing (queue wait, time budgets, eval_ms).

#ifndef EXPFINDER_UTIL_TIMER_H_
#define EXPFINDER_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace expfinder {

/// \brief Monotonic stopwatch. Starts running on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace expfinder

#endif  // EXPFINDER_UTIL_TIMER_H_
