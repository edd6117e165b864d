// In-memory span recorder of the traced run. A span holds a name
// ("layer.function"), start, end, parent and request id; spans are kept in
// memory and written out at exit as Chrome trace-event JSON. Self time is a
// span's duration minus the time its children cover.
//
// Two producers: the serial layer replay opens nested scopes (one thread,
// so a stack gives each span its parent), and the live run adds complete
// spans for the benchmark's own calls into the service after the run.

#ifndef LOADBENCH_TRACE_H_
#define LOADBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace loadbench {

class Tracer {
 public:
  struct Span {
    const char* name;  // static "layer.function"
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
    bool live = false;  // a live-run service span (overlaps others)
  };

  /// RAII scope of one replay call; nests under the innermost open scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span now (idempotent; the destructor calls it).
    void Close();

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
    bool open_ = true;
  };

  /// A disabled tracer records nothing.
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Adds a complete live span measured elsewhere.
  void AddLive(const char* name, Clock::time_point start, Clock::time_point end,
               uint64_t request);

  /// Durations of every span named `name`, milliseconds.
  std::vector<double> Durations(const std::string& name) const;

  struct NameTotals {
    size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: calls, total and self time.
  std::map<std::string, NameTotals> Totals() const;

  /// Writes every span as Chrome trace-event JSON (replay spans as complete
  /// "X" events on one thread, live spans as async begin/end pairs).
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;  // open replay scopes
};

}  // namespace loadbench

#endif  // LOADBENCH_TRACE_H_
