#include "trace.h"

#include <cstdio>
#include <fstream>

namespace loadbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.start_us = tracer_->Us(Clock::now());
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  span.request = request;
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->stack_.push_back(index_);
}

Tracer::Scope::~Scope() { Close(); }

void Tracer::Scope::Close() {
  if (!open_) return;
  open_ = false;
  if (index_ < 0) return;
  tracer_->spans_[index_].end_us = tracer_->Us(Clock::now());
  tracer_->stack_.pop_back();  // scopes close in LIFO order
}

void Tracer::AddLive(const char* name, Clock::time_point start, Clock::time_point end,
                     uint64_t request) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_us = Us(start);
  span.end_us = Us(end);
  span.request = request;
  span.live = true;
  spans_.push_back(span);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = out[s.name];
    ++t.calls;
    t.total_ms += (s.end_us - s.start_us) / 1e3;
    t.self_ms += (s.end_us - s.start_us - child_us[i]) / 1e3;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
       "\"args\":{\"name\":\"layer replay\"}}";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    if (s.live) {
      // Live service calls overlap, so they are async events keyed by id.
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"b\",\"id\":%zu,"
                    "\"pid\":1,\"tid\":2,\"ts\":%.3f,\"args\":{\"request\":%llu}}"
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"e\",\"id\":%zu,"
                    "\"pid\":1,\"tid\":2,\"ts\":%.3f}",
                    s.name, layer.c_str(), i, s.start_us,
                    static_cast<unsigned long long>(s.request), s.name,
                    layer.c_str(), i, s.end_us);
    } else {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                    "\"span\":%zu,\"parent\":%lld}}",
                    s.name, layer.c_str(), s.start_us, s.end_us - s.start_us,
                    static_cast<unsigned long long>(s.request), i,
                    static_cast<long long>(s.parent));
    }
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace loadbench
