// In-memory spans for the traced run. The benchmark opens a span around
// each call it makes into a layer's public functions; spans nest, carry an
// id and their parent's id, and are written out when the run ends. A
// layer's self time is its span's duration minus its direct children's.
//
// One SpanLog per recording thread, so recording takes no lock; logs are
// read only after their thread is quiescent.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"

namespace nttpim::perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
};

class SpanLog {
 public:
  /// `track` tags the log (the thread it belongs to) and makes span ids
  /// unique across logs.
  explicit SpanLog(std::uint32_t track) : track_(track) {}

  void open(const char* name) {
    const std::uint64_t id = (std::uint64_t{track_} << 40) | ++next_;
    const std::uint64_t parent = open_.empty() ? 0 : spans_[open_.back()].id;
    open_.push_back(spans_.size());
    spans_.push_back({id, parent, name, Clock::now(), {}});
  }
  void close() {
    spans_[open_.back()].end = Clock::now();
    open_.pop_back();
  }

  std::uint32_t track() const noexcept { return track_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint32_t track_;
  std::uint64_t next_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of the open spans, outermost first
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log) { log_.open(name); }
  ~ScopedSpan() { log_.close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
};

/// Per-name totals over a log: span count, total and self time (us).
struct LayerTime {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;

  double mean_self_us() const {
    return count == 0 ? 0 : self_us / static_cast<double>(count);
  }
};

using LayerTimes = std::map<std::string, LayerTime>;

/// Mean self time of the spans called `name`, or their total time (us);
/// 0 when there are none.
inline double mean_self_us(const LayerTimes& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.mean_self_us();
}
inline double total_us(const LayerTimes& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.total_us;
}

inline LayerTimes layer_times(const SpanLog& log) {
  const auto& spans = log.spans();
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
    self[i] = us_between(spans[i].start, spans[i].end);
  }
  for (const Span& s : spans)
    if (s.parent != 0) self[index.at(s.parent)] -= us_between(s.start, s.end);
  LayerTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[spans[i].name];
    ++t.count;
    t.total_us += us_between(spans[i].start, spans[i].end);
    t.self_us += self[i];
  }
  return out;
}

/// Chrome trace-event "X" records of `log` (pid 2, one tid per log), as a
/// comma-separated list; `to_ns` maps a time point onto the trace's clock.
inline void write_span_events(
    std::ostream& os, const SpanLog& log,
    const std::function<std::int64_t(Clock::time_point)>& to_ns,
    bool& first) {
  for (const Span& s : log.spans()) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    const double ts_us = static_cast<double>(to_ns(s.start)) / 1e3;
    os << "{\"ph\": \"X\", \"pid\": 2, \"tid\": " << log.track()
       << ", \"name\": \"" << s.name << "\", \"ts\": " << ts_us
       << ", \"dur\": " << us_between(s.start, s.end)
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << "}}";
  }
}

/// Write `logs` as a Chrome trace-event JSON file at `path`. When
/// `telemetry_json` holds the service's own export (telemetry/chrome_trace.h)
/// the spans are spliced into its event array, on the same clock.
inline bool write_trace_file(
    const std::string& path, const std::vector<const SpanLog*>& logs,
    const std::function<std::int64_t(Clock::time_point)>& to_ns,
    const std::string& telemetry_json = {}) {
  std::ofstream os(path);
  if (!os) return false;
  const std::string key = "\"traceEvents\": [";
  const std::size_t at = telemetry_json.find(key);
  bool first = true;
  if (at == std::string::npos) {
    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
    for (const SpanLog* log : logs) write_span_events(os, *log, to_ns, first);
    os << "\n  ]\n}\n";
  } else {
    const std::size_t body = at + key.size();
    os << telemetry_json.substr(0, body);
    for (const SpanLog* log : logs) write_span_events(os, *log, to_ns, first);
    const std::size_t next = telemetry_json.find_first_not_of(" \n", body);
    if (!first && next != std::string::npos && telemetry_json[next] != ']')
      os << ",";
    os << telemetry_json.substr(body);
  }
  return static_cast<bool>(os);
}

}  // namespace nttpim::perfbench
