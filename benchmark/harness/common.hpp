// Shared pieces of the benchmark harness (benchmark/README.md): timing,
// percentiles, the flat JSON summaries run.py reads, the in-memory span log
// of the traced runs, and the seeded bid streams every workload draws.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/task.hpp"
#include "workload/trace.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Interpolated quantile of `values` (sorted in place), the same rule as
/// mbts::Histogram::quantile. 0 for an empty sample.
double quantile(std::vector<double>& values, double q);

/// Median of a copy of `values`.
double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// Flat JSON object with numbers printed at %.17g; run.py parses it.
class JsonObject {
 public:
  void add(const std::string& key, double value);
  void add(const std::string& key, const std::string& value);
  /// Nested list of JSON objects (pre-rendered by JsonObject::str).
  void add_list(const std::string& key, const std::vector<std::string>& items);
  std::string str() const;
  /// Writes str() to `path`; MBTS_CHECKs that the file opened.
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// One recorded span (choosing-metrics guide §4): a named interval, the
/// span that caused it, and the bid it belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the log, -1 for a root
  std::uint64_t task = 0;
};

/// Spans kept in memory during a traced pass and written out at the end.
/// Names are "<layer>.<what>"; the per-bid root is just "bid".
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t task);
  void close(std::int64_t id);
  /// Records an already-measured interval.
  std::int64_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::uint64_t task);

  /// Writes one JSON line per span to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Peak resident set (VmHWM) of the process whose status file this is,
/// megabytes.
double peak_rss_mb(const std::string& status = "/proc/self/status");

/// Processors of the serve workloads' reference site set: the Fig. 1 trio
/// has 24 + 12 + 6, so a generated load factor is the daemon's sim load.
inline constexpr std::size_t kServeProcessors = 42;

/// The serve workloads' bid stream: `n` presets::admission_mix(load) bids
/// over kServeProcessors, drawn from `seed`. Draw 0 is the stream the
/// daemon is served; other draws are independent streams of the same shape.
mbts::Trace serve_bids(std::uint64_t seed, double load, std::size_t n,
                       std::uint64_t draw = 0);

/// The daemon's --scale (sim seconds per wall second) that makes `rate`
/// bids per wall second replay the stream's own sim-time arrivals:
/// rate * mean inter-arrival gap.
double serve_scale(double load, double rate);

/// The wire line of bid `tag` (protocol.hpp tagged form), numbers at %.17g
/// so the daemon parses exactly the generated task.
std::string bid_line(const mbts::Task& task, std::size_t tag);

}  // namespace bench
