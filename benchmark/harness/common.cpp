#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "workload/presets.hpp"

namespace bench {

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(i);
  return values[i] * (1.0 - frac) + values[i + 1] * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void JsonObject::add(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
}

void JsonObject::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quoted(value));
}

void JsonObject::add_list(const std::string& key,
                          const std::vector<std::string>& items) {
  std::string list = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    list += (i ? "," : "") + items[i];
  fields_.emplace_back(key, list + "]");
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i)
    out += (i ? ", " : "") + quoted(fields_[i].first) + ": " +
           fields_[i].second;
  return out + "}";
}

void JsonObject::write(const std::string& path) const {
  std::ofstream out(path);
  MBTS_CHECK_MSG(out.good(), "cannot write " + path);
  out << str() << '\n';
}

std::int64_t SpanLog::open(const char* name, std::int64_t parent,
                           std::uint64_t task) {
  const std::int64_t now = ns(Clock::now());
  spans_.push_back(Span{name, now, now, parent, task});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = ns(Clock::now());
}

std::int64_t SpanLog::add(const char* name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::uint64_t task) {
  spans_.push_back(Span{name, ns(start), ns(end), parent, task});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  MBTS_CHECK_MSG(out.good(), "cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"task\": " << s.task << "}\n";
  }
}

double peak_rss_mb(const std::string& status) {
  std::ifstream in(status);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

mbts::WorkloadSpec serve_spec(double load, std::size_t n) {
  mbts::WorkloadSpec spec = mbts::presets::admission_mix(load, n);
  spec.processors = kServeProcessors;
  return spec;
}

}  // namespace

mbts::Trace serve_bids(std::uint64_t seed, double load, std::size_t n,
                       std::uint64_t draw) {
  mbts::Xoshiro256 rng = mbts::SeedSequence(seed).stream(1, draw);
  return mbts::generate_trace(serve_spec(load, n), rng);
}

double serve_scale(double load, double rate) {
  return rate * serve_spec(load, 1).mean_gap();
}

std::string bid_line(const mbts::Task& task, std::size_t tag) {
  char bound[64] = "inf";
  if (task.value.bounded())
    std::snprintf(bound, sizeof bound, "%.17g", task.value.penalty_bound());
  char out[320];
  std::snprintf(out, sizeof out, "BID t%zu %.17g %.17g %.17g %s\n", tag,
                task.runtime, task.value.max_value(), task.value.decay(),
                bound);
  return out;
}

}  // namespace bench
