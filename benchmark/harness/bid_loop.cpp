#include "bid_loop.hpp"

#include <numeric>

#include "serve/protocol.hpp"

namespace bench {

namespace {

template <typename T>
void append(std::vector<T>& into, const std::vector<T>& more) {
  into.insert(into.end(), more.begin(), more.end());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

void merge(PassStats& into, const PassStats& more) {
  into.loop_s += more.loop_s;
  append(into.pump_us, more.pump_us);
  append(into.negotiate_us, more.negotiate_us);
  append(into.quote_sum_us, more.quote_sum_us);
  if (into.site_quote_us.size() < more.site_quote_us.size()) {
    into.site_quote_us.resize(more.site_quote_us.size());
    into.site_accepts.resize(more.site_accepts.size(), 0);
    into.site_pending_max.resize(more.site_pending_max.size(), 0);
  }
  for (std::size_t s = 0; s < more.site_quote_us.size(); ++s) {
    append(into.site_quote_us[s], more.site_quote_us[s]);
    into.site_accepts[s] += more.site_accepts[s];
    into.site_pending_max[s] =
        std::max(into.site_pending_max[s], more.site_pending_max[s]);
  }
  into.heap_peak = std::max(into.heap_peak, more.heap_peak);
  into.tombstones_peak = std::max(into.tombstones_peak, more.tombstones_peak);
  into.events += more.events;
  into.drain_ms += more.drain_ms;
  into.collect_ms += more.collect_ms;
  into.awarded += more.awarded;
}

void add_layer_metrics(JsonObject& json, const PassStats& bare,
                       const PassStats& spanned, const PassStats& quoted) {
  const auto bids = static_cast<double>(spanned.negotiate_us.size());
  std::vector<double> negotiate = spanned.negotiate_us;
  std::vector<double> pump = spanned.pump_us;
  // One site's quote: a bid's fan-out over the sites it polls.
  std::vector<double> quote = quoted.quote_sum_us;
  const auto sites = static_cast<double>(quoted.site_accepts.size());
  for (double& us : quote) us /= sites;

  json.add("market.negotiate_us", mean(negotiate));
  json.add("market.negotiate_p99_us", quantile(negotiate, 0.99));
  json.add("market.award_us", mean(negotiate) - mean(quoted.quote_sum_us));
  json.add("market.award_frac", static_cast<double>(spanned.awarded) / bids);
  json.add("market.collect_ms", spanned.collect_ms);

  json.add("core.quote_us", mean(quote));
  json.add("core.quote_p99_us", quantile(quote, 0.99));
  // The Profiler's scopes nest: kernel_rescore inside rescore, rescore
  // inside quote and dispatch. Totals are per scope, not self times.
  const std::pair<const char*, const char*> scopes[] = {
      {"scheduler/dispatch", "core.dispatch"},
      {"scheduler/rescore", "core.rescore"},
      {"scheduler/kernel_rescore", "core.kernel_rescore"},
      {"scheduler/quote", "core.quote"}};
  const auto sections = mbts::Profiler::instance().sections();
  for (const auto& [scope, name] : scopes) {
    double ms = 0.0, calls = 0.0;
    for (const auto& section : sections) {
      if (section.name != scope) continue;
      ms += static_cast<double>(section.total_ns) / 1e6;
      calls += static_cast<double>(section.calls);
    }
    json.add(std::string(name) + "_ms", ms);
    json.add(std::string(name) + "_calls", calls);
  }

  json.add("sim.pump_us", mean(pump));
  json.add("sim.pump_p99_us", quantile(pump, 0.99));
  json.add("sim.events_per_bid", static_cast<double>(spanned.events) / bids);
  json.add("sim.heap_peak", static_cast<double>(spanned.heap_peak));
  json.add("sim.tombstones_peak", static_cast<double>(spanned.tombstones_peak));
  json.add("sim.drain_ms", spanned.drain_ms);

  // Self time of the layer spans over the traced wall (loop start to the
  // end of collect); the rest is the loop and the span bookkeeping itself.
  const double wall_ms =
      spanned.loop_s * 1e3 + spanned.drain_ms + spanned.collect_ms;
  const double attributed_ms = (sum(spanned.pump_us) + sum(negotiate)) / 1e3 +
                               spanned.drain_ms + spanned.collect_ms;
  json.add("trace.unattributed_frac", 1.0 - attributed_ms / wall_ms);
  json.add("trace.overhead_frac", spanned.loop_s / bare.loop_s - 1.0);
}

double parse_us_per_line(const std::vector<mbts::Task>& tasks,
                         SpanLog* log) {
  std::vector<std::string> lines;
  lines.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    std::string line = bid_line(tasks[i], i);
    line.pop_back();  // the reactor hands the parser lines without '\n'
    lines.push_back(std::move(line));
  }
  std::vector<mbts::Task> parsed;
  parsed.reserve(lines.size());
  mbts::serve::Request request;
  std::string error;
  const Clock::time_point start = Clock::now();
  for (const std::string& line : lines) {
    MBTS_CHECK_MSG(mbts::serve::parse_request(line, &request, &error),
                   "benchmark bid line rejected: " + error);
    parsed.push_back(mbts::serve::bid_task(request));
  }
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->add("serve.parse", start, end, -1, 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const mbts::Task& a = tasks[i];
    const mbts::Task& b = parsed[i];
    MBTS_CHECK_MSG(a.runtime == b.runtime &&
                       a.value.max_value() == b.value.max_value() &&
                       a.value.decay() == b.value.decay() &&
                       a.value.bounded() == b.value.bounded(),
                   "a BID line did not parse back to its task");
  }
  return us_between(start, end) / static_cast<double>(lines.size());
}

}  // namespace bench
