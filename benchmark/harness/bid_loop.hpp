// The per-bid engine loop behind every traced replay and the bid timing of
// the gated batch runs.
//
// A bid is negotiated the way the daemon's engine thread does it
// (serve/broker_service.cpp, process_bid): pump every event strictly before
// the bid's (arrival, kArrival) slot, then negotiate it. The live path is
// pinned bit-identical to the batch path (`replay: MATCH`), and each caller
// re-checks that on its own output. Targets adapt the loop to a Market (the
// Fig. 1 trio, the 1024-site market) and to a single Fig. 6 site, where
// "negotiate" is SiteScheduler::submit: the one-site economy's whole
// negotiation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/scheduler.hpp"
#include "experiments/fingerprint.hpp"
#include "market/market.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace bench {

/// What one pass records. kBare records nothing (the overhead baseline);
/// kTimed times each bid; kSpans adds the span log and the pump/negotiate
/// split; kQuotes times every site's quote before each negotiation, in its
/// own pass so those extra calls cannot skew the negotiation times, and
/// turns the core Profiler scopes on.
enum class Pass { kBare, kTimed, kSpans, kQuotes };

struct PassStats {
  double loop_s = 0.0;
  std::vector<double> bid_us;        // kTimed: pump + negotiate
  std::vector<double> pump_us;       // kSpans
  std::vector<double> negotiate_us;  // kSpans
  std::vector<double> quote_sum_us;  // kQuotes: one bid's whole fan-out
  std::vector<std::vector<double>> site_quote_us;  // kQuotes, narrow markets
  std::vector<std::size_t> site_accepts;           // kQuotes
  std::vector<std::size_t> site_pending_max;       // kQuotes
  std::size_t heap_peak = 0;
  std::size_t tombstones_peak = 0;
  std::uint64_t events = 0;  // engine events besides the bids themselves
  double drain_ms = 0.0;
  double collect_ms = 0.0;
  std::size_t awarded = 0;
  std::string identity;
};

/// The bit-level identity of a market run: its fingerprint line and, with
/// `per_site`, every site's line (bench/micro_sharded.cpp's identity()).
inline std::string market_identity(const std::string& label,
                                   const mbts::MarketStats& stats,
                                   bool per_site) {
  std::string out = mbts::fingerprint_line(label, stats);
  if (per_site)
    for (std::size_t i = 0; i < stats.site_stats.size(); ++i)
      out += mbts::fingerprint_line("site" + std::to_string(i),
                                    stats.site_stats[i]);
  return out;
}

/// Bids negotiated through a Market's live-submission path.
class MarketTarget {
 public:
  /// `per_site` adds every site's fingerprint line to the identity;
  /// `label` names the market line.
  MarketTarget(const mbts::MarketConfig& config, std::string label,
               bool per_site)
      : market_(config), label_(std::move(label)), per_site_(per_site) {}

  /// Each bid is an engine event of its own (excluded from events/bid).
  static constexpr bool kBidIsEvent = true;

  mbts::SimEngine& engine() { return market_.engine(); }
  void negotiate(const mbts::Bid& bid) {
    market_.submit_bid(bid);
    MBTS_CHECK_MSG(market_.engine().step(),
                   "the bid did not run as the next engine event");
  }
  std::size_t sites() const { return market_.sites().size(); }
  bool probe(std::size_t s, const mbts::Bid& bid) {
    return market_.sites()[s]->quote(bid).accepted;
  }
  std::size_t pending(std::size_t s) const {
    return market_.sites()[s]->scheduler().pending_count();
  }
  /// Settles and returns the identity; `*awarded` gets the award count.
  std::string finish(std::size_t* awarded) {
    const mbts::MarketStats stats = market_.collect_stats();
    *awarded = stats.awarded;
    return market_identity(label_, stats, per_site_);
  }

 private:
  mbts::Market market_;
  std::string label_;
  bool per_site_;
};

/// Bids submitted to one single-site scheduler (experiments/runner.cpp's
/// run_single_site, driven one bid at a time).
class SiteTarget {
 public:
  SiteTarget(const mbts::SchedulerConfig& config,
             const mbts::PolicySpec& policy,
             std::optional<mbts::SlackAdmissionConfig> admission)
      : site_(engine_, config, mbts::make_policy(policy),
              admission ? std::unique_ptr<mbts::AdmissionPolicy>(
                              std::make_unique<mbts::SlackAdmission>(
                                  *admission))
                        : std::make_unique<mbts::AcceptAllAdmission>()) {}

  static constexpr bool kBidIsEvent = false;

  mbts::SimEngine& engine() { return engine_; }
  void negotiate(const mbts::Bid& bid) { site_.submit(bid.task); }
  std::size_t sites() const { return 1; }
  bool probe(std::size_t, const mbts::Bid& bid) {
    return site_.quote(bid.task).accept;
  }
  std::size_t pending(std::size_t) const { return site_.pending_count(); }
  std::string finish(std::size_t* awarded) {
    MBTS_CHECK_MSG(site_.idle(), "run did not drain the site");
    stats_ = site_.stats();
    *awarded = stats_.accepted;
    return mbts::fingerprint_line("site", stats_);
  }
  const mbts::RunStats& stats() const { return stats_; }

 private:
  mbts::SimEngine engine_;
  mbts::SiteScheduler site_;
  mbts::RunStats stats_;
};

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Markets up to this wide also get per-site quote times in kQuotes.
inline constexpr std::size_t kMaxTimedSites = 8;

/// Runs every task through `target`, drains the engine and settles. `spans`
/// is used by kSpans only (and may be null otherwise).
template <typename Target>
PassStats run_pass(Target& target, const std::vector<mbts::Task>& tasks,
                   Pass pass, SpanLog* spans) {
  PassStats out;
  mbts::SimEngine& engine = target.engine();
  const int kArrival = static_cast<int>(mbts::EventPriority::kArrival);
  const std::size_t n_sites = target.sites();
  if (pass == Pass::kTimed) out.bid_us.reserve(tasks.size());
  if (pass == Pass::kSpans) {
    out.pump_us.reserve(tasks.size());
    out.negotiate_us.reserve(tasks.size());
  }
  if (pass == Pass::kQuotes) {
    out.site_quote_us.assign(n_sites, {});
    out.site_accepts.assign(n_sites, 0);
    out.site_pending_max.assign(n_sites, 0);
    out.quote_sum_us.reserve(tasks.size());
    mbts::Profiler::set_enabled(true);  // the caller resets between sets
  }
  auto sample_heap = [&] {
    out.heap_peak = std::max(out.heap_peak, engine.heap_size());
    out.tombstones_peak = std::max(out.tombstones_peak, engine.tombstones());
  };

  const Clock::time_point loop_start = Clock::now();
  for (const mbts::Task& task : tasks) {
    const mbts::Bid bid{0, task};
    switch (pass) {
      case Pass::kBare:
        engine.run_until_before(task.arrival, kArrival);
        target.negotiate(bid);
        break;
      case Pass::kTimed: {
        const Clock::time_point t0 = Clock::now();
        engine.run_until_before(task.arrival, kArrival);
        target.negotiate(bid);
        out.bid_us.push_back(us_between(t0, Clock::now()));
        break;
      }
      case Pass::kSpans: {
        const std::int64_t root = spans->open("bid", -1, task.id);
        const Clock::time_point t0 = Clock::now();
        engine.run_until_before(task.arrival, kArrival);
        const Clock::time_point t1 = Clock::now();
        target.negotiate(bid);
        const Clock::time_point t2 = Clock::now();
        spans->add("sim.pump", t0, t1, root, task.id);
        spans->add("market.negotiate", t1, t2, root, task.id);
        spans->close(root);
        out.pump_us.push_back(us_between(t0, t1));
        out.negotiate_us.push_back(us_between(t1, t2));
        sample_heap();
        break;
      }
      case Pass::kQuotes: {
        engine.run_until_before(task.arrival, kArrival);
        // The probe quotes stay out of the Profiler's core scopes, which
        // then count exactly the negotiation's own work.
        mbts::Profiler::set_enabled(false);
        const Clock::time_point q0 = Clock::now();
        for (std::size_t s = 0; s < n_sites; ++s)
          out.site_accepts[s] += target.probe(s, bid);
        out.quote_sum_us.push_back(us_between(q0, Clock::now()));
        for (std::size_t s = 0; s < n_sites; ++s)
          out.site_pending_max[s] =
              std::max(out.site_pending_max[s], target.pending(s));
        // Per-site times need a clock read around every quote; on a wide
        // market (~70 ns quotes) that would time the clock instead.
        if (n_sites <= kMaxTimedSites) {
          for (std::size_t s = 0; s < n_sites; ++s) {
            const Clock::time_point t0 = Clock::now();
            target.probe(s, bid);
            out.site_quote_us[s].push_back(us_between(t0, Clock::now()));
          }
        }
        mbts::Profiler::set_enabled(true);
        target.negotiate(bid);
        break;
      }
    }
  }
  const Clock::time_point loop_end = Clock::now();
  out.loop_s = seconds_between(loop_start, loop_end);
  engine.run();
  const Clock::time_point drained = Clock::now();
  out.identity = target.finish(&out.awarded);
  const Clock::time_point collected = Clock::now();
  if (pass == Pass::kQuotes) mbts::Profiler::set_enabled(false);
  if (pass == Pass::kSpans) {
    spans->add("sim.drain", loop_end, drained, -1, 0);
    spans->add("market.collect", drained, collected, -1, 0);
  }
  sample_heap();
  out.events = engine.events_executed() -
               (Target::kBidIsEvent ? tasks.size() : std::size_t{0});
  out.drain_ms = seconds_between(loop_end, drained) * 1e3;
  out.collect_ms = seconds_between(drained, collected) * 1e3;
  return out;
}

/// Folds `more` (a pass over further runs) into `into`.
void merge(PassStats& into, const PassStats& more);

/// Adds the per-layer metrics of a traced workload (benchmark/README.md,
/// "Per-layer metrics"): `bare`, `spanned` and `quoted` are the kBare,
/// kSpans and kQuotes passes over the same bids, and the Profiler still
/// holds the kQuotes pass's scopes.
void add_layer_metrics(JsonObject& json, const PassStats& bare,
                       const PassStats& spanned, const PassStats& quoted);

/// serve.parse_us: mean microseconds to parse one BID line and build its
/// task (serve::parse_request + serve::bid_task), over `tasks` rendered as
/// the load generator sends them. MBTS_CHECKs that every line parses back
/// to its task exactly.
double parse_us_per_line(const std::vector<mbts::Task>& tasks,
                         SpanLog* log);

}  // namespace bench
