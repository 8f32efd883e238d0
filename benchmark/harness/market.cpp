// Market-side subcommands (benchmark/README.md):
//
//   serve-replay  the traced run of a serve workload: the admitted stream a
//                 gated daemon run wrote (--trace-out) replayed through
//                 Market(fig1_market(seed)), three passes, each of which
//                 must reproduce the daemon's printed `serve` line
//   market        the market_wide workload: Market::run() on the 1024-site
//                 scaling market of bench/micro_sharded.cpp, or (--traced)
//                 the same bids through the three traced passes
#include <fstream>
#include <memory>
#include <sstream>

#include "bid_loop.hpp"
#include "serve/preset.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/presets.hpp"

namespace bench {
namespace {

/// bench/micro_sharded.cpp's scaling_config, default execution settings
/// (one engine, epoch batching on, exact score kernels).
mbts::MarketConfig wide_config(std::uint64_t seed) {
  constexpr std::size_t kSites = 1024;
  mbts::MarketConfig config;
  for (std::size_t i = 0; i < kSites; ++i) {
    mbts::SiteAgentConfig site;
    site.id = static_cast<mbts::SiteId>(i);
    site.name = "site" + std::to_string(i);
    site.scheduler.processors = 2 + i % 4;
    site.scheduler.preemption = true;
    site.scheduler.discount_rate = 0.01;
    site.policy = mbts::PolicySpec::first_reward(0.3);
    site.admission =
        mbts::SlackAdmissionConfig{60.0 * static_cast<double>(i % 5), false};
    config.sites.push_back(site);
  }
  config.pricing = mbts::PricingModel::kSecondPrice;
  config.rng_seed = seed;
  return config;
}

mbts::Trace wide_bids(std::uint64_t seed, std::size_t n) {
  mbts::Xoshiro256 rng = mbts::SeedSequence(seed).stream(8);
  return mbts::generate_trace(mbts::presets::admission_mix(3.0, n), rng);
}

/// Times each bid of a Market::run() from the engine's event stream: bid k
/// costs the time from the end of bid k-1's negotiation event to the end of
/// its own, so it carries the events executed before it, as a bid on the
/// live path carries its pump. One clock read per bid.
class BidTimer final : public mbts::EventObserver {
 public:
  explicit BidTimer(Clock::time_point start) : last_end_(start) {}

  void on_schedule(mbts::EventId, double, int, mbts::EventKind) override {}
  void on_cancel(mbts::EventId) override {}
  void on_execute(mbts::EventId, double, int, mbts::EventKind kind) override {
    if (in_bid_) close(Clock::now());
    in_bid_ = kind == mbts::EventKind::kMarketBid;
  }
  void finish(Clock::time_point end) {
    if (in_bid_) close(end);
    in_bid_ = false;
  }

  std::vector<double> bid_us;

 private:
  void close(Clock::time_point end) {
    bid_us.push_back(us_between(last_end_, end));
    last_end_ = end;
  }

  Clock::time_point last_end_;
  bool in_bid_ = false;
};

/// The three traced passes over `bids`; each must reproduce `expected`.
/// Returns the kQuotes pass for per-site detail.
PassStats traced_passes(JsonObject& json, const mbts::MarketConfig& config,
                        const std::string& label, bool per_site,
                        const std::vector<mbts::Task>& bids,
                        const std::string& expected, SpanLog& log) {
  auto pass = [&](Pass p) {
    MarketTarget target(config, label, per_site);
    PassStats stats = run_pass(target, bids, p, &log);
    MBTS_CHECK_MSG(stats.identity == expected,
                   "traced replay diverged:\n" + stats.identity +
                       "expected:\n" + expected);
    return stats;
  };
  const PassStats bare = pass(Pass::kBare);
  log.reserve(3 * bids.size() + 8);
  const PassStats spanned = pass(Pass::kSpans);
  mbts::Profiler::instance().reset();
  PassStats quoted = pass(Pass::kQuotes);
  add_layer_metrics(json, bare, spanned, quoted);
  return quoted;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  MBTS_CHECK_MSG(in.good(), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream out(path);
  MBTS_CHECK_MSG(out.good(), "cannot write " + path);
  out << text;
}

}  // namespace

int serve_replay_main(int argc, const char* const* argv) {
  mbts::CliParser cli("mbts_bench serve-replay",
                      "traced replay of a serve run's admitted stream");
  cli.add_flag("trace", "", "admitted stream CSV (mbts_serve --trace-out)");
  cli.add_flag("expect", "", "file holding the daemon's `serve` line");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("load", "0.7", "sim load factor of the sent stream");
  cli.add_flag("rate", "16000", "bids per wall second");
  cli.add_flag("seconds", "10", "length of the send schedule");
  cli.add_flag("spans-out", "", "span JSONL path");
  cli.add_flag("out", "", "summary JSON path");
  if (!cli.parse(argc, argv)) return 2;

  SpanLog log(Clock::now());
  JsonObject json;
  const std::uint64_t seed = cli.get_uint("seed");
  const auto n = static_cast<std::size_t>(cli.get_double("rate") *
                                          cli.get_double("seconds"));
  const Clock::time_point gen_start = Clock::now();
  const mbts::Trace sent = serve_bids(seed, cli.get_double("load"), n);
  const Clock::time_point gen_end = Clock::now();
  log.add("workload.generate", gen_start, gen_end, -1, 0);
  json.add("workload.generate_ms",
           seconds_between(gen_start, gen_end) * 1e3);
  json.add("serve.parse_us", parse_us_per_line(sent.tasks, &log));

  const mbts::Trace admitted = mbts::load_trace_csv(cli.get_string("trace"));
  const mbts::MarketConfig config = mbts::serve::fig1_market(seed);
  const PassStats quoted =
      traced_passes(json, config, "serve", false, admitted.tasks,
                    read_file(cli.get_string("expect")), log);
  // Per-site detail of the Fig. 1 trio, keyed big/mid/small.
  for (std::size_t s = 0; s < config.sites.size(); ++s) {
    const std::string& name = config.sites[s].name;
    const std::string key = name.substr(0, name.find('-'));
    json.add("core.quote_us." + key, mean(quoted.site_quote_us[s]));
    json.add("core.accept_frac." + key,
             static_cast<double>(quoted.site_accepts[s]) /
                 static_cast<double>(admitted.tasks.size()));
    json.add("core.pending_max." + key,
             static_cast<double>(quoted.site_pending_max[s]));
  }
  json.add("bids", static_cast<double>(admitted.tasks.size()));
  if (!cli.get_string("spans-out").empty())
    log.write_jsonl(cli.get_string("spans-out"));
  json.write(cli.get_string("out"));
  return 0;
}

int market_main(int argc, const char* const* argv) {
  mbts::CliParser cli("mbts_bench market",
                      "market_wide: Market::run() on the 1024-site market");
  cli.add_flag("seed", "42", "workload seed");
  cli.add_flag("bids", "16384", "bids per run");
  cli.add_flag("seconds", "10", "keep repeating runs this long");
  cli.add_flag("min-reps", "3", "runs made even past --seconds");
  cli.add_flag("traced", "false", "run the three traced passes instead");
  cli.add_flag("identity-out", "", "write the run identity here");
  cli.add_flag("spans-out", "", "span JSONL path (--traced)");
  cli.add_flag("out", "", "summary JSON path");
  if (!cli.parse(argc, argv)) return 2;

  const std::uint64_t seed = cli.get_uint("seed");
  const auto n = static_cast<std::size_t>(cli.get_uint("bids"));
  const mbts::MarketConfig config = wide_config(seed);
  JsonObject json;
  std::string identity;

  if (cli.get_bool("traced")) {
    SpanLog log(Clock::now());
    const Clock::time_point gen_start = Clock::now();
    const mbts::Trace trace = wide_bids(seed, n);
    const Clock::time_point gen_end = Clock::now();
    log.add("workload.generate", gen_start, gen_end, -1, 0);
    json.add("workload.generate_ms",
             seconds_between(gen_start, gen_end) * 1e3);
    json.add("serve.parse_us", parse_us_per_line(trace.tasks, &log));
    {
      mbts::Market reference(config);
      reference.inject(trace);
      identity = market_identity("market", reference.run(), true);
    }
    traced_passes(json, config, "market", true, trace.tasks, identity, log);
    json.add("bids", static_cast<double>(n));
    if (!cli.get_string("spans-out").empty())
      log.write_jsonl(cli.get_string("spans-out"));
  } else {
    std::vector<double> setup_s, wall_s, bid_us;
    const Clock::time_point start = Clock::now();
    const std::size_t min_reps = cli.get_uint("min-reps");
    for (std::size_t rep = 0;
         rep < min_reps ||
         seconds_between(start, Clock::now()) < cli.get_double("seconds");
         ++rep) {
      const Clock::time_point t0 = Clock::now();
      const mbts::Trace trace = wide_bids(seed, n);
      auto market = std::make_unique<mbts::Market>(config);
      market->inject(trace);
      const Clock::time_point t1 = Clock::now();
      BidTimer timer(t1);
      market->engine().set_observer(&timer);
      const mbts::MarketStats stats = market->run();
      const Clock::time_point t2 = Clock::now();
      timer.finish(t2);
      market->engine().set_observer(nullptr);
      setup_s.push_back(seconds_between(t0, t1));
      wall_s.push_back(seconds_between(t1, t2));
      bid_us.insert(bid_us.end(), timer.bid_us.begin(), timer.bid_us.end());
      const std::string id = market_identity("market", stats, true);
      MBTS_CHECK_MSG(rep == 0 || id == identity,
                     "repeated market_wide runs diverged");
      identity = id;
    }
    json.add("reps", static_cast<double>(wall_s.size()));
    json.add("bids", static_cast<double>(n));
    json.add("setup_s", median(setup_s));
    json.add("wall_s", median(wall_s));
    json.add("bid_p50_ms", quantile(bid_us, 0.5) / 1e3);
    json.add("bid_p90_ms", quantile(bid_us, 0.9) / 1e3);
    json.add("bid_p99_ms", quantile(bid_us, 0.99) / 1e3);
    json.add("peak_rss_mb", peak_rss_mb());
  }
  write_file(cli.get_string("identity-out"), identity);
  json.write(cli.get_string("out"));
  return 0;
}

}  // namespace bench
