// The fig6_batch subcommand (benchmark/README.md). run.py times the real
// bench/fig6_admission_load binary; this side supplies what the binary
// cannot report:
//
//   gated   set-up time (generating the grid's traces, the part of the run
//           that is workload construction) and per-bid latency, from a
//           sample of the grid's single-site runs driven one bid at a time.
//           The sample's yields must equal the binary's CSV cells.
//   traced  the serial re-run of the whole grid (generate_trace +
//           run_single_site), whose CSV must equal the binary's, then the
//           three per-bid passes over every run of the grid, each of which
//           must reproduce run_single_site's stats.
#include <optional>
#include <sstream>

#include "bid_loop.hpp"
#include "experiments/figures.hpp"
#include "experiments/runner.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/presets.hpp"

namespace bench {
namespace {

// The grid of experiments/figures.cpp figure6(). The CSV cross-checks fail
// if the two ever drift apart.
const std::vector<double> kLoads{0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5};
constexpr double kDiscount = 0.01;
constexpr double kThreshold = 180.0;

struct GridConfig {
  std::string name;
  mbts::PolicySpec policy;
  std::optional<mbts::SlackAdmissionConfig> admission;
  double discount = 0.0;
};

std::vector<GridConfig> grid_configs() {
  std::vector<GridConfig> configs;
  for (double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::ostringstream name;
    name << "alpha=" << alpha;
    configs.push_back({name.str(), mbts::PolicySpec::first_reward(alpha),
                       mbts::SlackAdmissionConfig{kThreshold, false},
                       kDiscount});
  }
  configs.push_back(
      {"FirstPrice_noAC", mbts::PolicySpec::first_price(), std::nullopt, 0.0});
  return configs;
}

mbts::SchedulerConfig site_config(double discount) {
  mbts::SchedulerConfig config;
  config.processors = mbts::presets::kProcessors;
  config.preemption = true;
  config.discount_rate = discount;
  return config;
}

/// The trace of load `l`: the binary's first (and, at --reps 1, only)
/// replication.
mbts::Trace grid_trace(const mbts::SeedSequence& seeds, std::size_t l,
                       std::size_t jobs) {
  mbts::WorkloadSpec spec = mbts::presets::admission_mix(kLoads[l]);
  spec.num_jobs = jobs;
  mbts::Xoshiro256 rng = seeds.stream(l, 0);
  return mbts::generate_trace(spec, rng);
}

}  // namespace

int fig6_main(int argc, const char* const* argv) {
  mbts::CliParser cli("mbts_bench fig6",
                      "fig6_batch set-up, bid latency and traced re-run");
  cli.add_flag("seed", "42", "workload seed (the binary's --seed)");
  cli.add_flag("jobs", "5000", "tasks per trace (the binary's --jobs)");
  cli.add_flag("setup-reps", "100", "times the grid's traces are generated");
  cli.add_flag("traced", "false", "run the traced serial re-run instead");
  cli.add_flag("parallel-wall", "0",
               "traced: wall seconds of a --threads 2 binary run, for "
               "experiments.parallel_eff");
  cli.add_flag("csv-out", "", "traced: the serial re-run's figure CSV");
  cli.add_flag("spans-out", "", "traced: span JSONL path");
  cli.add_flag("out", "", "summary JSON path");
  if (!cli.parse(argc, argv)) return 2;

  const mbts::SeedSequence seeds(cli.get_uint("seed"));
  const std::size_t jobs = cli.get_uint("jobs");
  MBTS_CHECK_MSG(jobs > 0, "--jobs must be positive");
  const std::vector<GridConfig> configs = grid_configs();
  JsonObject json;

  if (!cli.get_bool("traced")) {
    std::vector<double> setup_s;
    for (std::size_t k = 0; k < cli.get_uint("setup-reps"); ++k) {
      const Clock::time_point t0 = Clock::now();
      for (std::size_t l = 0; l < kLoads.size(); ++l)
        grid_trace(seeds, l, jobs);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    // The sample: every load at the Fig. 6 headline policy (alpha 0.2 with
    // admission) and at the no-admission baseline, whose backlog grows to
    // thousands pending at high load.
    std::vector<double> bid_us;
    std::vector<std::string> cells;
    for (std::size_t l = 0; l < kLoads.size(); ++l) {
      const mbts::Trace trace = grid_trace(seeds, l, jobs);
      for (const std::size_t c : {std::size_t{1}, configs.size() - 1}) {
        SiteTarget target(site_config(configs[c].discount), configs[c].policy,
                          configs[c].admission);
        const PassStats pass =
            run_pass(target, trace.tasks, Pass::kTimed, nullptr);
        bid_us.insert(bid_us.end(), pass.bid_us.begin(), pass.bid_us.end());
        JsonObject cell;
        cell.add("series", configs[c].name);
        cell.add("x", kLoads[l]);
        cell.add("y", target.stats().yield_rate);
        cells.push_back(cell.str());
      }
    }
    json.add("setup_s", median(setup_s));
    json.add("bid_p50_ms", quantile(bid_us, 0.5) / 1e3);
    json.add("bid_p90_ms", quantile(bid_us, 0.9) / 1e3);
    json.add("bid_p99_ms", quantile(bid_us, 0.99) / 1e3);
    json.add("sample_bids", static_cast<double>(bid_us.size()));
    json.add_list("sample_cells", cells);
    json.write(cli.get_string("out"));
    return 0;
  }

  SpanLog log(Clock::now());
  std::vector<std::vector<mbts::Summary>> cells(
      configs.size(), std::vector<mbts::Summary>(kLoads.size()));
  std::vector<mbts::Trace> traces;
  std::vector<std::string> identities;  // run_single_site, grid order
  std::vector<double> ac_ms, noac_ms;
  double generate_ms = 0.0, serial_ms = 0.0, straggler_ms = 0.0;
  for (std::size_t l = 0; l < kLoads.size(); ++l) {
    const Clock::time_point cell_start = Clock::now();
    traces.push_back(grid_trace(seeds, l, jobs));
    const Clock::time_point generated = Clock::now();
    log.add("workload.generate", cell_start, generated, -1, 0);
    generate_ms += seconds_between(cell_start, generated) * 1e3;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const Clock::time_point t0 = Clock::now();
      const mbts::RunStats stats = mbts::run_single_site(
          traces.back(), site_config(configs[c].discount), configs[c].policy,
          configs[c].admission);
      const Clock::time_point t1 = Clock::now();
      log.add("experiments.run", t0, t1, -1, 0);
      (configs[c].admission ? ac_ms : noac_ms)
          .push_back(seconds_between(t0, t1) * 1e3);
      identities.push_back(mbts::fingerprint_line("site", stats));
      cells[c][l].add(stats.yield_rate);
    }
    const double cell_ms = seconds_between(cell_start, Clock::now()) * 1e3;
    serial_ms += cell_ms;
    straggler_ms = std::max(straggler_ms, cell_ms);
  }
  mbts::FigureResult figure;
  figure.id = "fig6";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    mbts::Series series;
    series.label = configs[c].name;
    for (std::size_t l = 0; l < kLoads.size(); ++l)
      series.points.push_back(
          {kLoads[l], cells[c][l].mean(), cells[c][l].sem()});
    figure.series.push_back(std::move(series));
  }
  mbts::save_figure_csv(figure, cli.get_string("csv-out"));

  std::vector<mbts::Task> all_bids;
  for (const mbts::Trace& trace : traces)
    all_bids.insert(all_bids.end(), trace.tasks.begin(), trace.tasks.end());
  json.add("serve.parse_us", parse_us_per_line(all_bids, &log));
  json.add("workload.generate_ms", generate_ms);

  auto grid_pass = [&](Pass pass) {
    PassStats total;
    std::size_t run = 0;
    for (const mbts::Trace& trace : traces) {
      for (const GridConfig& config : configs) {
        SiteTarget target(site_config(config.discount), config.policy,
                          config.admission);
        const PassStats stats = run_pass(target, trace.tasks, pass, &log);
        MBTS_CHECK_MSG(stats.identity == identities[run],
                       "per-bid replica diverged from run_single_site:\n" +
                           stats.identity + "expected:\n" + identities[run]);
        merge(total, stats);
        ++run;
      }
    }
    return total;
  };
  const PassStats bare = grid_pass(Pass::kBare);
  log.reserve(log.spans().size() + configs.size() * (3 * all_bids.size() +
                                                     2 * traces.size()));
  const PassStats spanned = grid_pass(Pass::kSpans);
  mbts::Profiler::instance().reset();
  const PassStats quoted = grid_pass(Pass::kQuotes);
  add_layer_metrics(json, bare, spanned, quoted);

  json.add("experiments.run_ms.ac", mean(ac_ms));
  json.add("experiments.run_ms.noac", mean(noac_ms));
  json.add("experiments.straggler_ms", straggler_ms);
  const double parallel_wall = cli.get_double("parallel-wall");
  if (parallel_wall > 0.0)
    json.add("experiments.parallel_eff", serial_ms / 1e3 / (2 * parallel_wall));
  json.add("bids", static_cast<double>(spanned.negotiate_us.size()));
  if (!cli.get_string("spans-out").empty())
    log.write_jsonl(cli.get_string("spans-out"));
  json.write(cli.get_string("out"));
  return 0;
}

}  // namespace bench
