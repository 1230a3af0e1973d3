// `fleet`: the sharded discrete-event fleet simulator at 5x10^4 VMs for half
// an hour of simulated time: 2 jobs per VM-hour, uniform mix, 60% spot
// capacity under a replayed `storm` price trace with the re-bid/migrate
// policy on, checkpointed restarts and injected crashes, 8 shards. The only
// workload on `sched` and `market`; pools carry a standing queue, so the
// market-tick and retry handlers see real backlogs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "market/market.hpp"
#include "market/price_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/sharded_simulator.hpp"

namespace perfbench {
namespace {

namespace ec = edacloud;

constexpr int kVms = 50'000;
constexpr double kSimSeconds = 1800.0;
constexpr int kShards = 8;

/// The storm preset's price trace, written to the canonical trace format
/// and parsed back, so the run replays a trace file's contents. The trace
/// is the same on every seed (the price-storm bench's); the workload seed
/// drives arrivals, spot draws and crashes.
std::shared_ptr<ec::market::TraceMarket> replayed_storm() {
  const auto generated =
      ec::market::make_preset_market("storm", 20260807, 6.0 * 3600.0);
  const std::string text =
      ec::market::write_price_traces(generated->traces());
  return std::make_shared<ec::market::TraceMarket>(
      ec::market::parse_price_traces(text), ec::cloud::SpotModel{}, 0.5);
}

ec::sched::ShardedSimConfig fleet_config(
    std::uint64_t seed, std::shared_ptr<ec::market::TraceMarket> storm,
    int shards, int threads) {
  ec::sched::ShardedSimConfig config;
  ec::sched::SimConfig& base = config.base;
  base.seed = seed;
  base.duration_seconds = kSimSeconds;
  base.load.arrival_rate_per_hour = 2.0 * kVms;
  base.load.mix = ec::sched::uniform_mix();
  base.fleet.boot_seconds = 45.0;
  base.fleet.spot_fraction = 0.6;
  base.fleet.spot_bid_fraction = 0.5;
  base.fleet.market = std::move(storm);
  base.market.enabled = true;
  base.fault.restart = ec::sched::RestartModel::kCheckpoint;
  base.fault.checkpoint_interval_seconds = 150.0;
  base.fault.checkpoint_overhead_seconds = 15.0;
  base.fault.crash_rate_per_hour = 0.05;
  // Spread the fleet over the 12 canonical pools and pin the autoscaler
  // around that size, as the fleet-scale ladder does.
  const int per_pool = kVms / ec::sched::ShardTopology::kPoolCount;
  for (int pool = 0; pool < ec::sched::ShardTopology::kPoolCount; ++pool) {
    base.warm_pools.emplace_back(ec::sched::ShardTopology::pool_at(pool),
                                 per_pool);
  }
  base.autoscaler.min_vms = per_pool;
  base.autoscaler.max_vms = 2 * per_pool;
  base.autoscaler.max_step_up = std::max(8, per_pool / 8);
  config.shards = shards;
  config.handoff_latency_seconds = 5.0;
  config.threads = threads;
  return config;
}

struct FleetRun {
  ec::sched::FleetMetrics metrics;
  std::string export_json;  // the byte-compared metrics export
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::vector<ec::sched::ShardStats> shards;
  double seconds = 0.0;
};

FleetRun simulate(const ec::sched::ShardedSimConfig& config) {
  ec::sched::ShardedFleetSimulator sim(config,
                                       ec::sched::builtin_templates(), "cost");
  const auto start = Clock::now();
  FleetRun run;
  run.metrics = sim.run();
  run.seconds = seconds_since(start);
  ec::obs::Registry registry;
  run.metrics.export_to(registry);
  run.export_json = registry.to_json();
  run.events = sim.total_events();
  run.windows = sim.windows();
  run.shards = sim.shard_stats();
  return run;
}

}  // namespace

Outcome run_fleet(const Args& args) {
  Outcome outcome;
  const std::uint64_t seed = args.seed * 0x9E3779B97F4A7C15ULL + 11;
  // Two threads, as in `tune`: spread over every vCPU of a small VM, the
  // window loop stalls whenever the host preempts one of them.
  const int threads = std::min(2, host_threads());

  // Set-up: the replayed market trace and the configuration. It takes
  // milliseconds, so it is timed in blocks of five.
  ec::sched::ShardedSimConfig config;
  outcome.e2e["setup_s"] = setup_seconds(9, 5, [&] {
    config = fleet_config(seed, replayed_storm(), kShards, threads);
  });

  // Timed region: whole simulations until the budget is spent (at least
  // two, so the reported rate is a median).
  std::vector<FleetRun> runs;
  std::vector<double> rates, walls_ms;
  const auto start = Clock::now();
  while (runs.size() < 2 || seconds_since(start) + runs.back().seconds <=
                                args.seconds) {
    runs.push_back(simulate(config));
    rates.push_back(static_cast<double>(runs.back().events) /
                    runs.back().seconds);
    walls_ms.push_back(1e3 * runs.back().seconds);
  }
  outcome.e2e["throughput_per_s"] = median(rates);
  outcome.e2e["p50_ms"] = median(walls_ms);
  outcome.e2e["p99_ms"] = quantile(walls_ms, 0.99);

  // Checks, outside the timed region: every run exports the same metrics
  // as a 1-shard run of the same seed, and every submitted job completed or
  // failed.
  outcome.attempted = runs.size();
  const FleetRun reference = simulate(fleet_config(seed, replayed_storm(),
                                                   1, 1));
  for (const FleetRun& run : runs) {
    const auto& m = run.metrics;
    if (run.export_json != reference.export_json) {
      outcome.fail("metrics export differs from the 1-shard run");
    } else if (m.jobs_submitted != m.jobs_completed + m.jobs_failed ||
               m.jobs_submitted == 0) {
      outcome.fail("jobs not conserved: " + std::to_string(m.jobs_submitted) +
                   " submitted, " + std::to_string(m.jobs_completed) +
                   " completed, " + std::to_string(m.jobs_failed) + " failed");
    }
  }

  if (args.trace) {
    auto& layer = outcome.layer;
    const FleetRun& run = runs.front();
    layer["sched.events"] = static_cast<double>(run.events);
    layer["sched.windows"] = static_cast<double>(run.windows);
    double handoffs = 0.0;
    double most = 0.0;
    for (const auto& shard : run.shards) {
      handoffs += static_cast<double>(shard.handoffs_out);
      most = std::max(most, static_cast<double>(shard.events_processed));
    }
    layer["sched.handoffs"] = handoffs;
    layer["sched.shard_imbalance"] =
        most / (static_cast<double>(run.events) /
                static_cast<double>(run.shards.size()));
    layer["sched.retries"] = static_cast<double>(run.metrics.retries);
    layer["market.migrations"] =
        static_cast<double>(run.metrics.market_migrations);
    layer["market.rebids"] = static_cast<double>(run.metrics.market_rebids);
    layer["market.fallbacks"] =
        static_cast<double>(run.metrics.market_fallbacks);

    // The same simulation on one thread: the parallel speedup of the
    // window loop.
    const FleetRun serial =
        simulate(fleet_config(seed, replayed_storm(), kShards, 1));
    layer["sched.thread_speedup"] = serial.seconds / (median(walls_ms) / 1e3);

    // Traced run: the simulator's own virtual-clock trace, which carries
    // every pool's queue depth. Its metrics must match the untraced runs.
    auto& tracer = ec::obs::Tracer::global();
    tracer.enable(ec::obs::ClockMode::kVirtual);
    const FleetRun traced = simulate(config);
    tracer.disable();
    double depth = 0.0;
    for (const auto& event : tracer.snapshot()) {
      if (event.phase != 'C' || event.args.empty()) continue;
      if (event.name.find("queue") == std::string::npos) continue;
      depth = std::max(depth, event.args.front().value);
    }
    tracer.clear();
    layer["sched.queue_depth_max"] = depth;
    layer["trace.overhead_share"] =
        traced.seconds / (median(walls_ms) / 1e3) - 1.0;
    if (traced.export_json != run.export_json ||
        serial.export_json != run.export_json) {
      outcome.fail("traced or 1-thread metrics differ from the timed run");
    }
  }
  return outcome;
}

}  // namespace perfbench
