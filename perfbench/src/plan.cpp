// `plan`: the paper's Fig. 1 path, in process, one design at a time.
// Each design is characterized (instrumented flow against the 8-config
// ladder of both instance families) and then planned by the MCKP optimizer
// at a Table I-style deadline sweep. The only workload that runs the four
// flow stages and the perf substrate.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/mckp.hpp"
#include "common.hpp"
#include "core/characterize.hpp"
#include "core/optimizer.hpp"
#include "nl/cell_library.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/vm.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sta/sta.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"

namespace perfbench {
namespace {

namespace ec = edacloud;

struct PoolDesign {
  const char* family;
  int size;
};

// Registry families at corpus sizes. The first three overflow routing
// capacity, so rip-up-and-reroute runs; the others route clean. Sizes keep
// a pass over the pool near 2.5 s, so a run makes several passes.
constexpr PoolDesign kPool[] = {
    {"sparc_core", 16}, {"sparc_core", 12}, {"alu", 32},
    {"multiplier", 12}, {"voter", 41},      {"sbox", 8},
    {"mem_ctrl", 6},    {"dynamic_node", 5}, {"cavlc", 28},
};
constexpr std::uint64_t kDesignSeed = 7;  // the CLI's generator seed

// Digest of each pool design's characterization rows and routed QoR,
// recorded from this benchmark. The flow is deterministic, so any change
// here is a change of what is being characterized.
const std::map<std::string, std::string>& golden_digests() {
  static const std::map<std::string, std::string> digests = {
      {"sparc_core_s16", "1123cfe7cf5726f4"},
      {"sparc_core_s12", "a3356c585923ac43"},
      {"alu_w32", "805029307fa0a716"},
      {"mult_w12", "588beb6a2c069a3b"},
      {"voter_n41", "9702eac601986cb4"},
      {"sbox_c8", "6e4f79d3aecd4ef7"},
      {"mem_ctrl_p6", "95ae3f55c353902b"},
      {"dynamic_node_p5_w16", "2ad02069cff0c32d"},
      {"cavlc_s28", "dbbc5027d703102f"},
  };
  return digests;
}

std::vector<ec::perf::VmConfig> both_ladders() {
  std::vector<ec::perf::VmConfig> configs;
  for (const auto family : {ec::perf::InstanceFamily::kGeneralPurpose,
                            ec::perf::InstanceFamily::kMemoryOptimized}) {
    for (const auto& vm : ec::perf::vm_ladder(family)) configs.push_back(vm);
  }
  return configs;
}

struct Design {
  std::string name;
  ec::nl::Aig aig;
};

std::vector<Design> generate_pool() {
  std::vector<Design> designs;
  for (const PoolDesign& entry : kPool) {
    ec::workloads::BenchmarkSpec spec;
    spec.family = entry.family;
    spec.size = entry.size;
    spec.seed = kDesignSeed;
    ec::nl::Aig aig = ec::workloads::generate(spec);
    std::string name = aig.name();
    designs.push_back({std::move(name), std::move(aig)});
  }
  return designs;
}

/// One design through the plan path.
struct Planned {
  std::size_t design = 0;  // index into the pool
  ec::core::CharacterizationReport report;
  double wirelength = 0.0;  // routed QoR, as the flow exports it
  double overflow = 0.0;
  std::vector<ec::cloud::MckpStage> stages;
  std::vector<double> deadlines;
  std::vector<ec::core::DeploymentPlan> plans;
};

ec::core::RuntimeLadders ladders_of(
    const ec::core::CharacterizationReport& report) {
  ec::core::RuntimeLadders ladders{};
  for (const ec::core::JobKind job : ec::core::kAllJobs) {
    const auto* row = report.find(job, ec::core::recommended_family(job));
    if (row != nullptr) ladders[static_cast<int>(job)] = row->runtime_seconds;
  }
  return ladders;
}

/// Table I's sweep: loose, medium, just feasible, infeasible. `u` jitters
/// the loose, medium and infeasible points per seed. Rounding each stage to
/// whole seconds moves the DP's boundary by at most 2 s, so every point
/// here is on a definite side of the fastest completion.
std::vector<double> deadline_sweep(double fastest, std::uint64_t& rng) {
  return {fastest * (2.0 + 0.4 * uniform01(rng)),
          fastest * (1.25 + 0.2 * uniform01(rng)), std::ceil(fastest) + 3.0,
          std::floor(fastest * (0.75 + 0.1 * uniform01(rng)))};
}

double gauge(const char* name, const std::string& design) {
  const auto* g =
      ec::obs::Registry::global().find_gauge(name, {{"design", design}});
  return g != nullptr ? g->value() : -1.0;
}

std::string digest_of(const Planned& planned, const std::string& name) {
  std::string text = name;
  const auto add = [&text](std::string_view field) {
    text += ' ';
    text += field;
  };
  add(std::to_string(planned.report.instance_count));
  add(exact(planned.wirelength));
  add(exact(planned.overflow));
  for (const auto& row : planned.report.rows) {
    add(ec::core::job_name(row.job));
    add(ec::perf::to_string(row.family));
    for (const auto* series : {&row.runtime_seconds, &row.speedup,
                               &row.branch_miss_rate, &row.llc_miss_rate,
                               &row.avx_fraction}) {
      for (const double v : *series) add(exact(v));
    }
  }
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return hex;
}

/// Checks one planned design: every plan costs what the brute-force MCKP
/// optimum costs (ties may pick other machines), the infeasible plans are
/// exactly the deadlines below the fastest completion, and the
/// characterization matches the recorded digest.
void check_planned(const Planned& p, const std::string& name,
                   Outcome& outcome) {
  const double fastest = ec::cloud::fastest_completion_seconds(p.stages);
  for (std::size_t i = 0; i < p.deadlines.size(); ++i) {
    const auto& plan = p.plans[i];
    const auto reference =
        ec::cloud::solve_mckp_brute_force(p.stages, p.deadlines[i]);
    const bool expect_feasible = p.deadlines[i] >= fastest;
    if (plan.feasible != reference.feasible ||
        plan.feasible != expect_feasible ||
        (plan.feasible &&
         (plan.total_cost_usd != reference.total_cost_usd ||
          plan.total_runtime_seconds > p.deadlines[i] + 2.0))) {
      outcome.fail(name + ": plan at deadline " + exact(p.deadlines[i]) +
                   " differs from the brute-force optimum");
      return;
    }
  }
  const std::string digest = digest_of(p, name);
  const auto it = golden_digests().find(name);
  if (it == golden_digests().end() || it->second != digest) {
    outcome.fail(name + ": characterization digest " + digest +
                 " differs from the recorded one");
  }
}

struct TracedDesign {
  double pattern_routed = 0.0;
  double connections = 0.0;
};

/// The traced pass over one design: the four stage engines driven
/// directly, instrumented and plain, plus the MCKP solves, each timed from
/// outside. Checks its products against the timed path's.
TracedDesign trace_design(const Design& design, const Planned& timed,
                          const ec::nl::CellLibrary& library,
                          const std::vector<ec::perf::VmConfig>& configs,
                          Outcome& outcome) {
  const ec::core::FlowOptions options;
  const std::vector<ec::perf::VmConfig> none;
  TracedDesign traced;
  std::map<std::string, double>& layer = outcome.layer;
  const auto timed_call = [&](const char* metric, auto&& call) {
    const auto start = Clock::now();
    auto result = call();
    const double s = seconds_since(start);
    layer[metric] += s;
    return std::make_pair(std::move(result), s);
  };

  // Instrumented stages, exactly as EdaFlow::run drives them.
  ec::synth::SynthesisEngine synth(library);
  auto [synthesis, synth_s] = timed_call("synth.s", [&] {
    return synth.run(design.aig, options.recipe, configs);
  });
  const ec::nl::Netlist& netlist = synthesis.mapped.netlist;
  const ec::place::QuadraticPlacer placer(options.placer);
  auto [placement, place_s] =
      timed_call("place.s", [&] { return placer.run(netlist, configs); });
  const ec::route::GridRouter router(options.router);
  auto [routing, route_s] = timed_call("route.s", [&] {
    return router.run(netlist, placement.placement, configs);
  });
  const ec::sta::StaEngine sta(options.sta);
  auto [timing, sta_s] = timed_call("sta.s", [&] {
    return sta.run(netlist, &placement.placement, configs);
  });
  const double instrumented = synth_s + place_s + route_s + sta_s;

  // The same four calls with instrumentation off: the difference is what
  // the cache/branch simulators cost.
  const auto start = Clock::now();
  const auto plain_synthesis = synth.run(design.aig, options.recipe, none);
  const auto plain_placement = placer.run(plain_synthesis.mapped.netlist, none);
  const auto plain_routing = router.run(plain_synthesis.mapped.netlist,
                                        plain_placement.placement, none);
  (void)sta.run(plain_synthesis.mapped.netlist, &plain_placement.placement,
                none);
  layer["perf.s"] += instrumented - seconds_since(start);

  layer["route.expansions"] += static_cast<double>(routing.total_expansions);
  layer["route.rrr_iterations"] += routing.rrr_iterations;
  layer["route.overflow_edges"] +=
      static_cast<double>(routing.overflowed_edges);
  traced.pattern_routed = static_cast<double>(routing.pattern_routed);
  traced.connections = static_cast<double>(routing.connection_count);

  // Consistency: the traced products are the timed path's products.
  bool same = static_cast<double>(routing.wirelength_gedges) ==
                  timed.wirelength &&
              static_cast<double>(routing.overflowed_edges) == timed.overflow &&
              plain_routing.wirelength_gedges == routing.wirelength_gedges;
  const std::array<const ec::perf::JobProfile*, ec::core::kJobCount> profiles =
      {&synthesis.profile, &placement.profile, &routing.profile,
       &timing.profile};
  for (const ec::core::JobKind job : ec::core::kAllJobs) {
    const int j = static_cast<int>(job);
    ec::perf::RuntimeModelParams params = options.runtime_model;
    params.time_scale *= options.calibration.time_scale[j];
    const auto measurement = ec::perf::measure(*profiles[j], params);
    const auto* row =
        timed.report.find(job, ec::core::recommended_family(job));
    for (std::size_t i = 0, k = 0;
         row != nullptr && i < measurement.configs.size() && k < 4; ++i) {
      if (measurement.configs[i].family != row->family) continue;
      same = same &&
             measurement.runtime_seconds[i] == row->runtime_seconds[k++];
    }
  }

  // The MCKP solves behind the timed plans.
  for (std::size_t i = 0; i < timed.deadlines.size(); ++i) {
    const auto selection = timed_call("cloud.mckp_s", [&] {
                             return ec::cloud::solve_mckp_dp(
                                 timed.stages, timed.deadlines[i]);
                           }).first;
    layer["cloud.mckp_calls"] += 1.0;
    same = same && selection.feasible == timed.plans[i].feasible &&
           (!selection.feasible ||
            selection.total_cost_usd == timed.plans[i].total_cost_usd);
  }
  if (!same) {
    outcome.fail(design.name + ": traced products differ from the timed run");
  }
  return traced;
}

/// One design through the plan path: characterize, then plan at a seeded
/// deadline sweep. `p.deadlines` is drawn unless it is already set.
void plan_design(const ec::core::Characterizer& characterizer,
                 const ec::core::DeploymentOptimizer& optimizer,
                 const ec::nl::Aig& aig, std::uint64_t& rng, Planned& p) {
  p.report = characterizer.characterize(aig);
  const auto ladders = ladders_of(p.report);
  p.stages = optimizer.build_stages(ladders);
  if (p.deadlines.empty()) {
    p.deadlines =
        deadline_sweep(ec::cloud::fastest_completion_seconds(p.stages), rng);
  }
  for (const double deadline : p.deadlines) {
    p.plans.push_back(optimizer.optimize(ladders, deadline));
  }
}

}  // namespace

Outcome run_plan(const Args& args) {
  Outcome outcome;
  std::uint64_t rng = args.seed * 0xD1B54A32D192ED03ULL + 1;

  // Set-up: cell library and the generated pool. It takes milliseconds, so
  // it is timed in blocks of ten.
  std::optional<ec::nl::CellLibrary> library_slot;
  std::vector<Design> designs;
  outcome.e2e["setup_s"] = setup_seconds(9, 10, [&] {
    library_slot.emplace(ec::nl::make_generic_14nm_library());
    designs = generate_pool();
  });
  const ec::nl::CellLibrary& library = *library_slot;
  const auto configs = both_ladders();
  const ec::core::Characterizer characterizer(library);
  const ec::core::DeploymentOptimizer optimizer;

  // Timed region: whole passes over the pool, each in a seeded order, so
  // every run plans the same mix of designs. Passes start until the budget
  // is spent, so a run makes at least four at the default pass length and
  // may overrun the budget by one pass. The latency reported is a pass's:
  // the time to plan the whole pool once. (Single designs' times swing with
  // the host's memory traffic far more than a pass's total.)
  std::vector<Planned> planned;
  std::vector<double> pass_ms;
  const auto start = Clock::now();
  while (seconds_since(start) < args.seconds) {
    const auto pass_start = Clock::now();
    std::vector<std::size_t> order(designs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (const std::size_t d : order) {
      Planned p;
      p.design = d;
      plan_design(characterizer, optimizer, designs[d].aig, rng, p);
      planned.push_back(std::move(p));
    }
    pass_ms.push_back(1e3 * seconds_since(pass_start));
  }
  const double elapsed = seconds_since(start);
  outcome.e2e["throughput_per_s"] =
      static_cast<double>(planned.size()) / elapsed;
  outcome.e2e["p50_ms"] = median(pass_ms);
  outcome.e2e["p99_ms"] = quantile(pass_ms, 0.99);

  // Output checks, outside the timed region.
  outcome.attempted = planned.size();
  for (Planned& p : planned) {
    const std::string& name = designs[p.design].name;
    p.wirelength = gauge("flow.wirelength_gedges", name);
    p.overflow = gauge("flow.overflowed_edges", name);
    check_planned(p, name, outcome);
  }

  if (args.trace) {
    // Per-layer pass over the first complete pass of the pool.
    double pattern_routed = 0.0;
    double connections = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      const Planned& p = planned[i];
      const auto g0 = Clock::now();
      const auto aig = ec::workloads::generate(
          {kPool[p.design].family, kPool[p.design].size, kDesignSeed});
      outcome.layer["workloads.gen_s"] += seconds_since(g0);
      if (aig.name() != designs[p.design].name) {
        outcome.fail(aig.name() + ": regenerated design differs");
      }
      const TracedDesign t =
          trace_design(designs[p.design], p, library, configs, outcome);
      pattern_routed += t.pattern_routed;
      connections += t.connections;
    }
    outcome.layer["route.pattern_share"] =
        connections > 0 ? pattern_routed / connections : 0.0;

    // Tracing overhead: the first pass again, with the program's span
    // tracer on, against the median untraced pass. Its plans must be the
    // timed pass's.
    auto& tracer = ec::obs::Tracer::global();
    tracer.enable(ec::obs::ClockMode::kWall);
    const auto traced_start = Clock::now();
    std::vector<Planned> traced(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
      traced[i].deadlines = planned[i].deadlines;
      plan_design(characterizer, optimizer, designs[planned[i].design].aig,
                  rng, traced[i]);
    }
    const double traced_s = seconds_since(traced_start);
    tracer.disable();
    tracer.clear();
    outcome.layer["trace.overhead_share"] =
        traced_s / (median(pass_ms) / 1e3) - 1.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
      for (std::size_t k = 0; k < traced[i].plans.size(); ++k) {
        if (traced[i].plans[k].total_cost_usd !=
                planned[i].plans[k].total_cost_usd ||
            traced[i].plans[k].feasible != planned[i].plans[k].feasible) {
          outcome.fail(designs[planned[i].design].name +
                       ": traced plan differs from the timed one");
          break;
        }
      }
    }
  }
  return outcome;
}

}  // namespace perfbench
