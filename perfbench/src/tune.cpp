// `tune`: the recipe tuner on a fixed set of irregular-logic designs. Each
// design is tuned at two deadlines with one tuner: the first call is cold,
// the second is warm through the tuner's prediction cache. The only
// workload on `tune`; it loads `synth` heavily and uses `ml` as batched
// predict_batch calls.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "ml/batch.hpp"
#include "nl/cell_library.hpp"
#include "nl/star_graph.hpp"
#include "obs/trace.hpp"
#include "synth/engine.hpp"
#include "tune/recipe_space.hpp"
#include "tune/tuner.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

namespace ec = edacloud;

struct PoolDesign {
  const char* family;
  int size;
};

// Irregular logic, where recipes really trade area (the structured
// arithmetic families map to near-identical netlists under most recipes).
constexpr PoolDesign kPool[] = {
    {"cavlc", 28}, {"mem_ctrl", 6}, {"crossbar", 8},
    {"i2c", 28},   {"sbox", 8},     {"dynamic_node", 5},
};
constexpr std::uint64_t kDesignSeed = 7;
constexpr double kDeadlineSeconds = 45.0;  // the recipe-tuning bench's

ec::tune::TunerOptions tuner_options(int threads, std::size_t batch) {
  ec::tune::TunerOptions options;
  options.space.random_samples = 16;
  options.space.seed = 7;
  options.threads = threads;
  options.batch_size = batch;
  return options;
}

/// The predictor the recipe-tuning bench trains.
ec::core::RuntimePredictor train(const ec::nl::CellLibrary& library) {
  std::vector<ec::workloads::BenchmarkSpec> specs;
  for (const auto& info : ec::workloads::families()) {
    if (specs.size() >= 6) break;
    specs.push_back({info.name, info.corpus_sizes.front(), kDesignSeed});
  }
  ec::core::DatasetOptions dataset_options;
  dataset_options.max_recipes = 2;
  dataset_options.max_netlists = 2 * specs.size();
  ec::core::PredictorOptions predictor_options;
  predictor_options.gcn.epochs = 12;
  ec::core::RuntimePredictor predictor(predictor_options);
  (void)predictor.train(
      ec::core::DatasetBuilder(library, dataset_options).build(specs));
  return predictor;
}

struct Tuned {
  std::size_t design = 0;
  std::array<double, 2> deadlines{};
  ec::tune::TuneResult cold;
  ec::tune::TuneResult warm;
  double seconds = 0.0;  // both calls
};

/// A cold then a warm tune of one design with one tuner (one cache).
void tune_pair(const ec::nl::CellLibrary& library,
               const ec::core::RuntimePredictor& predictor,
               const ec::tune::TunerOptions& options, const ec::nl::Aig& aig,
               Tuned& tuned) {
  ec::tune::RecipeTuner tuner(library, predictor, options);
  const auto start = Clock::now();
  tuned.cold = tuner.tune(aig, tuned.deadlines[0]);
  tuned.warm = tuner.tune(aig, tuned.deadlines[1]);
  tuned.seconds = seconds_since(start);
}

/// The per-layer pass over one design: the cold tune's synthesis and
/// prediction phases driven through the public engine and predictor calls,
/// each timed from outside, and checked against what the tuner returned.
void trace_design(const ec::nl::CellLibrary& library,
                    const ec::core::RuntimePredictor& predictor,
                    const ec::tune::TunerOptions& options,
                    const ec::nl::Aig& aig, const ec::tune::TuneResult& timed,
                    Outcome& outcome) {
  auto& layer = outcome.layer;
  // The tuner's recipe list: the enumerated space, plus the default recipe
  // when the space lacks it.
  std::vector<ec::synth::SynthRecipe> recipes =
      ec::tune::enumerate_recipes(options.space);
  const std::string fixed_key =
      ec::tune::recipe_key(ec::synth::default_recipe());
  if (std::none_of(recipes.begin(), recipes.end(), [&](const auto& r) {
        return ec::tune::recipe_key(r) == fixed_key;
      })) {
    recipes.push_back(ec::synth::default_recipe());
  }
  bool same = recipes.size() == timed.evaluations.size();

  // Synthesis runtime comes from the recipe-independent AIG graph.
  const ec::ml::GraphSample aig_sample =
      ec::ml::sample_from_graph(ec::nl::graph_from_aig(aig));
  const std::vector<ec::ml::ContentKey> aig_key = {
      ec::ml::content_key(aig_sample)};
  auto start = Clock::now();
  const auto synth_ladder = predictor.predict_batch(
      ec::core::JobKind::kSynthesis, {&aig_sample}, &aig_key);
  layer["ml.predict_batch_s"] += seconds_since(start);
  for (const auto& eval : timed.evaluations) {
    same = same && eval.ladders[0] == synth_ladder[0];
  }

  const ec::synth::SynthesisEngine engine(library);
  std::vector<ec::ml::GraphSample> samples;
  std::vector<ec::ml::ContentKey> keys;
  for (std::size_t i = 0; i < recipes.size() && same; ++i) {
    start = Clock::now();
    const auto mapped = engine.synthesize(aig, recipes[i]);
    layer["synth.s.tune"] += seconds_since(start);
    samples.push_back(ec::ml::sample_from_graph(
        ec::nl::graph_from_netlist(mapped.netlist)));
    keys.push_back(ec::ml::content_key(samples.back()));
    same = same && mapped.mapped_area_um2 == timed.evaluations[i].area_um2 &&
           mapped.cell_count == timed.evaluations[i].cell_count;
  }
  // Netlist jobs from each recipe's netlist, in the tuner's chunk size.
  for (const ec::core::JobKind job :
       {ec::core::JobKind::kPlacement, ec::core::JobKind::kRouting,
        ec::core::JobKind::kSta}) {
    for (std::size_t begin = 0; begin < samples.size() && same;
         begin += options.batch_size) {
      const std::size_t end =
          std::min(samples.size(), begin + options.batch_size);
      std::vector<const ec::ml::GraphSample*> chunk;
      std::vector<ec::ml::ContentKey> chunk_keys(keys.begin() + begin,
                                                 keys.begin() + end);
      for (std::size_t i = begin; i < end; ++i) chunk.push_back(&samples[i]);
      start = Clock::now();
      const auto ladders = predictor.predict_batch(job, chunk, &chunk_keys);
      layer["ml.predict_batch_s"] += seconds_since(start);
      for (std::size_t i = begin; i < end; ++i) {
        same = same && ladders[i - begin] ==
                           timed.evaluations[i].ladders[static_cast<int>(job)];
      }
    }
  }
  if (!same) {
    outcome.fail(aig.name() + ": traced recipes differ from the tuner's");
  }
}

}  // namespace

Outcome run_tune(const Args& args) {
  Outcome outcome;
  std::uint64_t rng = args.seed * 0xE7037ED1A0B428DBULL + 5;
  // Two threads: on the 4-vCPU host this benchmark was built on, work
  // spread over every vCPU stalls for 5-25 ms at a time, over two it does
  // not.
  const int threads = std::min(2, host_threads());
  const auto options = tuner_options(threads, 64);

  // Set-up: cell library, the trained predictor and the generated designs,
  // three times.
  std::vector<double> setups;
  std::optional<ec::nl::CellLibrary> library_slot;
  std::optional<ec::core::RuntimePredictor> predictor_slot;
  std::vector<ec::nl::Aig> designs;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    library_slot.emplace(ec::nl::make_generic_14nm_library());
    predictor_slot.emplace(train(*library_slot));
    designs.clear();
    for (const PoolDesign& d : kPool) {
      designs.push_back(
          ec::workloads::generate({d.family, d.size, kDesignSeed}));
    }
    setups.push_back(seconds_since(start));
  }
  outcome.e2e["setup_s"] = median(setups);
  const ec::nl::CellLibrary& library = *library_slot;
  const ec::core::RuntimePredictor& predictor = *predictor_slot;

  // Timed region: whole passes over the pool, each in a seeded order, so
  // every run tunes the same mix. Each design keeps its seeded deadlines
  // for the run. Another pass starts only while the last one still fits.
  std::vector<std::array<double, 2>> deadlines(designs.size());
  for (auto& pair : deadlines) {
    pair[0] = kDeadlineSeconds * (0.8 + 0.4 * uniform01(rng));
    pair[1] = pair[0] * (1.5 + 0.5 * uniform01(rng));
  }
  std::vector<Tuned> tuned;
  std::vector<double> pass_ms;
  std::vector<std::vector<double>> design_ms(designs.size());
  const auto start = Clock::now();
  double pass_s = 0.0;
  while (tuned.empty() || seconds_since(start) + pass_s <= args.seconds) {
    const auto pass_start = Clock::now();
    std::vector<std::size_t> order(designs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, rng);
    for (const std::size_t d : order) {
      Tuned t;
      t.design = d;
      t.deadlines = deadlines[d];
      tune_pair(library, predictor, options, designs[d], t);
      design_ms[d].push_back(1e3 * t.seconds);
      tuned.push_back(std::move(t));
    }
    pass_s = seconds_since(pass_start);
    pass_ms.push_back(1e3 * pass_s);
  }
  const double elapsed = seconds_since(start);
  outcome.e2e["throughput_per_s"] =
      static_cast<double>(tuned.size()) / elapsed;
  outcome.e2e["p50_ms"] = median(pass_ms);
  outcome.e2e["p99_ms"] = quantile(pass_ms, 0.99);

  // Checks: every tune returns the exports of a 1-thread, batch-1 tuner
  // on the same design and deadlines, and the joint plan at no-worse QoR
  // never costs more than the default recipe's plan.
  outcome.attempted = tuned.size();
  std::vector<Tuned> references(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    references[d].design = d;
    references[d].deadlines = deadlines[d];
    tune_pair(library, predictor, tuner_options(1, 1), designs[d],
              references[d]);
  }
  for (const Tuned& t : tuned) {
    const Tuned& reference = references[t.design];
    const auto& cold = t.cold;
    if (reference.cold.export_text() != cold.export_text() ||
        reference.warm.export_text() != t.warm.export_text()) {
      outcome.fail(cold.design_name + ": export differs from the reference");
    } else if (cold.fixed.plan.feasible && cold.joint_at_qor.plan.feasible &&
               cold.joint_at_qor.plan.total_cost_usd >
                   cold.fixed.plan.total_cost_usd) {
      outcome.fail(cold.design_name + ": joint plan costs more than fixed");
    }
  }

  if (args.trace) {
    auto& layer = outcome.layer;
    double hits = 0.0;
    double lookups = 0.0;
    for (const Tuned& t : tuned) {
      for (const auto* result : {&t.cold, &t.warm}) {
        hits += static_cast<double>(result->cache_hits);
        lookups +=
            static_cast<double>(result->cache_hits + result->cache_misses);
      }
    }
    layer["ml.cache_hit_share"] = lookups > 0 ? hits / lookups : 0.0;
    // Per-layer work of one pass over the pool, checked against the
    // 1-thread reference's cold calls.
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const Tuned& reference = references[d];
      layer["tune.recipes"] +=
          static_cast<double>(reference.cold.evaluations.size());
      layer["tune.cache_hits"] +=
          static_cast<double>(reference.warm.cache_hits);
      trace_design(library, predictor, tuner_options(1, 64), designs[d],
                   reference.cold, outcome);
    }
    // Tracing overhead: each design's timed cold + warm tune again with
    // the program's span tracer on, against its median untraced time. The
    // traced tunes must export what the timed ones did.
    auto& tracer = ec::obs::Tracer::global();
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      Tuned t;
      t.design = d;
      t.deadlines = deadlines[d];
      tracer.enable(ec::obs::ClockMode::kWall);
      tune_pair(library, predictor, options, designs[d], t);
      tracer.disable();
      tracer.clear();
      traced_ms += 1e3 * t.seconds;
      untraced_ms += median(design_ms[d]);
      if (t.cold.export_text() != references[d].cold.export_text() ||
          t.warm.export_text() != references[d].warm.export_text()) {
        outcome.fail(t.cold.design_name + ": traced export differs");
      }
    }
    layer["trace.overhead_share"] = traced_ms / untraced_ms - 1.0;
  }
  return outcome;
}

}  // namespace perfbench
