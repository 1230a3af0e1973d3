#pragma once
// Shared plumbing for the benchmark workloads: the command-line arguments,
// the outcome a workload hands back to main(), wall-clock helpers and the
// order statistics every metric is reported with.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed region
  bool trace = false;     // also run the traced pass (per-layer metrics)
};

/// What one workload run reports. `e2e` and `layer` are keyed by the
/// metric names BENCHMARK.json lists; main() prints them in that order.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // operations with an output-check violation
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::vector<std::string> violations;  // human-readable, for stderr

  /// Record one failed operation with the reason it failed.
  void fail(const std::string& what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Set-up cost: the median over `blocks` of the mean time of `per_block`
/// back-to-back calls of `set_up`. Set-ups of a few milliseconds are timed
/// in blocks long enough to measure steadily.
template <typename SetUp>
double setup_seconds(int blocks, int per_block, SetUp&& set_up) {
  std::vector<double> means;
  for (int b = 0; b < blocks; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < per_block; ++i) set_up();
    means.push_back(seconds_since(start) / per_block);
  }
  return median(std::move(means));
}

/// 64-bit FNV-1a, chained through `hash` so several fields fold into one.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t hash = 1469598103934665603ULL);

/// Round-trip-exact decimal form of a double (the golden digests hash it).
[[nodiscard]] std::string exact(double value);

/// splitmix64 step: the benchmark's own seeded stream, independent of the
/// program's generators.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);
[[nodiscard]] double uniform01(std::uint64_t& state);

/// Fisher-Yates shuffle driven by splitmix64.
template <typename T>
void shuffle(std::vector<T>& items, std::uint64_t& state) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = splitmix64(state) % i;
    std::swap(items[i - 1], items[j]);
  }
}

/// Hardware threads the benchmark may use (nproc, at least 1). Every
/// thread and connection count in the workloads stays within it.
[[nodiscard]] int host_threads();

Outcome run_plan(const Args& args);
Outcome run_serve(const Args& args);
Outcome run_fleet(const Args& args);
Outcome run_tune(const Args& args);

}  // namespace perfbench
