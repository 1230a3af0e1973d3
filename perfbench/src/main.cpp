// The repository benchmark driver: one named workload per invocation,
//
//   perfbench --workload plan|serve|fleet|tune --seed N --seconds S --trace 0|1
//
// Inputs are generated from the seed. The run checks every output it
// produced and prints, as the last line of stdout, one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. The exit code is
// nonzero when any output check failed. perfbench/README.md explains the
// workloads and what each metric measures.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "svc/json.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct MetricSpec {
  std::string name;
  std::string unit;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload plan|serve|fleet|"
               "tune --seed N --seconds S --trace 0|1\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

/// The metrics BENCHMARK.json lists for the mode, in its order and with its
/// units: `end_to_end` without tracing, `per_layer` with it. The file is
/// read from the working directory, the repository root.
std::vector<MetricSpec> listed_metrics(bool trace) {
  std::ifstream in("BENCHMARK.json");
  if (!in) usage("BENCHMARK.json not found in the working directory");
  std::ostringstream text;
  text << in.rdbuf();
  const auto parsed = edacloud::svc::parse_json(text.str());
  const auto* list =
      parsed.ok ? parsed.value.find(trace ? "per_layer" : "end_to_end")
                : nullptr;
  if (list == nullptr || !list->is_array()) usage("BENCHMARK.json is invalid");
  std::vector<MetricSpec> specs;
  for (std::size_t i = 0; i < list->size(); ++i) {
    specs.push_back({list->at(i).string_or("name", ""),
                     list->at(i).string_or("unit", "")});
  }
  return specs;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The listed metrics as a JSON object. A listed metric the workload did
/// not produce reads 0: its layer is bypassed on this workload. A produced
/// metric that is not listed is an error in the benchmark itself.
std::string metrics_json(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  for (const auto& [name, value] : values) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return s.name == name; })) {
      std::fprintf(stderr, "perfbench: metric %s is not in BENCHMARK.json\n",
                   name.c_str());
      std::exit(2);
    }
  }
  std::string out = "{";
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (out.size() > 1) out += ", ";
    // Appended piece by piece: GCC 12 warns (-Wrestrict, falsely) on
    // "literal" + std::string chains.
    out += '"';
    out += spec.name;
    out += "\": {\"value\": ";
    out += perfbench::exact(value);
    out += ", \"unit\": \"";
    out += spec.unit;
    out += "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<MetricSpec> specs = listed_metrics(args.trace);
  // Keep freed memory mapped instead of handing it back to the kernel. On a
  // small VM a page fault costs whatever the host is doing at the time, and
  // with glibc's defaults that cost made identical runs differ by up to
  // 40%; allocation itself is still measured. Peak RSS barely moves.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's ceiling on 64-bit
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  Outcome outcome;
  try {
    if (args.workload == "plan") {
      outcome = perfbench::run_plan(args);
    } else if (args.workload == "serve") {
      outcome = perfbench::run_serve(args);
    } else if (args.workload == "fleet") {
      outcome = perfbench::run_fleet(args);
    } else if (args.workload == "tune") {
      outcome = perfbench::run_tune(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  outcome.e2e["peak_rss_mb"] = peak_rss_mb();

  for (const std::string& violation : outcome.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", violation.c_str());
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  // Host fingerprint: enough to tell whether two results are comparable.
  std::printf(
      "host nproc=%d compiler=\"%s\" build=%s workload=%s seed=%llu "
      "seconds=%g trace=%d\n",
      perfbench::host_threads(), __VERSION__, PERFBENCH_BUILD_TYPE,
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0);
  const std::string metrics =
      metrics_json(specs, args.trace ? outcome.layer : outcome.e2e);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
