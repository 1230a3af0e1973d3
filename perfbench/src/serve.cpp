// `serve`: `predict` and `optimize` requests against an in-process
// svc::JobServer with the default service and server configuration (2
// workers), driven by the benchmark's own single-threaded generator over one
// connection. A fixed share of the requests names a design no earlier
// request named (cold: generation, synthesis, feature graph, GCN forward);
// the rest repeat a hot set warmed during set-up (prediction-cache hits).
//
// The timed region is a closed loop: each request is due when the reply to
// the one before it arrives, and is sent then, so its latency is its round
// trip. An open loop of sub-millisecond requests on a small shared VM
// measures the host's preemptions more than the server: every request due
// during a stall waits for it. The traced run adds an open-loop window at a
// light Poisson rate, timed from each request's due time.
#include <poll.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "nl/cell_library.hpp"
#include "nl/star_graph.hpp"
#include "obs/trace.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "synth/engine.hpp"
#include "workloads/generators.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

namespace ec = edacloud;

constexpr const char* kJobs[] = {"synthesis", "placement", "routing", "sta"};
constexpr double kDeadlines[] = {600.0, 1800.0, 3600.0, 7200.0};
constexpr double kHotOptimizeShare = 0.25;
// One request in every kColdEvery is cold (2%), at a seeded slot of its
// block, so p99 falls in the middle of the cold requests' latencies.
constexpr std::size_t kColdEvery = 50;
// The traced run's open-loop window: hot requests at a light rate.
constexpr double kLightRate = 1000.0;
constexpr std::size_t kLightRequests = 3000;
// Requests repeated with the span tracer on.
constexpr std::size_t kTracedRequests = 5000;

struct DesignRef {
  std::string family;
  int size = 0;
};

// Small designs whose predictions stay hot in the cache.
const std::vector<DesignRef>& hot_designs() {
  static const std::vector<DesignRef> designs = {
      {"adder", 16},   {"adder", 32},   {"multiplier", 8}, {"shifter", 4},
      {"alu", 8},      {"max", 8},      {"comparator", 16}, {"parity", 32},
      {"voter", 15},   {"decoder", 5},  {"encoder", 16},   {"arbiter", 16},
      {"cavlc", 8},    {"i2c", 8},      {"crossbar", 4},   {"dynamic_node", 3},
  };
  return designs;
}

/// The cold designs: one fixed set of 431 that every run visits in full,
/// each seed in its own order, so every run does the same cold work and
/// reaches the same cache and memory footprint.
const std::vector<DesignRef>& cold_designs() {
  struct Range {
    const char* family;
    int lo;
    int hi;
  };
  static const std::vector<DesignRef> designs = [] {
    constexpr Range kRanges[] = {
        {"adder", 33, 96},   {"comparator", 17, 96}, {"encoder", 17, 96},
        {"arbiter", 17, 80}, {"voter", 17, 63},      {"i2c", 9, 40},
        {"max", 9, 40},      {"alu", 9, 40},
    };
    std::vector<DesignRef> out;
    for (const Range& range : kRanges) {
      for (int size = range.lo; size <= range.hi; ++size) {
        out.push_back({range.family, size});
      }
    }
    return out;
  }();
  return designs;
}

struct Request {
  std::uint64_t id = 0;
  bool cold = false;
  const DesignRef* design = nullptr;
  const char* job = nullptr;  // predict; null for optimize
  double deadline = 0.0;      // optimize
  double latency_ms = std::numeric_limits<double>::infinity();
  std::string reply;
};

std::string predict_payload(std::uint64_t id, const DesignRef& d,
                            const char* job) {
  return "{\"type\":\"predict\",\"id\":" + std::to_string(id) +
         ",\"family\":\"" + d.family + "\",\"size\":" + std::to_string(d.size) +
         ",\"job\":\"" + job + "\"}";
}

std::string optimize_payload(std::uint64_t id, const DesignRef& d,
                             double deadline) {
  return "{\"type\":\"optimize\",\"id\":" + std::to_string(id) +
         ",\"family\":\"" + d.family + "\",\"size\":" + std::to_string(d.size) +
         ",\"deadline_s\":" + exact(deadline) + "}";
}

std::string payload_of(const Request& req, std::uint64_t id) {
  if (req.job != nullptr) return predict_payload(id, *req.design, req.job);
  return optimize_payload(id, *req.design, req.deadline);
}

/// The request stream, a pure function of the seed. Cold requests are
/// `optimize`, which needs all four predictions of the new design; hot
/// requests are a predict/optimize mix over the hot set.
class Stream {
 public:
  explicit Stream(std::uint64_t seed)
      : rng_(seed * 0xA0761D6478BD642FULL + 3), cold_(cold_designs().size()) {
    for (std::size_t i = 0; i < cold_.size(); ++i) cold_[i] = i;
    shuffle(cold_, rng_);
  }

  /// The next request; false once the cold designs are used up, which
  /// ends the stream.
  bool next(Request& req, bool hot_only = false) {
    if (!hot_only && next_id_ % kColdEvery == 1) {
      cold_slot_ = splitmix64(rng_) % kColdEvery;
    }
    req = Request{};
    req.id = next_id_++;
    req.cold = !hot_only && (req.id - 1) % kColdEvery == cold_slot_;
    if (req.cold) {
      if (next_cold_ == cold_.size()) return false;
      req.design = &cold_designs()[cold_[next_cold_++]];
    } else {
      req.design = &hot_designs()[splitmix64(rng_) % hot_designs().size()];
    }
    if (req.cold || uniform01(rng_) < kHotOptimizeShare) {
      req.deadline = kDeadlines[splitmix64(rng_) % std::size(kDeadlines)];
    } else {
      req.job = kJobs[splitmix64(rng_) % std::size(kJobs)];
    }
    return true;
  }

 private:
  std::uint64_t rng_;
  std::vector<std::size_t> cold_;  // visiting order of cold_designs()
  std::size_t next_cold_ = 0;
  std::size_t cold_slot_ = 0;
  std::uint64_t next_id_ = 1;
};

/// Warm the hot set: every hot design through every request kind once.
void warm(ec::svc::Service& service) {
  for (const DesignRef& d : hot_designs()) {
    for (const char* job : kJobs) {
      (void)service.handle_payload(predict_payload(0, d, job));
    }
    for (const double deadline : kDeadlines) {
      (void)service.handle_payload(optimize_payload(0, d, deadline));
    }
  }
}

std::unique_ptr<ec::svc::Service> set_up_service(std::size_t cache_capacity) {
  ec::svc::ServiceConfig config;
  config.predict_cache_capacity = cache_capacity;
  auto service = std::make_unique<ec::svc::Service>(config);
  service->initialize();
  warm(*service);
  return service;
}

/// True when the reply is {"id":<id>,"ok":true...
bool ok_reply(const std::string& reply, std::uint64_t id) {
  return reply.rfind("{\"id\":" + std::to_string(id) + ",\"ok\":true", 0) == 0;
}

/// The reference service's reply to `req`. Replies depend on the request's
/// content and echo its id, so each distinct content is asked once (as id
/// 0) and the id is put back.
std::string expected_reply(ec::svc::Service& reference, const Request& req,
                           std::map<std::string, std::string>& replies) {
  const std::string payload = payload_of(req, 0);
  auto it = replies.find(payload);
  if (it == replies.end()) {
    it = replies.emplace(payload, reference.handle_payload(payload)).first;
  }
  const std::string prefix = "{\"id\":0,";
  if (it->second.compare(0, prefix.size(), prefix) != 0) return it->second;
  return "{\"id\":" + std::to_string(req.id) + "," +
         it->second.substr(prefix.size());
}

/// Closed loop over one connection until the stream ends or `seconds`
/// pass. Returns the requests in send order.
std::vector<Request> closed_loop(
    ec::svc::Client& client, Stream& stream, double seconds,
    std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  std::vector<Request> sent;
  const auto start = Clock::now();
  Request req;
  while (sent.size() < limit && seconds_since(start) < seconds &&
         stream.next(req)) {
    const std::string payload = payload_of(req, req.id);
    const auto t0 = Clock::now();
    if (!client.roundtrip(payload, &req.reply)) {
      throw std::runtime_error("the connection to the server broke");
    }
    if (ok_reply(req.reply, req.id)) req.latency_ms = 1e3 * seconds_since(t0);
    sent.push_back(std::move(req));
  }
  return sent;
}

/// Pin the calling thread to one CPU of `allowed`: the one it runs on, or
/// else the first other one. Threads it starts afterwards inherit the pin.
void pin_to_cpu(const cpu_set_t& allowed, bool other) {
  const int current = sched_getcpu();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || (cpu == current) == other) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Open loop over one connection: hot requests sent at Poisson due times
/// (the generator busy-polls, so it is not late by waking up) and replies
/// matched by id. Latency runs from the due time; `late_ms` gets each
/// send's lateness.
std::vector<Request> open_loop(ec::svc::Client& client, Stream& stream,
                               std::uint64_t& rng, std::vector<double>& late_ms) {
  std::vector<Request> reqs(kLightRequests);
  std::vector<double> due_s(kLightRequests);
  double t = 0.0;
  for (std::size_t i = 0; i < kLightRequests; ++i) {
    (void)stream.next(reqs[i], /*hot_only=*/true);
    t += -std::log(std::max(1e-12, 1.0 - uniform01(rng))) / kLightRate;
    due_s[i] = t;
  }
  const auto base = Clock::now();
  const auto give_up = base + std::chrono::duration<double>(t + 10.0);
  const auto at = [&](double s) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
  };
  std::size_t next = 0;
  std::size_t answered = 0;
  std::vector<std::string> frames;
  while (answered < reqs.size() && Clock::now() < give_up) {
    while (next < reqs.size() && at(due_s[next]) <= Clock::now()) {
      late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    at(due_s[next]))
              .count());
      if (!client.send(payload_of(reqs[next], reqs[next].id))) {
        throw std::runtime_error("the connection to the server broke");
      }
      ++next;
    }
    pollfd fd{client.fd(), POLLIN, 0};
    if (poll(&fd, 1, 0) <= 0) continue;
    frames.clear();
    if (!client.drain(&frames)) {
      throw std::runtime_error("the connection to the server broke");
    }
    const auto got = Clock::now();
    for (std::string& frame : frames) {
      unsigned long long id = 0;
      if (std::sscanf(frame.c_str(), "{\"id\":%llu", &id) != 1 ||
          id < reqs.front().id || id > reqs.back().id) {
        continue;
      }
      const std::size_t i = id - reqs.front().id;
      if (!reqs[i].reply.empty()) continue;
      if (ok_reply(frame, id)) {
        reqs[i].latency_ms =
            std::chrono::duration<double, std::milli>(got - at(due_s[i]))
                .count();
      }
      reqs[i].reply = std::move(frame);
      ++answered;
    }
  }
  return reqs;
}

/// Checks replies against the serial, cache-off, unbatched reference:
/// every request was answered, and every reply is byte-identical to the
/// reference's, or sheds load (a full queue or a missed deadline).
void check_replies(const std::vector<Request>& reqs,
                   ec::svc::Service& reference,
                   std::map<std::string, std::string>& replies,
                   Outcome& outcome) {
  for (const Request& req : reqs) {
    const std::string id = std::to_string(req.id);
    if (req.reply.empty()) {
      outcome.fail("request " + id + " unanswered");
    } else if (req.reply.find("\"error\":\"overloaded\"") !=
                   std::string::npos ||
               req.reply.find("\"error\":\"deadline_exceeded\"") !=
                   std::string::npos) {
      continue;  // shed load: a miss in the latency figures, not an error
    } else if (expected_reply(reference, req, replies) != req.reply) {
      outcome.fail("request " + id + ": reply differs from the reference");
    }
  }
}

std::vector<double> latencies(const std::vector<Request>& reqs,
                              bool hot_only = false) {
  std::vector<double> out;
  for (const Request& req : reqs) {
    if (!hot_only || !req.cold) out.push_back(req.latency_ms);
  }
  return out;
}

/// Train the predictor exactly as Service::initialize does, so the GCN
/// forward pass of a cold design can be timed on its own.
ec::core::RuntimePredictor train_like_service(
    const ec::nl::CellLibrary& library) {
  const ec::svc::ServiceConfig config;
  std::vector<ec::workloads::BenchmarkSpec> specs;
  for (const auto& info : ec::workloads::families()) {
    if (specs.size() >= config.train_designs) break;
    specs.push_back({info.name, info.corpus_sizes.front(), config.design_seed});
  }
  ec::core::DatasetOptions dataset_options;
  dataset_options.max_recipes = config.train_recipes;
  dataset_options.max_netlists = specs.size() * config.train_recipes;
  ec::core::PredictorOptions predictor_options;
  predictor_options.gcn.epochs = config.train_epochs;
  ec::core::RuntimePredictor predictor(predictor_options);
  (void)predictor.train(
      ec::core::DatasetBuilder(library, dataset_options).build(specs));
  return predictor;
}

/// runtime_seconds of a predict reply, as the doubles it encodes.
std::vector<double> reply_runtimes(const std::string& reply) {
  std::vector<double> out;
  const auto parsed = ec::svc::parse_json(reply);
  const auto* payload = parsed.ok ? parsed.value.find("payload") : nullptr;
  const auto* runtimes =
      payload != nullptr ? payload->find("runtime_seconds") : nullptr;
  if (runtimes == nullptr) return out;
  for (std::size_t i = 0; i < runtimes->size(); ++i) {
    out.push_back(runtimes->at(i).as_number());
  }
  return out;
}

/// Per-layer numbers from an in-process replay of the timed stream: handle
/// time per request, and each cold design's synthesis and GCN forward
/// passes driven from outside. Every product is checked against what the
/// program answered.
void replay_layers(const std::vector<Request>& timed,
                   ec::svc::Service& replay, ec::svc::Service& reference,
                   Outcome& outcome) {
  auto& layer = outcome.layer;
  std::vector<double> warm_ms, cold_ms;
  for (const Request& req : timed) {
    const std::string payload = payload_of(req, req.id);
    const auto start = Clock::now();
    const std::string reply = replay.handle_payload(payload);
    (req.cold ? cold_ms : warm_ms).push_back(1e3 * seconds_since(start));
    if (reply != req.reply) {
      outcome.fail("request " + std::to_string(req.id) +
                   ": replayed reply differs from the served one");
    }
  }
  layer["svc.handle_ms.warm"] = median(warm_ms);
  layer["svc.handle_ms.cold"] = median(cold_ms);
  layer["svc.overhead_ms"] = median(latencies(timed, true)) - median(warm_ms);

  const ec::nl::CellLibrary library = ec::nl::make_generic_14nm_library();
  const ec::core::RuntimePredictor predictor = train_like_service(library);
  const ec::synth::SynthesisEngine engine(library);
  const std::uint64_t design_seed = ec::svc::ServiceConfig{}.design_seed;
  std::vector<double> synth_ms, predict_ms;
  for (const Request& req : timed) {
    if (!req.cold) continue;
    const DesignRef& d = *req.design;
    const ec::nl::Aig design =
        ec::workloads::generate({d.family, d.size, design_seed});
    auto start = Clock::now();
    const auto mapped = engine.synthesize(design, ec::synth::default_recipe());
    synth_ms.push_back(1e3 * seconds_since(start));
    const ec::ml::GraphSample aig_sample =
        ec::ml::sample_from_graph(ec::nl::graph_from_aig(design));
    const ec::ml::GraphSample netlist_sample = ec::ml::sample_from_graph(
        ec::nl::graph_from_netlist(mapped.netlist));
    double forward_ms = 0.0;
    for (const ec::core::JobKind job : ec::core::kAllJobs) {
      start = Clock::now();
      const auto runtimes = predictor.predict(
          job, job == ec::core::JobKind::kSynthesis ? aig_sample
                                                     : netlist_sample);
      forward_ms += 1e3 * seconds_since(start);
      // Consistency: the prediction the program answers for this design.
      const std::string reply = reference.handle_payload(
          predict_payload(0, d, kJobs[static_cast<int>(job)]));
      if (reply_runtimes(reply) !=
          std::vector<double>(runtimes.begin(), runtimes.end())) {
        outcome.fail(d.family + "/" + std::to_string(d.size) +
                     ": traced prediction differs from the service's");
      }
    }
    predict_ms.push_back(forward_ms);
  }
  layer["synth.ms.cold"] = median(synth_ms);
  layer["ml.predict_ms.cold"] = median(predict_ms);
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome outcome;
  Stream stream(args.seed);

  // Set-up, three times: the served service, the cache-off reference the
  // replies are checked against, and the in-process replay service. Each
  // trains the predictor and warms the hot set.
  const std::size_t cache = ec::svc::ServiceConfig{}.predict_cache_capacity;
  std::vector<double> setups;
  std::vector<std::unique_ptr<ec::svc::Service>> services;
  for (const std::size_t capacity : {cache, std::size_t{0}, cache}) {
    const auto start = Clock::now();
    services.push_back(set_up_service(capacity));
    setups.push_back(seconds_since(start));
  }
  outcome.e2e["setup_s"] = median(setups);
  ec::svc::Service& served = *services[0];
  ec::svc::Service& reference = *services[1];

  // The generator and the server's threads share one CPU. Only one request
  // is in flight at a time, so the server loses no parallelism, and each
  // hand-off between the generator, the I/O thread and a worker is a switch
  // on that CPU. Spread over the VM's vCPUs, each hand-off instead wakes an
  // idle vCPU, which costs whatever the host is doing: identical runs then
  // fell into a fast and a 2x slower round trip.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  (void)sched_getaffinity(0, sizeof(allowed), &allowed);
  pin_to_cpu(allowed, /*other=*/false);
  ec::svc::JobServer server(served, ec::svc::ServerConfig{});
  std::string error;
  if (!server.listen(&error)) throw std::runtime_error("listen: " + error);
  server.start();
  ec::svc::Client client;
  if (!client.connect("127.0.0.1", server.port(), &error)) {
    server.stop_and_join();
    throw std::runtime_error("connect: " + error);
  }

  const auto cache_before = served.predict_cache()->stats();
  const auto start = Clock::now();
  const std::vector<Request> timed = closed_loop(client, stream, args.seconds);
  const double elapsed = seconds_since(start);
  const auto cache_after = served.predict_cache()->stats();
  outcome.e2e["throughput_per_s"] =
      static_cast<double>(timed.size()) / elapsed;
  outcome.e2e["p50_ms"] = quantile(latencies(timed), 0.5);
  outcome.e2e["p99_ms"] = quantile(latencies(timed), 0.99);

  // Traced run: the first requests again with the program's span tracer
  // on, then the light open-loop window.
  std::vector<Request> light, traced;
  std::vector<double> late_ms;
  if (args.trace) {
    Stream again(args.seed);
    auto& tracer = ec::obs::Tracer::global();
    tracer.enable(ec::obs::ClockMode::kWall);
    traced = closed_loop(client, again, args.seconds,
                         std::min(kTracedRequests, timed.size()));
    tracer.disable();
    tracer.clear();
    // The open loop's generator busy-polls, so it moves to a CPU of its
    // own.
    pin_to_cpu(allowed, /*other=*/true);
    std::uint64_t rng = args.seed * 0x9E3779B97F4A7C15ULL + 17;
    light = open_loop(client, stream, rng, late_ms);
  }
  client.close();
  server.stop_and_join();
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);

  // Checks, outside the timed region.
  std::map<std::string, std::string> replies;
  outcome.attempted = timed.size() + light.size();
  check_replies(timed, reference, replies, outcome);
  check_replies(light, reference, replies, outcome);

  if (args.trace) {
    auto& layer = outcome.layer;
    const auto& stats = server.stats();
    layer["serve.p50_ms.lo"] = quantile(latencies(light), 0.5);
    layer["serve.p99_ms.lo"] = quantile(latencies(light), 0.99);
    layer["loadgen.late_ms"] = quantile(late_ms, 0.99);
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses);
    layer["ml.cache_hit_share"] = lookups > 0 ? hits / lookups : 0.0;
    layer["svc.batched_share"] =
        stats.requests_completed > 0
            ? static_cast<double>(stats.batched_requests) /
                  static_cast<double>(stats.requests_completed)
            : 0.0;
    layer["svc.overload_rejections"] =
        static_cast<double>(stats.overload_rejections);
    layer["svc.deadline_rejections"] =
        static_cast<double>(stats.deadline_rejections);
    // The traced repeat's hot requests against the same requests untraced
    // (its cold ones are warm by now, so they are left out).
    const std::vector<Request> first(timed.begin(),
                                     timed.begin() + traced.size());
    layer["trace.overhead_share"] = median(latencies(traced, true)) /
                                        median(latencies(first, true)) -
                                    1.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (traced[i].reply != timed[i].reply) {
        outcome.fail("request " + std::to_string(traced[i].id) +
                     ": traced reply differs from the timed one");
      }
    }
    replay_layers(timed, *services[2], reference, outcome);
  }
  return outcome;
}

}  // namespace perfbench
