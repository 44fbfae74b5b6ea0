// lmbench: the repo benchmark. Runs one workload for a fixed wall
// budget as a series of identical rounds (same seed, same inputs), checks
// every round's outputs, and prints one JSON line with the end-to-end
// metrics (--trace 0) or the per-layer metrics of traced rounds
// (--trace 1). See lmbench/README.md.
//
//   lmbench --workload serve_2d --seed 1 --seconds 20 --trace 0
//           [--threads N] [--smoke] [--out DIR]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "inputs.hpp"
#include "io/text_format.hpp"
#include "round.hpp"
#include "support/parallel.hpp"
#include "trace.hpp"

namespace lmbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  int threads = 1;  // solver pool width, at most nproc
  bool smoke = false;
  std::string out = ".bench_build/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lmbench: %s\n"
               "usage: lmbench --workload serve_2d|churn_3d|fleet_2d "
               "--seed N --seconds N --trace 0|1 [--threads N] [--smoke] "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--threads") {
      a.threads = std::atoi(v);
    } else if (flag == "--out") {
      a.out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 1) usage("--seconds must be >= 1");
  return a;
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

// p99 of each window of at least 2000 consecutive samples (at most 8
// windows per round), so each window has 20 samples beyond its p99.
void window_p99s(const std::vector<float>& samples, std::vector<double>* out) {
  const std::size_t windows =
      std::clamp<std::size_t>(samples.size() / 2000, 1, 8);
  const std::size_t size = samples.size() / windows;
  for (std::size_t w = 0; w < windows && size > 0; ++w) {
    std::vector<float> window(
        samples.begin() + static_cast<std::ptrdiff_t>(w * size),
        samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * size));
    out->push_back(quantile(&window, 0.99));
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double count(std::int64_t n) { return static_cast<double>(n); }

// What the aggregation keeps of one round; its samples are dropped so
// the process footprint does not grow with the number of rounds.
struct RoundSummary {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double vends_per_s = 0.0;
  double vend_p50_us = 0.0;
  std::vector<double> vend_p99_us;  // per window
  std::vector<double> swap_ms;
  double served_share = 0.0;
  double request_p99_ticks = 0.0;
  std::vector<Metric> layers;  // traced rounds only
};

std::vector<Metric> per_layer(const RoundResult& r);

RoundSummary summarize(RoundResult* r, bool traced) {
  RoundSummary s;
  s.setup_s = r->setup_s;
  s.loop_s = r->loop_s;
  s.vends_per_s = static_cast<double>(r->vends) / r->loop_s;
  s.vend_p50_us = quantile(&r->vend_ns, 0.5) / 1e3;
  window_p99s(r->vend_ns, &s.vend_p99_us);
  for (double& p : s.vend_p99_us) p /= 1e3;
  s.swap_ms = r->swap_ms;
  s.served_share = ratio(r->served, r->requests - r->unroutable);
  s.request_p99_ticks = quantile(&r->request_ticks, 0.99);
  if (traced) s.layers = per_layer(*r);
  return s;
}

std::vector<Metric> end_to_end(const std::vector<RoundSummary>& rounds) {
  std::vector<double> throughput, p50s, p99s, setups, swaps, served, ticks;
  for (const RoundSummary& r : rounds) {
    throughput.push_back(r.vends_per_s);
    p50s.push_back(r.vend_p50_us);
    p99s.insert(p99s.end(), r.vend_p99_us.begin(), r.vend_p99_us.end());
    setups.push_back(r.setup_s);
    swaps.insert(swaps.end(), r.swap_ms.begin(), r.swap_ms.end());
    served.push_back(r.served_share);
    ticks.push_back(r.request_p99_ticks);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"vends_per_s", "1/s", median(throughput)},
      {"vend_p50_us", "us", median(p50s)},
      {"vend_p99_us", "us", median(p99s)},
      {"swap_p50_ms", "ms", quantile(&swaps, 0.5)},
      {"swap_p90_ms", "ms", quantile(&swaps, 0.9)},
      {"served_share", "ratio", median(served)},
      {"request_p99_ticks", "ticks", median(ticks)},
      {"setup_s", "s", median(setups)},
      {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
}

// Per-layer metrics of one traced round. Time metrics cover layers
// every workload runs; layers only some workloads run are reported as
// their share of the loop time (0 where the workload does not run them).
std::vector<Metric> per_layer(const RoundResult& r) {
  const LayerSamples& l = r.layers;
  const double loop_ns = r.loop_s * 1e9;
  auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const double phases =
      sum(l.partition_ms) + sum(l.matrices_ms) + sum(l.cover_ms);
  std::vector<double> reconfigure = l.reconfigure_ms;
  return {
      {"serve.client.step_ns", "ns", ratio(l.step_self_ns, l.step_calls)},
      {"serve.client.retries", "ratio",
       ratio(r.submissions - r.requests, r.requests)},
      {"serve.submit_ns", "ns", median(l.submit_ns)},
      {"serve.vend.fresh_ns", "ns", median(l.fresh_ns)},
      {"serve.vend.stale_ns", "ns", median(l.stale_ns)},
      {"serve.vend.fallback_share", "ratio", ratio(l.fallback_ns, loop_ns)},
      {"serve.admission.shed_share", "ratio", ratio(l.shed_ns, loop_ns)},
      {"serve.admission.queue_share", "ratio", ratio(l.queue_ns, loop_ns)},
      {"serve.admission.useful_ratio", "ratio", ratio(r.vends, r.submissions)},
      {"serve.advance_us", "us", median(l.advance_us)},
      {"serve.report_us", "us", median(l.report_us)},
      {"serve.publish_share", "ratio", ratio(l.publish_ns, loop_ns)},
      {"serve.floods_retained", "count", count(l.floods_retained)},
      {"serve.floods_dropped", "count", count(l.floods_dropped)},
      {"serve.loop_share", "ratio",
       ratio(l.step_self_ns + l.submit_total_ns + l.advance_ns, loop_ns)},
      {"wormhole.route_cold_us", "us", median(l.route_cold_us)},
      {"wormhole.route_warm_us", "us", median(l.route_warm_us)},
      {"manager.reconfigure_p50_ms", "ms", quantile(&reconfigure, 0.5)},
      {"manager.reconfigure_p90_ms", "ms", quantile(&reconfigure, 0.9)},
      {"manager.incremental_share", "ratio",
       ratio(l.incremental_epochs, l.epochs)},
      {"manager.blocks_reused", "count", count(l.blocks_reused)},
      {"manager.swap_share", "ratio", ratio(l.swap_ns, loop_ns)},
      {"core.partition_ms", "ms", median(l.partition_ms)},
      {"core.matrices_ms", "ms", median(l.matrices_ms)},
      {"core.cover_ms", "ms", median(l.cover_ms)},
      {"core.solve_incremental_ms", "ms", median(l.incremental_ms)},
      {"core.matrices_share", "ratio", ratio(sum(l.matrices_ms), phases)},
      {"core.cover_share", "ratio", ratio(sum(l.cover_ms), phases)},
      {"core.replay_epochs", "count", count(l.replay_epochs)},
      {"fleet.boot_share", "ratio", ratio(l.boot_ns, loop_ns)},
      {"fleet.kill_share", "ratio", ratio(l.kill_ns, loop_ns)},
      {"fleet.failovers", "count", count(l.failovers)},
      {"fleet.evicted", "count", count(l.evicted)},
      {"fleet.reopens", "count", count(l.reopens)},
      {"fleet.window_waits", "count", count(l.window_waits)},
  };
}

// Median over traced rounds of each per-layer metric, plus the tracing
// overhead (traced loop time over untraced loop time).
std::vector<Metric> traced_metrics(const std::vector<RoundSummary>& traced,
                                   const std::vector<RoundSummary>& untraced) {
  std::vector<Metric> out = traced.front().layers;
  for (std::size_t m = 0; m < out.size(); ++m) {
    std::vector<double> values;
    for (const RoundSummary& r : traced) values.push_back(r.layers[m].value);
    out[m].value = median(values);
  }
  std::vector<double> traced_s, untraced_s;
  for (const RoundSummary& r : traced) traced_s.push_back(r.loop_s);
  for (const RoundSummary& r : untraced) untraced_s.push_back(r.loop_s);
  out.push_back({"trace.loop_s", "s", median(traced_s)});
  out.push_back({"trace.untraced_loop_s", "s", median(untraced_s)});
  out.push_back({"trace.overhead", "ratio",
                 ratio(median(traced_s), median(untraced_s))});
  return out;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload, args.smoke);
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::clamp(args.threads, 1, hw);
  lamb::par::set_threads(threads);
  const lamb::MeshShape shape = lamb::io::parse_geometry(spec.mesh);
  const Inputs inputs = make_inputs(spec, shape, args.seed);

  RoundConfig config;
  config.spec = spec;
  config.inputs = &inputs;
  if (spec.shards > 0) {
    config.state_dir = args.out + "/state-" + spec.name + "-" +
                       std::to_string(static_cast<long long>(getpid()));
  }
  SpanLog spans;
  config.spans = &spans;

  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + std::int64_t{args.seconds} * 1000000000;
  std::vector<RoundSummary> untraced, traced;
  std::int64_t route_checks = 0;
  std::size_t swaps = 0;
  bool correct = true;
  std::string failure;
  std::int64_t attempted = 0, failed = 0;
  std::uint64_t digest = 0;
  while (true) {
    // Traced mode alternates untraced and traced rounds.
    config.traced = args.trace && untraced.size() > traced.size();
    if (config.traced) spans.clear();
    RoundResult r = run_round(config);
    attempted += r.requests;
    failed += r.failed;
    if (!r.ok && correct) failure = r.failure;
    correct = correct && r.ok;
    const std::size_t done = untraced.size() + traced.size();
    if (done == 0) digest = r.digest;
    if (r.digest != digest) {
      if (correct) failure = "outcome digest differs between rounds";
      correct = false;
      ++failed;
    }
    route_checks += r.route_checks;
    swaps += r.swap_ms.size();
    RoundSummary summary = summarize(&r, config.traced);
    std::fprintf(stderr,
                 "lmbench: round %zu%s setup_s=%.4f loop_s=%.4f vends/s=%.1f "
                 "vend_p50_us=%.3f swaps=%zu\n",
                 done, config.traced ? " (traced)" : "", summary.setup_s,
                 summary.loop_s, summary.vends_per_s, summary.vend_p50_us,
                 summary.swap_ms.size());
    (config.traced ? traced : untraced).push_back(std::move(summary));
    const bool enough = !args.trace || !traced.empty();
    if (enough && (args.smoke || now_ns() >= deadline)) break;
  }
  if (args.trace) {
    const std::string path = args.out + "/trace-" + spec.name + ".json";
    if (!spans.write(path)) {
      std::fprintf(stderr, "lmbench: cannot write %s\n", path.c_str());
    }
  }

  std::printf(
      "lmbench: workload=%s seed=%" PRIu64 " threads=%d nproc=%d rounds=%zu "
      "traced_rounds=%zu digest=0x%016" PRIx64 " route_checks=%" PRId64
      " swaps=%zu wall_s=%.3f compiler=\"%s\" build=%s flags=\"%s\"%s%s\n",
      spec.name.c_str(), args.seed, threads, hw, untraced.size(), traced.size(),
      digest, route_checks, swaps, static_cast<double>(now_ns() - start) / 1e9,
      LMBENCH_COMPILER, LMBENCH_BUILD_TYPE, LMBENCH_CXX_FLAGS,
      correct ? "" : " FAILED: ", failure.c_str());
  print_result(correct, attempted, failed,
               args.trace ? traced_metrics(traced, untraced)
                          : end_to_end(untraced));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lmbench

int main(int argc, char** argv) {
  try {
    return lmbench::run(lmbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lmbench: %s\n", e.what());
    return 2;
  }
}
