// Serving-layer microbenchmark: the route_loadgen scenario (storm +
// reconfigurations under thousands of virtual clients) run end to end at
// solver thread counts 1 and 4, holding two claims to numbers: the
// request-outcome digest is bit-identical at any pool width (the
// determinism gate), and every covered pair of a certified epoch vends a
// route (failed_requests == 0) with the queues fully drained. The
// single-threaded pass's vend-latency quantiles and throughput are the
// reported rows. A third row prices the vend layer alone: route_p50_ns is
// the median RouteTable::route call over a fixed replay of survivor pairs
// against a warm table of the scenario's first epoch, gated with a max.
// A fourth prices the cold vend: cold_route_us is the median of a fresh
// RouteCache (flood-mask build included) plus one build() over fixed
// endpoint pairs of M3(32) at 3% node faults, also gated with a max.
// With --json PATH the results are written as a JSON
// document (BENCH_micro_serve.json in CI).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fleet/loadgen.hpp"
#include "io/cli_args.hpp"
#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "obs/obs.hpp"
#include "serve/route_table.hpp"
#include "support/machine_info.hpp"
#include "support/parallel.hpp"
#include "support/samples.hpp"
#include "support/stats.hpp"
#include "wormhole/route_cache.hpp"

using namespace lamb;

namespace {

struct Row {
  int threads = 0;
  double seconds = 0.0;  // whole-scenario wall time
  fleet::LoadgenResult result;
};

// Upper bound on route_p50_ns. On a 4-core x86 VM the reservoir scan
// over the whole flood intersection measured 3.2-3.7 us on this row, the
// bounding-box chooser 0.4-0.6 us.
constexpr double kRouteP50MaxNs = 1600.0;

// Upper bound on cold_route_us. On a 4-core x86 VM the per-line floods
// measured 650-880 us on this row, the word-parallel flood kernel
// 33-51 us.
constexpr double kColdRouteMaxUs = 250.0;

// Median wall time of one RouteTable::route call, in ns. The table is the
// loadgen scenario's first epoch (same mesh, seed and initial faults);
// the replay is a fixed list of survivor pairs, routed once to warm every
// endpoint's floods and then timed call by call over several passes.
double route_p50_ns(const fleet::LoadgenConfig& config) {
  const MeshShape shape = io::parse_geometry(config.mesh);
  Rng rng(config.seed);
  manager::MachineManager manager(shape);
  const FaultSet initial =
      FaultSet::random_nodes(shape, config.initial_node_faults, rng);
  for (const NodeId id : initial.node_faults()) {
    manager.report_node_fault(id);
  }
  manager.reconfigure();
  const auto table = serve::RouteTable::capture(manager, /*published_tick=*/0);

  const std::vector<NodeId>& survivors = table->survivors();
  const auto pick = [&] {
    return survivors[rng.below(static_cast<std::uint64_t>(survivors.size()))];
  };
  std::vector<std::pair<NodeId, NodeId>> replay;
  while (replay.size() < 4096) {
    const NodeId src = pick();
    const NodeId dst = pick();
    if (src != dst) replay.emplace_back(src, dst);
  }
  for (std::size_t i = 0; i < replay.size(); ++i) {
    Rng tie(i);
    table->route(replay[i].first, replay[i].second, tie);
  }
  Samples ns;
  for (int pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < replay.size(); ++i) {
      Rng tie(i);
      Stopwatch watch;
      const auto route = table->route(replay[i].first, replay[i].second, tie);
      ns.add(watch.seconds() * 1e9);
    }
  }
  return ns.median();
}

// Median wall time of one cold vend, in us: a fresh RouteCache (which
// builds the flood masks) plus one build(), so both endpoint floods run.
// The instance is M3(32) with 983 seeded node faults and 13 link faults
// (every third one directed) under ascending 2-round orders; the pairs
// are 256 fixed pairs of distinct good nodes.
double cold_route_us() {
  const MeshShape shape = MeshShape::cube(3, 32);
  Rng rng(2026);
  FaultSet faults = FaultSet::random_nodes(shape, 983, rng);
  const auto random_node = [&] {
    return static_cast<NodeId>(
        rng.below(static_cast<std::uint64_t>(shape.size())));
  };
  for (int added = 0; added < 13;) {
    const Point from = shape.point(random_node());
    const int dim = static_cast<int>(rng.below(3));
    const Dir dir = rng.bernoulli(0.5) ? Dir::Pos : Dir::Neg;
    Point to;
    if (!shape.neighbor(from, dim, dir, &to)) continue;
    if (added % 3 == 2) {
      faults.add_directed_link(from, dim, dir);
    } else {
      faults.add_link(from, dim, dir);
    }
    ++added;
  }
  const MultiRoundOrder orders = ascending_rounds(3, 2);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  while (pairs.size() < 256) {
    const NodeId src = random_node();
    const NodeId dst = random_node();
    if (src != dst && faults.node_good(src) && faults.node_good(dst)) {
      pairs.emplace_back(src, dst);
    }
  }
  Samples us;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    Rng tie(i);
    Stopwatch watch;
    wormhole::RouteCache cache(shape, faults, orders);
    const auto route = cache.build(pairs[i].first, pairs[i].second, tie);
    us.add(watch.seconds() * 1e6);
  }
  return us.median();
}

void write_json(const std::string& path, const fleet::LoadgenConfig& config,
                const std::vector<Row>& rows, bool digest_stable,
                double route_p50, double cold_route) {
  const fleet::LoadgenResult& base = rows.front().result;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"micro_serve\",\n"
      << support::machine_info_json() << "  \"workload\": \"" << config.mesh
      << ", " << config.clients << " clients, " << config.ticks
      << " issue ticks, " << config.initial_node_faults << "+"
      << config.storm_node_kills << "n/" << config.storm_link_kills
      << "l faults, reconfigure window " << config.reconfigure_ticks
      << "\",\n"
      << "  \"digest_stable\": " << (digest_stable ? 1 : 0) << ",\n"
      << "  \"failed_requests\": " << base.failed_requests << ",\n"
      << "  \"final_queue_depth\": " << base.final_queue_depth << ",\n"
      << "  \"outcomes\": " << base.outcomes << ",\n"
      << "  \"served\": "
      << base.served_fresh + base.served_stale + base.served_fallback
      << ",\n"
      << "  \"vend_p99_us\": " << base.vend_latency.p99 * 1e6 << ",\n"
      << "  \"route_p50_ns\": " << route_p50 << ",\n"
      << "  \"cold_route_us\": " << cold_route << ",\n"
      << "  \"gates\": [\n"
      << "    {\"metric\": \"digest_stable\", \"equals\": 1},\n"
      << "    {\"metric\": \"failed_requests\", \"equals\": 0},\n"
      << "    {\"metric\": \"final_queue_depth\", \"equals\": 0},\n"
      << "    {\"metric\": \"route_p50_ns\", \"max\": " << kRouteP50MaxNs
      << "},\n"
      << "    {\"metric\": \"cold_route_us\", \"max\": " << kColdRouteMaxUs
      << "}\n"
      << "  ],\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016" PRIx64,
                  row.result.digest);
    out << "    {\"threads\": " << row.threads
        << ", \"seconds\": " << row.seconds << ", \"outcomes\": "
        << row.result.outcomes << ", \"reconfigures\": "
        << row.result.reconfigures << ", \"digest\": \"" << digest << "\"}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  obs::init(argc, argv);
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  }

  fleet::LoadgenConfig config;
  config.clients = 256;
  config.ticks = 160;
  // Tight admission so the shed/backoff/hedge paths are exercised, not
  // just the fresh-route fast path.
  config.service.admission.refill_per_tick = 12.0;
  config.service.admission.bucket_capacity = 24.0;
  config.service.admission.max_queue_depth = 32;
  config.client.hedge = true;

  std::printf("micro_serve: %s, %lld clients, %lld issue ticks\n\n",
              config.mesh.c_str(), static_cast<long long>(config.clients),
              static_cast<long long>(config.ticks));

  std::vector<Row> rows;
  for (const int threads : {1, 4}) {
    par::set_threads(threads);
    Row row;
    row.threads = threads;
    Stopwatch watch;
    row.result = fleet::run_loadgen(config);
    row.seconds = watch.seconds();
    std::printf(
        "  threads=%d  %7.3f s  %6lld outcomes  %2lld reconfigures  "
        "digest 0x%016" PRIx64 "\n",
        threads, row.seconds, static_cast<long long>(row.result.outcomes),
        static_cast<long long>(row.result.reconfigures), row.result.digest);
    rows.push_back(std::move(row));
  }
  par::set_threads(0);

  const fleet::LoadgenResult& base = rows.front().result;
  bool digest_stable = true;
  for (const Row& row : rows) {
    if (row.result.digest != base.digest) digest_stable = false;
  }
  std::printf(
      "\n  served %lld/%lld (fresh %lld, stale %lld, fallback %lld), "
      "vend p99 %.1f us\n",
      static_cast<long long>(base.served_fresh + base.served_stale +
                             base.served_fallback),
      static_cast<long long>(base.outcomes),
      static_cast<long long>(base.served_fresh),
      static_cast<long long>(base.served_stale),
      static_cast<long long>(base.served_fallback),
      base.vend_latency.p99 * 1e6);
  std::printf("  digest across thread counts: %s\n",
              digest_stable ? "bit-identical" : "MISMATCH");
  const double route_p50 = route_p50_ns(config);
  std::printf("  warm RouteTable::route p50 %.0f ns (gate <= %.0f)\n",
              route_p50, kRouteP50MaxNs);
  const double cold_route = cold_route_us();
  std::printf("  cold vend (fresh RouteCache + build) p50 %.1f us (gate <= %.0f)\n",
              cold_route, kColdRouteMaxUs);

  if (!json_path.empty()) {
    write_json(json_path, config, rows, digest_stable, route_p50, cold_route);
  }
  if (!digest_stable) return 1;
  if (base.failed_requests > 0 || base.final_queue_depth > 0) return 1;
  return 0;
}
