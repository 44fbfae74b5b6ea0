// Fleet-layer microbenchmark: the fleet_loadgen scenario (per-shard mesh
// storms plus whole-shard kills/hangs) run end to end, holding three
// claims to numbers: the outcome digest is bit-identical at solver
// thread counts 1 and 4 AND across RecoveryMode reopen/live (restart
// transparency: a shard recovered from its StateDir is outcome-identical
// to one that never died), and the chaos completes with
// failed_requests == 0 and the queues drained. The reopen arm's global
// vend-latency quantiles are the reported rows. With --json PATH the
// results are written as a JSON document (BENCH_micro_fleet.json in CI).
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/loadgen.hpp"
#include "io/cli_args.hpp"
#include "obs/obs.hpp"
#include "support/machine_info.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

using namespace lamb;

namespace {

struct Row {
  int threads = 0;
  const char* mode = "reopen";
  double seconds = 0.0;  // whole-scenario wall time
  fleet::LoadgenResult result;
};

void write_json(const std::string& path, const fleet::LoadgenConfig& config,
                const std::vector<Row>& rows, bool digest_stable) {
  const fleet::LoadgenResult& base = rows.front().result;
  std::ofstream out(path);
  out << "{\n  \"bench\": \"micro_fleet\",\n"
      << support::machine_info_json() << "  \"workload\": \""
      << config.chaos->shards << " x " << config.mesh << " shards, "
      << config.clients << " clients, " << config.ticks << " ticks, "
      << config.chaos->shard_kills << " kills + " << config.chaos->shard_hangs
      << " hangs\",\n"
      << "  \"digest_stable\": " << (digest_stable ? 1 : 0) << ",\n"
      << "  \"failed_requests\": " << base.failed_requests << ",\n"
      << "  \"final_queue_depth\": " << base.final_queue_depth << ",\n"
      << "  \"outcomes\": " << base.outcomes << ",\n"
      << "  \"failovers\": " << base.fleet.failovers << ",\n"
      << "  \"quarantines\": " << base.fleet.quarantines << ",\n"
      << "  \"reopens\": " << base.fleet.reopens << ",\n"
      << "  \"vend_p99_us\": " << base.vend_latency.p99 * 1e6 << ",\n"
      << "  \"gates\": [\n"
      << "    {\"metric\": \"digest_stable\", \"equals\": 1},\n"
      << "    {\"metric\": \"failed_requests\", \"equals\": 0},\n"
      << "    {\"metric\": \"final_queue_depth\", \"equals\": 0}\n"
      << "  ],\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016" PRIx64,
                  row.result.digest);
    out << "    {\"threads\": " << row.threads << ", \"recovery\": \""
        << row.mode << "\", \"seconds\": " << row.seconds
        << ", \"outcomes\": " << row.result.outcomes
        << ", \"kills\": " << row.result.fleet.kills << ", \"digest\": \""
        << digest << "\"}" << (i + 1 < rows.size() ? "," : "") << "\n";
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

  fleet::LoadgenConfig config = fleet::fleet_loadgen_defaults();
  config.chaos->state_root = "micro-fleet-state";
  config.clients = 64;
  config.ticks = 240;
  config.client.hedge = true;

  std::printf("micro_fleet: %d x %s shards, %lld clients, %lld ticks\n\n",
              config.chaos->shards, config.mesh.c_str(),
              static_cast<long long>(config.clients),
              static_cast<long long>(config.ticks));

  std::vector<Row> rows;
  const struct {
    int threads;
    fleet::RecoveryMode mode;
    const char* name;
  } arms[] = {
      {1, fleet::RecoveryMode::kReopen, "reopen"},
      {4, fleet::RecoveryMode::kReopen, "reopen"},
      {1, fleet::RecoveryMode::kLive, "live"},
  };
  for (const auto& arm : arms) {
    par::set_threads(arm.threads);
    config.chaos->recovery = arm.mode;
    Row row;
    row.threads = arm.threads;
    row.mode = arm.name;
    Stopwatch watch;
    row.result = fleet::run_loadgen(config);
    row.seconds = watch.seconds();
    std::printf(
        "  threads=%d %-6s  %7.3f s  %6lld outcomes  %2lld kills  "
        "digest 0x%016" PRIx64 "\n",
        arm.threads, arm.name, row.seconds,
        static_cast<long long>(row.result.outcomes),
        static_cast<long long>(row.result.fleet.kills), row.result.digest);
    rows.push_back(std::move(row));
  }
  par::set_threads(0);

  const fleet::LoadgenResult& base = rows.front().result;
  bool digest_stable = true;
  for (const Row& row : rows) {
    if (row.result.digest != base.digest) digest_stable = false;
  }
  std::printf(
      "\n  served %lld/%lld, failovers %lld, quarantines %lld, "
      "reopens %lld, vend p99 %.1f us\n",
      static_cast<long long>(base.served_fresh + base.served_stale +
                             base.served_fallback),
      static_cast<long long>(base.outcomes),
      static_cast<long long>(base.fleet.failovers),
      static_cast<long long>(base.fleet.quarantines),
      static_cast<long long>(base.fleet.reopens),
      base.vend_latency.p99 * 1e6);
  std::printf("  digest across threads and recovery modes: %s\n",
              digest_stable ? "bit-identical" : "MISMATCH");

  if (!json_path.empty()) {
    write_json(json_path, config, rows, digest_stable);
  }
  if (!digest_stable) return 1;
  if (base.failed_requests > 0 || base.final_queue_depth > 0) return 1;
  return 0;
}
