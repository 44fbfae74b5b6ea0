#include "loadgen_cli.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "io/serve_cli.hpp"
#include "obs/obs.hpp"
#include "support/parallel.hpp"

namespace lamb::tools {

namespace {

using Args = io::CliArgs;
using fleet::LoadgenConfig;
using fleet::LoadgenResult;

[[noreturn]] void usage(const LoadgenTool& tool, const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s run [options]\n"
               "\n"
               "options (defaults in parens):\n"
               "%s"
               "  --seed S          master seed (20020416)\n"
               "  --staleness-cap C stale-epoch serving limit, ticks (8)\n"
               "  --queue-depth D   bounded per-shard queue depth (64)\n"
               "  --period P        client ticks between requests (4)\n"
               "  --max-attempts A  client submissions per request (6)\n"
               "  --deadline D      per-request deadline, ticks; -1 none (-1)\n"
               "  --json PATH       write the BENCH_%s.json document\n"
               "  --serve SPEC      serve /metrics, /healthz, /slo over\n"
               "                    HTTP while the run executes\n"
               "  --threads T       solver threads; digest is identical\n"
               "                    at any value\n",
               tool.name, tool.usage,
               tool.defaults.chaos ? "fleet" : "serve");
  std::exit(2);
}

// The options both tools take.
void configure_shared(const Args& args, LoadgenConfig* config) {
  config->mesh = args.get("mesh", config->mesh);
  config->clients = args.get_long("clients", config->clients);
  config->ticks = args.get_long("ticks", config->ticks);
  config->seed = static_cast<std::uint64_t>(
      args.get_long("seed", static_cast<long>(config->seed)));
  config->initial_node_faults =
      args.get_long("initial-faults", config->initial_node_faults);
  config->storm_node_kills =
      args.get_long("node-kills", config->storm_node_kills);
  config->storm_link_kills =
      args.get_long("link-kills", config->storm_link_kills);
  config->reconfigure_ticks =
      args.get_long("reconfigure-ticks", config->reconfigure_ticks);
  serve::ServiceOptions& service = config->service;
  service.staleness_cap =
      args.get_long("staleness-cap", service.staleness_cap);
  service.admission.refill_per_tick =
      args.get_double("rate", service.admission.refill_per_tick);
  service.admission.max_queue_depth =
      args.get_long("queue-depth", service.admission.max_queue_depth);
  serve::ClientOptions& client = config->client;
  client.issue_period = args.get_long("period", client.issue_period);
  client.max_attempts = args.get_int("max-attempts", client.max_attempts);
  client.deadline_ticks = args.get_long("deadline", client.deadline_ticks);
  client.hedge = args.has("hedge");
}

void print_report(const char* name, const LoadgenConfig& config,
                  const LoadgenResult& result) {
  std::printf("%s: %s, %lld clients, %lld ticks (+%lld cooldown), "
              "%lld storm events, %lld shard events\n",
              name, config.mesh.c_str(), static_cast<long long>(config.clients),
              static_cast<long long>(config.ticks),
              static_cast<long long>(result.cooldown_used),
              static_cast<long long>(result.storm_events),
              static_cast<long long>(result.chaos_events));
  std::printf("outcomes %lld:", static_cast<long long>(result.outcomes));
  for (const fleet::OutcomeCount& count : fleet::kOutcomeCounts) {
    std::printf(" %s %lld", count.key,
                static_cast<long long>(result.*count.field));
  }
  const serve::ServiceStats& s = result.service;
  std::printf(
      "\nresponses: submitted %lld, queued %lld, shed %lld, publishes %lld, "
      "max queue depth %lld, final depth %lld\n",
      static_cast<long long>(s.submitted), static_cast<long long>(s.queued),
      static_cast<long long>(s.shed), static_cast<long long>(s.publishes),
      static_cast<long long>(s.max_queue_depth),
      static_cast<long long>(result.final_queue_depth));
  if (config.chaos) {
    std::printf("fleet of %d shards:", config.chaos->shards);
    for (const fleet::FleetCounter& counter : fleet::kFleetCounters) {
      std::printf(" %s %lld", counter.key,
                  static_cast<long long>(result.fleet.*counter.field));
    }
    std::printf("\n");
  }
  if (result.vend_latency.count > 0) {
    std::printf("vend latency us: p50 %.1f, p95 %.1f, p99 %.1f (n=%lld)\n",
                result.vend_latency.p50 * 1e6, result.vend_latency.p95 * 1e6,
                result.vend_latency.p99 * 1e6,
                static_cast<long long>(result.vend_latency.count));
  }
  std::printf("final epochs:");
  for (const int epoch : result.final_epochs) std::printf(" %d", epoch);
  // Own line, fault_storm's `^digest:` convention: the soak CI lanes
  // grep and sort -u these across LAMBMESH_THREADS values (and, for the
  // fleet, across --recovery reopen/live).
  std::printf("\ndigest: 0x%016" PRIx64 "\n", result.digest);
}

int cmd_run(const Args& args, const LoadgenTool& tool) {
  LoadgenConfig config = tool.defaults;
  configure_shared(args, &config);
  if (const char* error = tool.configure(args, &config)) usage(tool, error);
  if (config.clients < 1) usage(tool, "--clients must be >= 1");
  if (config.ticks < 1) usage(tool, "--ticks must be >= 1");

  const LoadgenResult result = fleet::run_loadgen(config);
  print_report(tool.name, config, result);

  if (args.has("json")) {
    const std::string path = args.get("json");
    if (!fleet::write_loadgen_json(path, config, result)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  if (result.failed_requests > 0) {
    std::printf("FAILED: %lld covered request(s) of a certified epoch "
                "failed to route\n",
                static_cast<long long>(result.failed_requests));
    return 1;
  }
  if (result.final_queue_depth > 0) {
    std::printf("FAILED: %lld request(s) still queued after cooldown\n",
                static_cast<long long>(result.final_queue_depth));
    return 1;
  }
  std::printf("OK\n");
  return 0;
}

}  // namespace

int loadgen_main(int argc, char** argv, const LoadgenTool& tool) {
  Args args;
  try {
    args = Args::parse(argc, argv, {"hedge"});
    std::vector<std::string> known = {
        "mesh", "clients", "ticks", "seed", "initial-faults", "node-kills",
        "link-kills", "reconfigure-ticks", "staleness-cap", "rate",
        "queue-depth", "period", "max-attempts", "deadline", "hedge", "json",
        "serve", "threads"};
    known.insert(known.end(), tool.flags.begin(), tool.flags.end());
    args.require_known(known);
    if (args.has("threads")) {
      par::set_threads(args.get_int("threads", 0));
    }
  } catch (const io::ArgError& e) {
    usage(tool, e.what());
  }
  // Helper first: obs::init's raw --serve scan defers to an already
  // running server, so the one spec resolution lives in io::serve_cli.
  if (!io::start_serve_exposition(args, tool.name)) return 2;
  obs::init(argc, argv);
  try {
    if (args.command() == "run") return cmd_run(args, tool);
    usage(tool, ("unknown command " + args.command()).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

}  // namespace lamb::tools
