// fleet_loadgen — federation replay against the fault-tolerant fleet:
// simulated clients talk to a FleetManager of N manager+service shards
// while per-shard mesh storms run and a chaos schedule kills or hangs
// WHOLE SHARDS mid-traffic. The CI fleet-soak lane diffs the `digest:`
// line across LAMBMESH_THREADS=1/4/16 and --recovery reopen/live (a
// shard recovered from disk must be outcome-identical to one that never
// died; the contract is in src/fleet/loadgen.hpp, exit statuses in
// tools/loadgen_cli.hpp). With --json the run writes the
// BENCH_fleet.json document that tools/check_bench_gates.py asserts on.
//
// Examples:
//   fleet_loadgen run
//   fleet_loadgen run --fleet-shards 4 --shard-kills 3 --recovery live
//   fleet_loadgen run --hedge --json BENCH_fleet.json
#include <string>

#include "loadgen_cli.hpp"

using namespace lamb;

namespace {

constexpr char kUsage[] =
    "  --mesh WxH..      per-shard geometry (8x8)\n"
    "  --fleet-shards N  manager+service shards (3)\n"
    "  --clients N       simulated concurrent clients (96)\n"
    "  --ticks T         issue + chaos horizon, ticks (400)\n"
    "  --initial-faults F  static faults per shard (2)\n"
    "  --node-kills K    mesh storm node kills per shard (4)\n"
    "  --link-kills L    mesh storm link kills per shard (1)\n"
    "  --shard-kills K   whole-shard kills over the horizon (2)\n"
    "  --shard-hangs H   whole-shard hangs over the horizon (1)\n"
    "  --downtime-min T  min shard downtime, ticks (12)\n"
    "  --downtime-max T  max shard downtime, ticks (24)\n"
    "  --recovery MODE   reopen (restart via the StateDir) or\n"
    "                    live (parked object; the reference\n"
    "                    arm reopen must match) (reopen)\n"
    "  --state-root DIR  durable state root (fleet-state)\n"
    "  --reconfigure-ticks W  solve+publish slot width (4)\n"
    "  --heartbeat-timeout T  missed-heartbeat quarantine (8)\n"
    "  --cooloff T       min ticks quarantined (16)\n"
    "  --recovering T    RECOVERING -> SERVING delay (8)\n"
    "  --rate R          admission refill per shard-tick (16)\n"
    "  --hedge           hedge first sheds through the fleet's\n"
    "                    health view\n";

const char* configure(const io::CliArgs& args, fleet::LoadgenConfig* config) {
  fleet::ShardChaos& chaos = *config->chaos;
  chaos.shards = args.get_int("fleet-shards", chaos.shards);
  chaos.shard_kills = args.get_long("shard-kills", chaos.shard_kills);
  chaos.shard_hangs = args.get_long("shard-hangs", chaos.shard_hangs);
  chaos.min_downtime = args.get_long("downtime-min", chaos.min_downtime);
  chaos.max_downtime = args.get_long("downtime-max", chaos.max_downtime);
  const std::string mode = args.get("recovery", "reopen");
  if (mode == "reopen") {
    chaos.recovery = fleet::RecoveryMode::kReopen;
  } else if (mode == "live") {
    chaos.recovery = fleet::RecoveryMode::kLive;
  } else {
    return "--recovery must be reopen or live";
  }
  chaos.state_root = args.get("state-root", "fleet-state");
  chaos.heartbeat_timeout =
      args.get_long("heartbeat-timeout", chaos.heartbeat_timeout);
  chaos.quarantine_cooloff =
      args.get_long("cooloff", chaos.quarantine_cooloff);
  chaos.recovering_ticks =
      args.get_long("recovering", chaos.recovering_ticks);
  if (chaos.shards < 2) return "--fleet-shards must be >= 2";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::loadgen_main(
      argc, argv,
      {"fleet_loadgen", kUsage, fleet::fleet_loadgen_defaults(),
       {"fleet-shards", "shard-kills", "shard-hangs", "downtime-min",
        "downtime-max", "recovery", "state-root", "heartbeat-timeout",
        "cooloff", "recovering"},
       configure});
}
