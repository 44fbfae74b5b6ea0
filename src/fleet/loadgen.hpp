// The seeded load-generation scenario behind tools/route_loadgen,
// tools/fleet_loadgen, bench/micro_serve and bench/micro_fleet: one
// client tick loop over a serve::Backend.
//
// Without shard chaos the backend is one RouteService over one
// MachineManager, and the driver opens and publishes epochs itself: a
// mesh fault storm strikes the manager, the serving window opens at
// once, and the new epoch publishes `reconfigure_ticks` later. With
// shard chaos the backend is a FleetManager of N manager+service shards:
// each shard draws its own mesh fault storm, and a FleetStorm kills or
// hangs WHOLE SHARDS mid-traffic.
//
// Determinism. Everything runs in virtual time, and per tick the clients
// step in id order, so the terminal outcome stream is a pure function of
// the config: thousands of concurrent clients with zero threads. The FNV
// digest over that stream is the CI determinism anchor. It is bit-
// identical at any LAMBMESH_THREADS (the pool only runs inside the
// solver, which is bit-identical at any width) and, with shard chaos,
// across RecoveryMode::kReopen vs kLive (the restart-transparency
// anchor). Wall-clock vend latencies are summarized beside the digest,
// never folded into it.
//
// What the digest folds, in order:
//   1. per outcome: client, seq, status, attempts, epoch, route length,
//      latency in ticks;
//   2. the totals: outcomes, submitted, shed, queued — so a dropped-
//      versus-shed misclassification cannot cancel out across the stream;
//   3. with shard chaos only, every FleetStats counter but `reopens` — a
//      misrouted failover or a phantom quarantine must break the digest
//      even if the outcome stream coincides. `reopens` stays out: it
//      counts MachineManager::open calls, which only the kReopen arm
//      makes, so it is the one counter the two arms legitimately
//      disagree on;
//   4. the final epoch of every shard (the one manager without chaos).
//
// Seeds. Each scenario keeps its own draw order from the master rng.
// Without chaos: the initial faults and the storm are drawn from the
// master rng itself, then client i is seeded with child_seed(i). With
// chaos: child_seed(0) seeds the fleet's initial faults, child_seed(1)
// the FleetStorm, child_seed(2 + s) shard s's mesh storm, and
// child_seed(1000 + i) client i.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "serve/client.hpp"
#include "support/quantiles.hpp"

namespace lamb::fleet {

// The shard-chaos part of a loadgen config: the fleet's shape, its
// whole-shard kills and hangs, and the health-plane timings. Defaults
// match FleetOptions'.
struct ShardChaos {
  int shards = 3;
  std::int64_t shard_kills = 2;
  std::int64_t shard_hangs = 1;
  std::int64_t min_downtime = 12;
  std::int64_t max_downtime = 24;
  RecoveryMode recovery = RecoveryMode::kReopen;
  std::string state_root;  // required: per-shard StateDirs live under it
  std::int64_t heartbeat_timeout = 8;
  std::int64_t quarantine_cooloff = 16;
  std::int64_t recovering_ticks = 8;
};

struct LoadgenConfig {
  std::string mesh = "16x16";  // per shard, with shard chaos
  std::int64_t clients = 512;
  std::int64_t ticks = 240;          // issue + storm (+ chaos) horizon
  std::int64_t max_cooldown = 1024;  // extra drain ticks after the horizon
  std::uint64_t seed = 20020416;
  // Mesh faults, per shard with shard chaos.
  std::int64_t initial_node_faults = 4;
  std::int64_t storm_node_kills = 6;
  std::int64_t storm_link_kills = 2;
  std::int64_t reconfigure_ticks = 4;  // window width: begin -> publish
  serve::ServiceOptions service;       // every shard's, with shard chaos
  serve::ClientOptions client;
  std::optional<ShardChaos> chaos;  // set: the backend is a FleetManager
};

// The fleet scenario's defaults: three 8x8 shards, a lighter storm per
// shard, fewer clients over a longer horizon, and shard chaos engaged.
// The caller still sets chaos->state_root.
LoadgenConfig fleet_loadgen_defaults();

struct LoadgenResult {
  // Terminal client outcomes, by status.
  std::int64_t outcomes = 0;
  std::int64_t served_fresh = 0;
  std::int64_t served_stale = 0;
  std::int64_t served_fallback = 0;
  std::int64_t gave_up_overloaded = 0;  // shed on every allowed attempt
  std::int64_t gave_up_rejected = 0;
  std::int64_t unroutable = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t errors = 0;
  // Response-level counters (retries count each submission), summed
  // over shards and over retired generations of killed shards.
  serve::ServiceStats service;
  FleetStats fleet;  // all zero without shard chaos
  std::int64_t storm_events = 0;  // mesh fault events, all shards
  std::int64_t chaos_events = 0;  // shard kill/hang events
  std::int64_t reconfigures = 0;  // no chaos: epochs published after the first
  std::int64_t cooldown_used = 0;
  std::int64_t final_queue_depth = 0;  // 0 = queues fully drained
  // Guarantee violations: covered pairs of a certified epoch that failed
  // to route (ServeStatus::kError) anywhere. The headline zero, even
  // under shard chaos.
  std::int64_t failed_requests = 0;
  std::uint64_t digest = 0;
  std::vector<int> final_epochs;  // per shard; one entry without chaos
  std::int64_t survivors = 0;     // no chaos: the final table's survivors
  support::QuantileSummary vend_latency;  // seconds, served vends only
};

// The outcome counts by BENCH key, indexed by serve::ServeStatus.
struct OutcomeCount {
  const char* key;
  std::int64_t LoadgenResult::*field;
};
inline constexpr OutcomeCount kOutcomeCounts[] = {
    {"served_fresh", &LoadgenResult::served_fresh},
    {"served_stale", &LoadgenResult::served_stale},
    {"served_fallback", &LoadgenResult::served_fallback},
    {"gave_up_overloaded", &LoadgenResult::gave_up_overloaded},
    {"gave_up_rejected", &LoadgenResult::gave_up_rejected},
    {"unroutable", &LoadgenResult::unroutable},
    {"deadline_exceeded", &LoadgenResult::deadline_exceeded},
    {"errors", &LoadgenResult::errors},
};

// The FleetStats counters by BENCH_fleet.json key, in digest order.
struct FleetCounter {
  const char* key;
  std::int64_t FleetStats::*field;
};
inline constexpr FleetCounter kFleetCounters[] = {
    {"fleet_routed", &FleetStats::routed},
    {"failovers", &FleetStats::failovers},
    {"hedges_redirected", &FleetStats::hedges_redirected},
    {"no_healthy_shard", &FleetStats::no_healthy_shard},
    {"evicted", &FleetStats::evicted},
    {"kills", &FleetStats::kills},
    {"hangs", &FleetStats::hangs},
    {"restarts", &FleetStats::restarts},
    {"reopens", &FleetStats::reopens},
    {"quarantines", &FleetStats::quarantines},
    {"heartbeat_timeouts", &FleetStats::heartbeat_timeouts},
    {"burn_quarantines", &FleetStats::burn_quarantines},
    {"degrades", &FleetStats::degrades},
    {"readmissions", &FleetStats::readmissions},
    {"windows_granted", &FleetStats::windows_granted},
    {"window_waits", &FleetStats::window_waits},
};

LoadgenResult run_loadgen(const LoadgenConfig& config);

// Writes the BENCH_serve.json document (no shard chaos) or the
// BENCH_fleet.json document (shard chaos): config echo, outcome and
// response counts, fleet counters, vend-latency quantiles, the SLO
// snapshot, machine info, and the gates array tools/check_bench_gates.py
// asserts on (failed_requests == 0, final_queue_depth == 0, and the
// route_vend_latency or fleet_availability burn <= 1). Returns false
// when the file cannot be opened.
bool write_loadgen_json(const std::string& path, const LoadgenConfig& config,
                        const LoadgenResult& result);

}  // namespace lamb::fleet
