// Tests for the fleet layer (src/fleet/): the per-shard health state
// machine (SERVING -> DEGRADED -> QUARANTINED -> RECOVERING), ring-order
// failover, hedges that respect the health view, the single fleet-wide
// solve+publish token, shard-level chaos schedules, and the layer's
// headline guarantee — restart transparency: a shard killed mid-storm
// and reopened from its durable StateDir yields an outcome stream
// bit-identical to one that never died, at 1/4/16 solver threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fleet/fleet.hpp"
#include "fleet/fleet_storm.hpp"
#include "fleet/loadgen.hpp"
#include "serve/route_service.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

using fleet::FleetManager;
using fleet::FleetOptions;
using fleet::FleetStorm;
using fleet::RecoveryMode;
using fleet::ShardEvent;
using fleet::ShardHealth;
using serve::RouteRequest;
using serve::RouteResponse;
using serve::ServeStatus;

// Fresh state root per test: the FleetManager ctor wipes per-shard
// subdirectories itself, so reuse across runs inside a test is fine.
std::string state_root(const std::string& name) {
  const std::string dir = testing::TempDir() + "lamb_fleet_" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

// A small, fast fleet with deliberately short health-plane timers so the
// full quarantine -> boot -> readmission arc fits in a few dozen ticks.
FleetOptions small_fleet(const std::string& root) {
  FleetOptions options;
  options.shards = 3;
  options.mesh = "8x8";
  options.initial_node_faults = 0;
  options.seed = 11;
  options.reconfigure_ticks = 2;
  options.heartbeat_timeout = 4;
  options.quarantine_cooloff = 4;
  options.recovering_ticks = 2;
  options.state_root = root;
  return options;
}

RouteRequest request_for(const FleetManager& fleet, std::uint64_t client,
                         std::int64_t now) {
  const auto table = fleet.table_for(client);
  const std::vector<NodeId>& survivors = table->survivors();
  RouteRequest request;
  request.client_id = client;
  request.src = survivors[0];
  request.dst = survivors[9];
  request.submit_tick = now;
  request.rng_seed = 42;
  return request;
}

TEST(FleetStorm, SeededScheduleIsDeterministicAndOneShardDownAtATime) {
  const std::int64_t margin = 30;
  Rng a(7), b(7);
  const FleetStorm s1 =
      FleetStorm::random(3, /*kills=*/3, /*hangs=*/2, /*horizon=*/400,
                         /*min_down=*/10, /*max_down=*/20, margin, a);
  const FleetStorm s2 =
      FleetStorm::random(3, 3, 2, 400, 10, 20, margin, b);
  EXPECT_EQ(s1.events, s2.events);
  ASSERT_EQ(s1.size(), 5);
  std::int64_t kills = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> occupied;
  for (const ShardEvent& event : s1.events) {
    EXPECT_GE(event.shard, 0);
    EXPECT_LT(event.shard, 3);
    EXPECT_GE(event.duration, 10);
    EXPECT_LE(event.duration, 20);
    if (event.kind == ShardEvent::Kind::kKill) ++kills;
    occupied.emplace_back(event.tick, event.tick + event.duration + margin);
  }
  EXPECT_EQ(kills, 3);
  // Occupancy intervals (downtime + recovery margin) are disjoint: the
  // fleet never has two shards down at once, so failover always has a
  // target. Events arrive sorted by tick.
  for (std::size_t i = 1; i < occupied.size(); ++i) {
    EXPECT_LE(occupied[i - 1].first, occupied[i].first);
    EXPECT_LE(occupied[i - 1].second, occupied[i].first)
        << "events " << i - 1 << " and " << i << " overlap";
  }
}

TEST(BurnWindow, DividesByWindowSizeAndSlidesBadEventsOut) {
  fleet::BurnWindow window(4);
  EXPECT_DOUBLE_EQ(window.burn(0.9), 0.0);
  window.record(false);
  // 1 bad over a window of 4 with a 10% budget: 0.25 / 0.1 = 2.5. The
  // three unfilled slots count as good — a young window cannot spike.
  EXPECT_DOUBLE_EQ(window.burn(0.9), 2.5);
  window.record(true);
  window.record(true);
  window.record(true);
  EXPECT_DOUBLE_EQ(window.burn(0.9), 2.5);
  window.record(true);  // the bad event slides out
  EXPECT_DOUBLE_EQ(window.burn(0.9), 0.0);
  window.record(false);
  window.reset();
  EXPECT_DOUBLE_EQ(window.burn(0.9), 0.0);
}

TEST(FleetManager, KillQuarantinesAndFailsOverInRingOrder) {
  FleetManager fleet(small_fleet(state_root("failover")), /*now=*/0);
  ASSERT_EQ(fleet.shard_count(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fleet.health(i), ShardHealth::kServing);
    EXPECT_EQ(fleet.serving_shard(static_cast<std::uint64_t>(i)), i);
  }

  fleet.kill_shard(1, /*now=*/1, /*downtime=*/4);
  EXPECT_EQ(fleet.health(1), ShardHealth::kQuarantined);
  EXPECT_EQ(fleet.shard_manager(1), nullptr);  // kReopen: process is gone
  // Client 1's primary is shard 1; ring order sends it to shard 2.
  EXPECT_EQ(fleet.serving_shard(1), 2);
  EXPECT_EQ(fleet.serving_shard(0), 0);

  const auto response = fleet.submit(request_for(fleet, 1, 1), 1);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, ServeStatus::kFresh);
  EXPECT_EQ(fleet.stats().failovers, 1);
  EXPECT_EQ(fleet.stats().kills, 1);
  EXPECT_EQ(fleet.stats().quarantines, 1);
}

// The full recovery arc, in both modes: a killed shard restarts, waits
// out its cooloff, takes a solve+publish slot to boot, re-proves itself
// RECOVERING, and is readmitted. A report filed while it was dead is
// backlogged and applied before its first publish. kReopen recovers
// through MachineManager::open on the StateDir (reopens == 1); kLive
// parks the live object (reopens == 0); the arc is otherwise identical.
TEST(FleetManager, KilledShardRecoversThroughItsStateDir) {
  for (const RecoveryMode mode : {RecoveryMode::kReopen, RecoveryMode::kLive}) {
    const bool reopen = mode == RecoveryMode::kReopen;
    FleetOptions options =
        small_fleet(state_root(reopen ? "recover_reopen" : "recover_live"));
    options.recovery = mode;
    FleetManager fleet(options, /*now=*/0);
    const int before = fleet.epoch(1);

    fleet.kill_shard(1, /*now=*/1, /*downtime=*/4);
    // Reported while dead: lands in the backlog, applied at boot.
    fleet.report_node_fault(1, /*id=*/9, /*now=*/3);
    std::vector<ShardHealth> seen;
    for (std::int64_t t = 2; t <= 16; ++t) {
      fleet.advance(t);
      if (seen.empty() || seen.back() != fleet.health(1)) {
        seen.push_back(fleet.health(1));
      }
    }
    const std::vector<ShardHealth> arc = {ShardHealth::kQuarantined,
                                          ShardHealth::kRecovering,
                                          ShardHealth::kServing};
    EXPECT_EQ(seen, arc) << "mode=" << (reopen ? "reopen" : "live");
    EXPECT_NE(fleet.shard_manager(1), nullptr);
    // The backlogged fault forced a reconfigure at boot: one epoch ahead
    // of the pre-kill certified epoch, in both modes.
    EXPECT_EQ(fleet.epoch(1), before + 1);
    EXPECT_EQ(fleet.stats().restarts, 1);
    EXPECT_EQ(fleet.stats().readmissions, 1);
    EXPECT_EQ(fleet.stats().reopens, reopen ? 1 : 0);
    EXPECT_EQ(fleet.serving_shard(1), 1);  // primaries fail back
    EXPECT_TRUE(fleet.quiescent());

    const auto response = fleet.submit(request_for(fleet, 1, 17), 17);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, ServeStatus::kFresh);
  }
}

TEST(FleetManager, HedgeNeverTargetsAnUnhealthyShard) {
  FleetManager fleet(small_fleet(state_root("hedge")), /*now=*/0);
  RouteRequest probe;
  probe.client_id = 0;
  EXPECT_EQ(fleet.hedge_shard(probe), 1);  // all healthy: next in ring

  fleet.kill_shard(1, /*now=*/1, /*downtime=*/4);
  // Shard 1 is quarantined: the hedge for client 0 skips it.
  EXPECT_EQ(fleet.hedge_shard(probe), 2);
  probe.client_id = 2;
  EXPECT_EQ(fleet.hedge_shard(probe), 0);

  // Two shards, one dead: nothing left to hedge to.
  FleetOptions pair_options = small_fleet(state_root("hedge_pair"));
  pair_options.shards = 2;
  FleetManager pair(pair_options, /*now=*/0);
  pair.kill_shard(1, /*now=*/1, /*downtime=*/4);
  probe.client_id = 0;
  EXPECT_EQ(pair.hedge_shard(probe), -1);
}

TEST(FleetManager, ShortHangRidesThroughLongHangIsQuarantined) {
  FleetManager fleet(small_fleet(state_root("hang")), /*now=*/0);
  fleet.advance(0);

  // Shorter than the heartbeat timeout (4): the shard resumes in place.
  fleet.hang_shard(1, /*now=*/1, /*duration=*/3);
  for (std::int64_t t = 1; t <= 6; ++t) fleet.advance(t);
  EXPECT_EQ(fleet.health(1), ShardHealth::kServing);
  EXPECT_EQ(fleet.stats().hangs, 1);
  EXPECT_EQ(fleet.stats().heartbeat_timeouts, 0);
  EXPECT_EQ(fleet.stats().quarantines, 0);

  // Longer than the timeout: the missed heartbeats are the only signal
  // the fleet gets, and they quarantine the shard.
  fleet.hang_shard(2, /*now=*/7, /*duration=*/12);
  std::int64_t quarantined_at = -1;
  for (std::int64_t t = 7; t <= 30; ++t) {
    fleet.advance(t);
    if (quarantined_at < 0 && fleet.health(2) == ShardHealth::kQuarantined) {
      quarantined_at = t;
    }
  }
  EXPECT_GT(quarantined_at, 7);
  EXPECT_EQ(fleet.stats().heartbeat_timeouts, 1);
  EXPECT_EQ(fleet.stats().quarantines, 1);
  // It recovers like a kill, minus the reopen (the process never died).
  EXPECT_EQ(fleet.health(2), ShardHealth::kServing);
  EXPECT_EQ(fleet.stats().reopens, 0);
  EXPECT_TRUE(fleet.quiescent());
}

// The single fleet-wide window token: three shards report faults in the
// same tick, every window OPENS at report time (staleness typing starts
// immediately), but the closed solve+publish slots are strictly
// serialized — the [granted, published] intervals never overlap.
TEST(FleetManager, SolvePublishSlotsNeverOverlap) {
  FleetOptions options = small_fleet(state_root("windows"));
  options.reconfigure_ticks = 3;
  FleetManager fleet(options, /*now=*/0);
  fleet.report_node_fault(0, 5, /*now=*/0);
  fleet.report_node_fault(1, 6, /*now=*/0);
  fleet.report_node_fault(2, 7, /*now=*/0);
  EXPECT_FALSE(fleet.quiescent());
  for (std::int64_t t = 1; t <= 20; ++t) fleet.advance(t);

  const std::vector<FleetManager::WindowSlot>& log = fleet.window_log();
  ASSERT_EQ(log.size(), 3u);
  std::vector<bool> shard_seen(3, false);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_FALSE(log[i].boot);
    EXPECT_EQ(log[i].published - log[i].granted, 3);
    shard_seen[static_cast<std::size_t>(log[i].shard)] = true;
    if (i > 0) {
      EXPECT_LE(log[i - 1].published, log[i].granted)
          << "slots " << i - 1 << " and " << i << " overlap";
    }
  }
  EXPECT_TRUE(shard_seen[0] && shard_seen[1] && shard_seen[2]);
  EXPECT_EQ(fleet.stats().windows_granted, 3);
  EXPECT_TRUE(fleet.quiescent());
  for (int i = 0; i < 3; ++i) EXPECT_EQ(fleet.epoch(i), 2);
}

// The headline: the same federation chaos schedule — mesh storms on
// every shard plus whole-shard kills and hangs — produces a bit-identical
// outcome digest at 1/4/16 solver threads AND across RecoveryMode
// reopen/live. The reopen arm actually exercises kill -> StateDir ->
// MachineManager::open mid-storm, so digest equality with the live arm
// IS the restart-transparency proof. Zero covered requests fail.
TEST(FleetLoadgen, DigestStableAcrossThreadsAndRecoveryModes) {
  fleet::LoadgenConfig config = fleet::fleet_loadgen_defaults();
  config.chaos->state_root = state_root("loadgen");
  config.chaos->shards = 3;
  config.mesh = "8x8";
  config.clients = 32;
  config.ticks = 120;
  config.storm_node_kills = 2;
  config.storm_link_kills = 1;
  config.chaos->shard_kills = 1;
  config.chaos->shard_hangs = 1;
  config.chaos->min_downtime = 8;
  config.chaos->max_downtime = 16;
  config.client.hedge = true;
  std::optional<fleet::LoadgenResult> base;
  for (const RecoveryMode mode : {RecoveryMode::kReopen, RecoveryMode::kLive}) {
    config.chaos->recovery = mode;
    const bool reopen = mode == RecoveryMode::kReopen;
    for (const int threads : {1, 4, 16}) {
      par::set_threads(threads);
      const fleet::LoadgenResult result = fleet::run_loadgen(config);
      const std::string arm =
          std::string(reopen ? "reopen" : "live") + "/threads=" +
          std::to_string(threads);
      EXPECT_EQ(result.failed_requests, 0) << arm;
      EXPECT_EQ(result.final_queue_depth, 0) << arm;
      EXPECT_GT(result.outcomes, 0) << arm;
      EXPECT_EQ(result.fleet.kills, 1) << arm;
      EXPECT_EQ(result.fleet.hangs, 1) << arm;
      // Only the reopen arm re-opens managers from their StateDirs; it
      // is the ONLY counter allowed to differ between the modes.
      EXPECT_EQ(result.fleet.reopens, reopen ? 1 : 0) << arm;
      if (!base) {
        base = result;
      } else {
        EXPECT_EQ(result.digest, base->digest) << arm;
        EXPECT_EQ(result.outcomes, base->outcomes) << arm;
        EXPECT_EQ(result.fleet.failovers, base->fleet.failovers) << arm;
        EXPECT_EQ(result.final_epochs, base->final_epochs) << arm;
      }
    }
  }
  par::set_threads(0);
  // Every terminal status is typed: the tallies reconcile, and the storm
  // actually bit — the fleet quarantined and recovered shards mid-run.
  EXPECT_EQ(base->outcomes,
            base->served_fresh + base->served_stale + base->served_fallback +
                base->gave_up_overloaded + base->gave_up_rejected +
                base->unroutable + base->deadline_exceeded + base->errors);
  EXPECT_GT(base->served_fresh, 0);
  EXPECT_GE(base->fleet.quarantines, 2);  // the kill and the hang
  EXPECT_EQ(base->fleet.readmissions, base->fleet.quarantines);
}

}  // namespace
}  // namespace lamb
