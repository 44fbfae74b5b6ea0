// One round of a workload: set up the machine(s) from the generated
// inputs, drive the closed client loop in virtual ticks while the storm
// (and, on the fleet, shard chaos) strikes, time every call into the
// program from outside, and check every served route.
//
// The loop is closed: each client waits for its answer, then waits
// issue_period ticks before its next request, so a round is a fixed
// amount of work and throughput is that work over wall time. Wall time
// spent in the benchmark's own checks and bookkeeping is excluded from
// the loop time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"

namespace lmbench {

// Per-layer samples, filled only by a traced round. Layers every
// workload runs keep per-call samples; layers only some workloads run
// keep their summed wall time, reported as a share of the loop.
struct LayerSamples {
  // serve::Backend calls: every submit(), and by outcome.
  std::vector<float> submit_ns, fresh_ns, stale_ns;
  std::int64_t submit_total_ns = 0;
  std::int64_t shed_ns = 0, queue_ns = 0, fallback_ns = 0;  // summed
  std::int64_t step_calls = 0;
  std::int64_t step_self_ns = 0;  // Client::step minus the backend calls
  std::vector<double> advance_us;  // advance() calls that published nothing
  std::int64_t advance_ns = 0;     // their summed time
  std::vector<double> report_us;   // report_* calls
  std::int64_t swap_ns = 0;     // reconfigure + publish (fleet: slot ticks)
  std::int64_t publish_ns = 0;  // RouteService::publish
  std::vector<double> reconfigure_ms;
  std::int64_t floods_retained = 0;
  std::int64_t floods_dropped = 0;
  // manager epoch records (the manager's own counters).
  std::int64_t epochs = 0;  // reconfigures after the first solve
  std::int64_t incremental_epochs = 0;
  std::int64_t blocks_reused = 0;
  // fleet
  std::int64_t boot_ns = 0;  // advance() calls that published a boot slot
  std::int64_t kill_ns = 0;  // kill_shard()
  std::int64_t failovers = 0, evicted = 0, reopens = 0, window_waits = 0;
  // replays after the loop (replay.hpp)
  std::vector<double> route_cold_us, route_warm_us;
  std::vector<double> partition_ms, matrices_ms, cover_ms, incremental_ms;
  std::int64_t replay_epochs = 0;
};

struct RoundResult {
  // Correctness.
  bool ok = true;
  std::string failure;       // first failed check
  std::int64_t failed = 0;   // wrong results (route check, kError, stuck)
  std::uint64_t digest = 0;  // outcome digest (virtual time only)
  // Outcomes.
  std::int64_t requests = 0;  // terminal client outcomes
  std::int64_t served = 0;    // outcomes with a route
  std::int64_t unroutable = 0;
  std::int64_t submissions = 0;
  std::int64_t vends = 0;  // responses with a route (submit + drain)
  std::int64_t route_checks = 0;
  // Timing.
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::vector<float> vend_ns;  // submit() calls that returned a route
  std::vector<double> swap_ms;
  std::vector<std::int64_t> request_ticks;
  // Traced only.
  LayerSamples layers;
};

struct RoundConfig {
  WorkloadSpec spec;
  const Inputs* inputs = nullptr;
  bool traced = false;
  std::string state_dir;  // fleet shard state root (wiped per round)
  SpanLog* spans = nullptr;  // traced rounds record here
};

RoundResult run_round(const RoundConfig& config);

}  // namespace lmbench
