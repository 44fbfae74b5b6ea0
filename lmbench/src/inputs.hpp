// Workload definitions and seeded input generation. A workload fixes the
// machine (mesh, shard count), the fault regime and the client
// population; the seed draws the concrete faults, storm ticks, shard
// chaos and client seeds. The program under test receives only these
// generated inputs, through its public report/submit calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"
#include "serve/client.hpp"
#include "serve/route_service.hpp"

namespace lmbench {

struct WorkloadSpec {
  std::string name;
  std::string mesh;  // geometry, e.g. "16x16"
  int shards = 0;    // 0: one MachineManager + RouteService; >0: a fleet
  std::int64_t initial_faults = 0;  // node faults per shard before traffic
  std::int64_t node_kills = 0;      // storm, per shard
  std::int64_t link_kills = 0;      // storm, per shard
  std::int64_t shard_kills = 0;     // fleet chaos
  std::int64_t shard_hangs = 0;
  std::int64_t min_down = 12;  // chaos duration range, ticks
  std::int64_t max_down = 24;
  std::int64_t clients = 0;
  std::int64_t ticks = 0;  // request + storm horizon
  std::int64_t max_cooldown = 2048;
  std::int64_t reconfigure_ticks = 4;  // window width: first report -> publish
  lamb::serve::ServiceOptions service;
  lamb::serve::ClientOptions client;
};

// The named workloads (serve_2d, churn_3d, fleet_2d); `smoke` selects a
// tiny size of the same shape. Throws std::invalid_argument on an
// unknown name.
WorkloadSpec workload_spec(const std::string& name, bool smoke);

struct StormEvent {
  std::int64_t tick = 0;
  int shard = 0;
  bool link = false;
  lamb::NodeId node = 0;  // the dying node, or the link's endpoint
  int dim = 0;            // link only
  lamb::Dir dir = lamb::Dir::Pos;
};

struct ChaosEvent {
  std::int64_t tick = 0;
  int shard = 0;
  bool kill = true;  // false: hang
  std::int64_t duration = 0;
};

struct Inputs {
  std::vector<std::vector<lamb::NodeId>> initial;  // per shard
  std::vector<StormEvent> storm;                   // sorted by tick
  std::vector<ChaosEvent> chaos;                   // sorted by tick
  std::vector<std::uint64_t> client_seeds;
};

Inputs make_inputs(const WorkloadSpec& spec, const lamb::MeshShape& shape,
                   std::uint64_t seed);

}  // namespace lmbench
