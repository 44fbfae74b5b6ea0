#include "inputs.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common.hpp"
#include "fleet/fleet.hpp"

namespace lmbench {

using lamb::Dir;
using lamb::NodeId;

WorkloadSpec workload_spec(const std::string& name, bool smoke) {
  WorkloadSpec w;
  w.name = name;
  if (name == "serve_2d") {
    // Read-heavy and about 2x overloaded: 8192 clients against four
    // admission shards refilling 256 tokens a tick each. The storm gives
    // about 16 swaps a round, enough for steady swap percentiles.
    w.mesh = smoke ? "8x8" : "16x16";
    w.initial_faults = 4;
    w.node_kills = smoke ? 6 : 12;
    w.link_kills = smoke ? 2 : 4;
    w.clients = smoke ? 256 : 8192;
    w.ticks = smoke ? 80 : 600;
    w.service.admission.refill_per_tick = smoke ? 8 : 256;
    w.service.admission.bucket_capacity = smoke ? 16 : 512;
  } else if (name == "churn_3d") {
    // Write-heavy: the Fig. 26 3D instance (3% of M3(32)) under a steady
    // storm; few clients at the default admission, so nothing queues.
    w.mesh = smoke ? "8x8x8" : "32x32x32";
    w.initial_faults = smoke ? 15 : 983;
    w.node_kills = smoke ? 8 : 64;
    w.link_kills = smoke ? 2 : 13;
    w.clients = 16;
    w.ticks = smoke ? 100 : 600;
  } else if (name == "fleet_2d") {
    // Three durable shards of the Fig. 26 2D instance (3% of M2(181)),
    // per-shard storms plus whole-shard kills and hangs.
    w.mesh = smoke ? "24x24" : "181x181";
    w.shards = 3;
    w.initial_faults = smoke ? 17 : 983;
    w.node_kills = smoke ? 4 : 15;
    w.link_kills = smoke ? 1 : 3;
    w.shard_kills = smoke ? 1 : 3;
    w.shard_hangs = smoke ? 1 : 2;
    w.clients = 24;
    w.ticks = smoke ? 300 : 500;
    w.service.admission.refill_per_tick = 64;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

namespace {

// Distinct uniformly random nodes not yet in `taken` (marked as drawn).
std::vector<NodeId> draw_nodes(std::int64_t count, NodeId size,
                               std::vector<std::uint8_t>* taken,
                               InputRng& rng) {
  std::vector<NodeId> out;
  while (static_cast<std::int64_t>(out.size()) < count) {
    const NodeId id = static_cast<NodeId>(rng.below(size));
    if ((*taken)[static_cast<std::size_t>(id)] != 0) continue;
    (*taken)[static_cast<std::size_t>(id)] = 1;
    out.push_back(id);
  }
  return out;
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, const lamb::MeshShape& shape,
                   std::uint64_t seed) {
  InputRng rng(seed);
  Inputs in;
  const int shards = std::max(spec.shards, 1);
  const std::int64_t horizon = std::max<std::int64_t>(spec.ticks, 2);
  for (int s = 0; s < shards; ++s) {
    std::vector<std::uint8_t> taken(static_cast<std::size_t>(shape.size()), 0);
    in.initial.push_back(
        draw_nodes(spec.initial_faults, shape.size(), &taken, rng));
    for (const NodeId id :
         draw_nodes(spec.node_kills, shape.size(), &taken, rng)) {
      StormEvent ev;
      ev.tick = 1 + rng.below(horizon - 1);
      ev.shard = s;
      ev.node = id;
      in.storm.push_back(ev);
    }
    std::set<lamb::LinkId> links;
    while (static_cast<std::int64_t>(links.size()) < spec.link_kills) {
      StormEvent ev;
      ev.tick = 1 + rng.below(horizon - 1);
      ev.shard = s;
      ev.link = true;
      ev.node = static_cast<NodeId>(rng.below(shape.size()));
      ev.dim = static_cast<int>(rng.below(shape.dim()));
      ev.dir = rng.below(2) == 0 ? Dir::Pos : Dir::Neg;
      lamb::Point to;
      if (!shape.neighbor(shape.point(ev.node), ev.dim, ev.dir, &to)) continue;
      // One logical (bidirectional) link, whichever end was drawn.
      const NodeId lo = std::min(ev.node, shape.index(to));
      if (!links.insert(shape.link_id(lo, ev.dim, Dir::Pos)).second) continue;
      in.storm.push_back(ev);
    }
  }
  std::stable_sort(in.storm.begin(), in.storm.end(),
                   [](const StormEvent& a, const StormEvent& b) {
                     return a.tick < b.tick;
                   });

  // Shard chaos: one event per equal slot of the horizon, kinds shuffled,
  // each placed early enough in its slot that downtime + recovery margin
  // (heartbeat timeout, cooloff, solve slot, readmission) ends inside it —
  // at most one shard is down for chaos at a time.
  const std::int64_t events = spec.shard_kills + spec.shard_hangs;
  if (events > 0) {
    const lamb::fleet::FleetOptions fleet;
    const std::int64_t margin = fleet.heartbeat_timeout +
                                fleet.quarantine_cooloff +
                                spec.reconfigure_ticks +
                                fleet.recovering_ticks + 8;
    std::vector<std::uint8_t> kinds;
    for (std::int64_t i = 0; i < events; ++i) {
      kinds.push_back(i < spec.shard_kills);
    }
    for (std::int64_t i = events - 1; i > 0; --i) {
      std::swap(kinds[static_cast<std::size_t>(i)],
                kinds[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    const std::int64_t slot = horizon / events;
    for (std::int64_t i = 0; i < events; ++i) {
      ChaosEvent ev;
      ev.kill = kinds[static_cast<std::size_t>(i)] != 0;
      ev.shard = static_cast<int>(rng.below(shards));
      ev.duration =
          spec.min_down + rng.below(spec.max_down - spec.min_down + 1);
      const std::int64_t room = slot - ev.duration - margin;
      ev.tick = i * slot + 1 + (room > 1 ? rng.below(room) : 0);
      in.chaos.push_back(ev);
    }
  }

  for (std::int64_t i = 0; i < spec.clients; ++i) {
    in.client_seeds.push_back(rng.next());
  }
  return in;
}

}  // namespace lmbench
