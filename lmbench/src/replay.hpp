// Replays for the traced run, after the client loop: the wormhole route
// layer on a cold table, and the solver layers (core, graph) on every
// recorded epoch fault set.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "audit.hpp"
#include "manager/machine_manager.hpp"
#include "round.hpp"

namespace lmbench {

// Captures a fresh RouteTable of the manager's current configuration
// (an empty flood cache) and vends each covered pair on it, timing
// RouteTable::route. A call is cold when cached_floods() grew across it.
void replay_routes(
    const lamb::manager::MachineManager& manager,
    const std::vector<std::pair<lamb::NodeId, lamb::NodeId>>& pairs,
    LayerSamples* out);

// Replays each timeline (one shard's recorded epochs, in order) through
// the solver: solve_lambs_incremental along the whole chain, checking
// that it reproduces each published lamb set, and the phase functions
// (find_ses/des_partition, compute_reachability,
// min_weight_bipartite_cover) on an evenly spaced sample of epochs.
// Returns an empty string, or the first mismatch.
std::string replay_solver(
    const lamb::MeshShape& shape,
    const std::vector<const std::map<int, EpochRecord>*>& timelines,
    LayerSamples* out);

}  // namespace lmbench
