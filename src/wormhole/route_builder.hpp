// k-round dimension-ordered route construction for the wormhole simulator.
//
// A (pi_1,...,pi_k)-ordered routing does not fix the k-1 intermediate
// nodes (paper Section 2.1); following the heuristic the paper names, the
// builder picks intermediates giving the shortest total route, breaking
// ties uniformly at random. Round r travels on virtual channel r, the
// deadlock-avoidance scheme the whole paper is built around (one virtual
// channel per round).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "support/rng.hpp"

namespace lamb::wormhole {

struct Hop {
  int dim = 0;
  Dir dir = Dir::Pos;
  int vc = 0;  // round index
};

struct Route {
  NodeId src = 0;
  NodeId dst = 0;
  std::vector<Hop> hops;
  std::vector<NodeId> intermediates;  // u_1 .. u_{k-1}

  std::int64_t length() const { return static_cast<std::int64_t>(hops.size()); }
  // Number of direction changes (paper requirement (iv): minimize turns).
  int turns() const;
};

class RouteBuilder {
 public:
  RouteBuilder(const MeshShape& shape, const FaultSet& faults,
               MultiRoundOrder orders);

  // Fault-free k-round route from src to dst, or nullopt when dst is not
  // (k, F, orders)-reachable from src. k = 1 walks the one route, O(d*n);
  // k = 2 intersects two floods, O(N); larger k runs the exact
  // shortest-intermediate DP.
  std::optional<Route> build(NodeId src, NodeId dst, Rng& rng) const;

  int rounds() const { return static_cast<int>(orders_.size()); }
  const MeshShape& shape() const { return *shape_; }

 private:
  void append_round(NodeId from, NodeId to, int round, Route* out) const;

  const MeshShape* shape_;
  const FaultSet* faults_;
  MultiRoundOrder orders_;
};

}  // namespace lamb::wormhole
