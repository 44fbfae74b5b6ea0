#include "wormhole/route_builder.hpp"

#include <algorithm>
#include <limits>

#include "reach/flood_oracle.hpp"
#include "reach/route.hpp"

namespace lamb::wormhole {

int Route::turns() const {
  int turns = 0;
  bool have_prev = false;
  int prev_dim = -1;
  for (const Hop& hop : hops) {
    if (have_prev && hop.dim != prev_dim) ++turns;
    prev_dim = hop.dim;
    have_prev = true;
  }
  return turns;
}

RouteBuilder::RouteBuilder(const MeshShape& shape, const FaultSet& faults,
                           MultiRoundOrder orders)
    : shape_(&shape), faults_(&faults), orders_(std::move(orders)) {}

void RouteBuilder::append_round(NodeId from, NodeId to, int round,
                                Route* out) const {
  const Point a = shape_->point(from);
  const Point b = shape_->point(to);
  for (const RouteSegment& seg :
       dim_ordered_route(*shape_, a, b, orders_[static_cast<std::size_t>(round)])) {
    for (Coord s = 0; s < seg.steps; ++s) {
      out->hops.push_back(Hop{seg.dim, seg.dir, round});
    }
  }
}

std::optional<Route> RouteBuilder::build(NodeId src, NodeId dst,
                                         Rng& rng) const {
  const int k = rounds();
  const Point src_p = shape_->point(src);
  const Point dst_p = shape_->point(dst);

  Route route;
  route.src = src;
  route.dst = dst;

  if (k == 1) {
    // The one-round route is fixed: walk its nodes and directed links
    // instead of flooding the mesh for one pair.
    if (!route_clear(*shape_, *faults_, src_p, dst_p, orders_.front())) {
      return std::nullopt;
    }
    append_round(src, dst, 0, &route);
    return route;
  }

  const FloodOracle flood(*shape_, *faults_);

  // cost[r][u] = fewest hops to be at u after r rounds; predecessors kept
  // for path reconstruction. For k == 2 this degenerates to intersecting
  // one forward and one backward flood, which stays O(N).
  constexpr std::int64_t kUnreachable = std::numeric_limits<std::int64_t>::max();
  const NodeId n = shape_->size();
  std::vector<std::vector<std::int64_t>> cost(
      static_cast<std::size_t>(k),
      std::vector<std::int64_t>(static_cast<std::size_t>(n), kUnreachable));
  std::vector<std::vector<NodeId>> pred(
      static_cast<std::size_t>(k),
      std::vector<NodeId>(static_cast<std::size_t>(n), -1));

  flood.reach1_from(src_p, orders_.front()).for_each([&](NodeId u) {
    cost[0][static_cast<std::size_t>(u)] =
        shape_->l1_distance(src_p, shape_->point(u));
    pred[0][static_cast<std::size_t>(u)] = src;
  });
  for (int r = 1; r < k - 1; ++r) {
    for (NodeId u = 0; u < n; ++u) {
      const std::int64_t c = cost[static_cast<std::size_t>(r - 1)]
                                 [static_cast<std::size_t>(u)];
      if (c == kUnreachable) continue;
      const Point u_p = shape_->point(u);
      flood.reach1_from(u_p, orders_[static_cast<std::size_t>(r)])
          .for_each([&](NodeId w) {
            const std::int64_t nc = c + shape_->l1_distance(u_p, shape_->point(w));
            auto& slot = cost[static_cast<std::size_t>(r)][static_cast<std::size_t>(w)];
            if (nc < slot) {
              slot = nc;
              pred[static_cast<std::size_t>(r)][static_cast<std::size_t>(w)] = u;
            }
          });
    }
  }

  // Last round: among nodes that can 1-reach dst, pick the minimum total
  // cost; break ties uniformly (reservoir sampling).
  const Bits backward = flood.reach1_to(dst_p, orders_.back());
  std::int64_t best = kUnreachable;
  NodeId chosen = -1;
  std::int64_t ties = 0;
  backward.for_each([&](NodeId u) {
    const std::int64_t c =
        cost[static_cast<std::size_t>(k - 2)][static_cast<std::size_t>(u)];
    if (c == kUnreachable) return;
    const std::int64_t total = c + shape_->l1_distance(shape_->point(u), dst_p);
    if (total < best) {
      best = total;
      chosen = u;
      ties = 1;
    } else if (total == best) {
      ++ties;
      if (rng.below(static_cast<std::uint64_t>(ties)) == 0) chosen = u;
    }
  });
  if (chosen < 0) return std::nullopt;

  // Reconstruct the intermediate chain u_1 .. u_{k-1}.
  std::vector<NodeId> chain(static_cast<std::size_t>(k - 1));
  chain[static_cast<std::size_t>(k - 2)] = chosen;
  for (int r = k - 2; r >= 1; --r) {
    chain[static_cast<std::size_t>(r - 1)] =
        pred[static_cast<std::size_t>(r)]
            [static_cast<std::size_t>(chain[static_cast<std::size_t>(r)])];
  }
  route.intermediates = chain;

  NodeId at = src;
  for (int r = 0; r < k - 1; ++r) {
    append_round(at, chain[static_cast<std::size_t>(r)], r, &route);
    at = chain[static_cast<std::size_t>(r)];
  }
  append_round(at, dst, k - 1, &route);
  return route;
}

}  // namespace lamb::wormhole
