// The two-round intermediate chooser behind RouteCache::build, checked
// against brute force over the floods it reads. For every pair: the chosen
// node lies in fwd(src) & bwd(dst) and its route is minimal over that
// whole intersection; random ties reach every minimal candidate; and the
// load-aware rule picks exactly the node a reference scan picks (minimum
// length, then least-loaded, then lowest id). The cases cover the
// bounding-box walk (rows spanning and sharing 64-bit words, 1D to 3D),
// pairs whose box holds no candidate, and a torus, which always scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "mesh/fault_set.hpp"
#include "reach/flood_oracle.hpp"
#include "reach/route.hpp"
#include "support/rng.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

using wormhole::NodeLoad;
using wormhole::Route;
using wormhole::RouteCache;

struct Case {
  const char* name;
  std::vector<Coord> widths;
  bool torus;
  int node_faults;
  int link_faults;
  bool mixed_orders;  // second round descending instead of ascending
  std::uint64_t seed;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// One seeded instance plus every node's forward and backward flood.
struct Instance {
  explicit Instance(const Case& c)
      : shape(c.torus ? MeshShape::torus(c.widths)
                      : MeshShape::mesh(c.widths)),
        faults(shape) {
    Rng rng(c.seed);
    faults = FaultSet::random_nodes(shape, c.node_faults, rng);
    for (int added = 0; added < c.link_faults;) {
      const Point p = shape.point(
          static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(shape.size()))));
      const int dim = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(shape.dim())));
      const Dir dir = rng.below(2) == 0 ? Dir::Pos : Dir::Neg;
      Point nb;
      if (!shape.neighbor(p, dim, dir, &nb)) continue;
      faults.add_link(p, dim, dir);
      ++added;
    }
    orders = {DimOrder::ascending(shape.dim()),
              c.mixed_orders ? DimOrder::descending(shape.dim())
                             : DimOrder::ascending(shape.dim())};
    const FloodOracle flood(shape, faults);
    for (NodeId id = 0; id < shape.size(); ++id) {
      fwd.push_back(flood.reach1_from(shape.point(id), orders[0]));
      bwd.push_back(flood.reach1_to(shape.point(id), orders[1]));
    }
  }

  std::int64_t total(NodeId src, NodeId u, NodeId dst) const {
    const Point u_p = shape.point(u);
    return shape.l1_distance(shape.point(src), u_p) +
           shape.l1_distance(u_p, shape.point(dst));
  }

  // Brute force: every u in fwd(src) & bwd(dst) of minimum total length,
  // ascending.
  std::vector<NodeId> minimal(NodeId src, NodeId dst) const {
    std::vector<NodeId> out;
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (NodeId u = 0; u < shape.size(); ++u) {
      if (!fwd[static_cast<std::size_t>(src)].test(u) ||
          !bwd[static_cast<std::size_t>(dst)].test(u)) {
        continue;
      }
      const std::int64_t t = total(src, u, dst);
      if (t < best) {
        best = t;
        out.clear();
      }
      if (t == best) out.push_back(u);
    }
    return out;
  }

  // True when some minimal candidate has l1(src,u) + l1(u,dst) equal to
  // l1(src,dst), i.e. lies in the src-dst box (the chooser's fast path on
  // a mesh).
  bool box_holds_candidate(NodeId src, NodeId dst,
                           const std::vector<NodeId>& minimal_set) const {
    return !minimal_set.empty() &&
           total(src, minimal_set.front(), dst) ==
               shape.l1_distance(shape.point(src), shape.point(dst));
  }

  // The route is two dimension-ordered rounds through its intermediate
  // that cross no fault and end at dst.
  void expect_valid(const Route& route) const {
    ASSERT_EQ(route.intermediates.size(), 1u);
    Point at = shape.point(route.src);
    int round = 0;
    int position = 0;
    for (const wormhole::Hop& hop : route.hops) {
      if (hop.vc != round) {
        ASSERT_EQ(hop.vc, round + 1);
        EXPECT_EQ(shape.index(at), route.intermediates[0]);
        round = hop.vc;
        position = 0;
      }
      const int pos =
          orders[static_cast<std::size_t>(round)].position_of(hop.dim);
      EXPECT_GE(pos, position);
      position = pos;
      EXPECT_FALSE(faults.link_faulty(at, hop.dim, hop.dir));
      Point next;
      ASSERT_TRUE(shape.neighbor(at, hop.dim, hop.dir, &next));
      EXPECT_FALSE(faults.node_faulty(next));
      at = next;
    }
    if (round == 0) {
      EXPECT_EQ(route.intermediates[0], route.dst);
    }
    EXPECT_EQ(shape.index(at), route.dst);
  }

  // Every ordered pair on small instances, a seeded sample on larger ones.
  std::vector<std::pair<NodeId, NodeId>> pairs(std::size_t cap) const {
    std::vector<std::pair<NodeId, NodeId>> out;
    const NodeId n = shape.size();
    if (static_cast<std::size_t>(n * n) <= cap) {
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId d = 0; d < n; ++d) out.push_back({s, d});
      }
      return out;
    }
    Rng rng(static_cast<std::uint64_t>(n));
    while (out.size() < cap) {
      out.push_back(
          {static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n))),
           static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(n)))});
    }
    return out;
  }

  MeshShape shape;
  FaultSet faults;
  MultiRoundOrder orders;
  std::vector<Bits> fwd;
  std::vector<Bits> bwd;
};

class RouteChoice : public ::testing::TestWithParam<Case> {};

TEST_P(RouteChoice, PicksAMinimalNodeOfTheIntersection) {
  const Instance in(GetParam());
  RouteCache cache(in.shape, in.faults, in.orders);
  std::int64_t in_box = 0;
  std::int64_t outside_box = 0;
  std::uint64_t seed = 0;
  for (const auto& [src, dst] : in.pairs(6000)) {
    const std::vector<NodeId> minimal = in.minimal(src, dst);
    Rng rng(++seed);
    const auto route = cache.build(src, dst, rng);
    ASSERT_EQ(route.has_value(), !minimal.empty()) << src << "->" << dst;
    if (!route) continue;
    const NodeId u = route->intermediates[0];
    EXPECT_TRUE(in.fwd[static_cast<std::size_t>(src)].test(u));
    EXPECT_TRUE(in.bwd[static_cast<std::size_t>(dst)].test(u));
    EXPECT_TRUE(std::binary_search(minimal.begin(), minimal.end(), u))
        << src << "->" << dst << " via " << u;
    EXPECT_EQ(route->length(), in.total(src, minimal.front(), dst));
    in.expect_valid(*route);
    ++(in.box_holds_candidate(src, dst, minimal) ? in_box : outside_box);
  }
  // Pairs of both kinds were seen: a minimal candidate on a shortest
  // src-dst path (in the box, on a mesh) and none. On a line a blocked
  // box blocks the pair, so only the first kind exists there.
  EXPECT_GT(in_box, 0);
  if (in.shape.dim() > 1) {
    EXPECT_GT(outside_box, 0);
  }
}

TEST_P(RouteChoice, RandomTiesReachEveryMinimalCandidate) {
  const Instance in(GetParam());
  RouteCache cache(in.shape, in.faults, in.orders);
  int tie_pairs[2] = {0, 0};  // [box holds a candidate]
  for (const auto& [src, dst] : in.pairs(3000)) {
    const std::vector<NodeId> minimal = in.minimal(src, dst);
    if (minimal.size() < 2 || minimal.size() > 12) continue;
    int& seen_kind = tie_pairs[in.box_holds_candidate(src, dst, minimal)];
    if (seen_kind >= 12) continue;
    ++seen_kind;
    std::set<NodeId> hit;
    for (std::uint64_t seed = 0; seed < 40 * minimal.size(); ++seed) {
      Rng rng(seed);
      hit.insert(cache.build(src, dst, rng)->intermediates[0]);
    }
    EXPECT_EQ(std::vector<NodeId>(hit.begin(), hit.end()), minimal)
        << src << "->" << dst;
  }
  EXPECT_GT(tie_pairs[1], 0);
  if (in.shape.dim() > 1) {
    EXPECT_GT(tie_pairs[0], 0);
  }
}

// Reference for the load-aware rule: scan the whole intersection in id
// order, keeping the shorter route, then the strictly less-loaded node.
NodeId reference_load_choice(const Instance& in, NodeId src, NodeId dst,
                             const NodeLoad& load) {
  NodeId chosen = -1;
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::int32_t best_load = std::numeric_limits<std::int32_t>::max();
  for (NodeId u = 0; u < in.shape.size(); ++u) {
    if (!in.fwd[static_cast<std::size_t>(src)].test(u) ||
        !in.bwd[static_cast<std::size_t>(dst)].test(u)) {
      continue;
    }
    const std::int64_t t = in.total(src, u, dst);
    const std::int32_t u_load = load.counts[static_cast<std::size_t>(u)];
    if (t < best || (t == best && u_load < best_load)) {
      best = t;
      best_load = u_load;
      chosen = u;
    }
  }
  return chosen;
}

TEST_P(RouteChoice, LoadAwareMatchesReferenceNodeForNode) {
  const Instance in(GetParam());
  RouteCache cache(in.shape, in.faults, in.orders);
  NodeLoad load(in.shape);
  NodeLoad reference(in.shape);
  for (const auto& [src, dst] : in.pairs(3000)) {
    const NodeId want = reference_load_choice(in, src, dst, reference);
    Rng rng(7);
    const Rng untouched = rng;
    const auto route = cache.build(src, dst, rng, &load);
    // The load-aware rule never draws.
    EXPECT_EQ(rng.state(), untouched.state());
    ASSERT_EQ(route.has_value(), want >= 0) << src << "->" << dst;
    if (!route) continue;
    ASSERT_EQ(route->intermediates[0], want) << src << "->" << dst;
    in.expect_valid(*route);
    // Charge the reference with the nodes of the same two rounds.
    const Point mid = in.shape.point(want);
    std::vector<Point> nodes =
        route_nodes(in.shape, in.shape.point(src), mid, in.orders[0]);
    const std::vector<Point> second =
        route_nodes(in.shape, mid, in.shape.point(dst), in.orders[1]);
    nodes.insert(nodes.end(), second.begin() + 1, second.end());
    for (const Point& p : nodes) {
      ++reference.counts[static_cast<std::size_t>(in.shape.index(p))];
    }
  }
  EXPECT_EQ(load.counts, reference.counts);
  EXPECT_GT(load.total(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RouteChoice,
    ::testing::Values(
        // Rows of 70 ids span two or three words.
        Case{"mesh_70x9", {70, 9}, false, 40, 12, false, 1},
        // Rows of 13 ids share words; second round in YX order.
        Case{"mesh_13x11_xy_yx", {13, 11}, false, 14, 8, true, 2},
        Case{"mesh_7x5x6", {7, 5, 6}, false, 18, 10, false, 3},
        Case{"mesh_6x6x6_xyz_zyx", {6, 6, 6}, false, 20, 6, true, 4},
        Case{"line_150", {150}, false, 4, 3, false, 5},
        Case{"torus_9x7", {9, 7}, true, 6, 6, false, 6},
        Case{"torus_5x4x6", {5, 4, 6}, true, 10, 4, true, 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace lamb
