// Tests for the two R^(k) backends (paper footnote 7): the Section 6.2
// matrix chain and the per-representative flood ("spanning tree")
// computation must agree bit for bit, through every solver entry point,
// and the set-valued flood primitive must equal the union of per-node
// floods. Also covers the RouteCache fast path and the Samples quantile
// helper added for latency reporting.
#include <gtest/gtest.h>

#include <memory>

#include "core/lamb.hpp"
#include "core/verifier.hpp"
#include "reach/flood_oracle.hpp"
#include "support/rng.hpp"
#include "support/samples.hpp"
#include "wormhole/route_cache.hpp"

namespace lamb {
namespace {

struct BackendParam {
  std::vector<Coord> widths;
  int faults;
  int rounds;
  std::uint64_t seed;
  // Explicit per-round orderings; empty means ascending in every round.
  MultiRoundOrder orders = {};

  MultiRoundOrder resolved() const {
    return orders.empty()
               ? ascending_rounds(static_cast<int>(widths.size()), rounds)
               : orders;
  }
};

const DimOrder kXY = DimOrder::ascending(2);
const DimOrder kYX = DimOrder::descending(2);
const DimOrder kXYZ = DimOrder::ascending(3);
const DimOrder kZYX = DimOrder::descending(3);

class BackendSweep : public ::testing::TestWithParam<BackendParam> {};

TEST_P(BackendSweep, MatrixAndFloodAgreeBitForBit) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  const auto orders = p.resolved();
  const ReachComputation matrix =
      compute_reachability(shape, faults, orders, ReachBackend::kMatrix);
  const ReachComputation flood =
      compute_reachability(shape, faults, orders, ReachBackend::kFlood);
  EXPECT_EQ(matrix.rk, flood.rk);
}

TEST_P(BackendSweep, Lamb1IdenticalUnderBothBackends) {
  const auto& p = GetParam();
  const MeshShape shape = MeshShape::mesh(p.widths);
  Rng rng(p.seed ^ 0x77);
  const FaultSet faults = FaultSet::random_nodes(shape, p.faults, rng);
  LambOptions matrix_opts;
  matrix_opts.orders = p.resolved();
  matrix_opts.backend = ReachBackend::kMatrix;
  LambOptions flood_opts = matrix_opts;
  flood_opts.backend = ReachBackend::kFlood;
  EXPECT_EQ(lamb1(shape, faults, matrix_opts).lambs,
            lamb1(shape, faults, flood_opts).lambs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BackendSweep,
    ::testing::Values(BackendParam{{10, 10}, 8, 2, 1},
                      BackendParam{{10, 10}, 25, 2, 2},
                      BackendParam{{12, 12}, 40, 2, 3},
                      BackendParam{{6, 6, 6}, 12, 2, 4},
                      BackendParam{{6, 6, 6}, 40, 2, 5},
                      BackendParam{{8, 8}, 10, 1, 6},
                      BackendParam{{8, 8}, 10, 3, 7},
                      BackendParam{{5, 7, 4}, 15, 2, 8},
                      BackendParam{{12, 12}, 70, 2, 9},
                      BackendParam{{10, 10}, 50, 4, 10},
                      BackendParam{{2, 2, 2, 2, 2}, 6, 2, 11},
                      // Mixed orderings: the intersection cache holds one
                      // I_t per distinct (prev, next) ordering pair.
                      BackendParam{{10, 10}, 15, 2, 12, {kXY, kYX}},
                      BackendParam{{12, 12}, 25, 3, 13, {kXY, kYX, kXY}},
                      BackendParam{{6, 6, 6}, 20, 3, 14, {kXYZ, kZYX, kXYZ}},
                      // k = 3 with every factor wider than four words
                      // (p and q are about 280).
                      BackendParam{{60, 60}, 260, 3, 15}));

TEST(FloodSet, SetFloodEqualsUnionOfNodeFloods) {
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng rng(9);
  const FaultSet faults = FaultSet::random_nodes(shape, 10, rng);
  const FloodOracle flood(shape, faults);
  const DimOrder order = DimOrder::ascending(2);
  for (int trial = 0; trial < 10; ++trial) {
    Bits sources(shape.size());
    for (int i = 0; i < 7; ++i) {
      sources.set((NodeId)rng.below((std::uint64_t)shape.size()));
    }
    Bits want(shape.size());
    sources.for_each([&](NodeId v) {
      want |= flood.reach1_from(shape.point(v), order);
    });
    EXPECT_EQ(flood.reach1_from_set(sources, order), want);
  }
}

TEST(FloodSet, FaultySourcesContributeNothing) {
  const MeshShape shape = MeshShape::cube(2, 6);
  FaultSet faults(shape);
  faults.add_node(Point{2, 2});
  const FloodOracle flood(shape, faults);
  Bits sources(shape.size());
  sources.set(shape.index(Point{2, 2}));
  EXPECT_FALSE(
      flood.reach1_from_set(sources, DimOrder::ascending(2)).any());
}

// --- RouteCache -------------------------------------------------------------

TEST(RouteCache, MatchesRouteBuilderLengths) {
  const MeshShape shape = MeshShape::cube(2, 10);
  Rng frng(21);
  const FaultSet faults = FaultSet::random_nodes(shape, 8, frng);
  const auto orders = ascending_rounds(2, 2);
  wormhole::RouteBuilder builder(shape, faults, orders);
  wormhole::RouteCache cache(shape, faults, orders);
  Rng rng(22);
  for (int t = 0; t < 100; ++t) {
    const NodeId a = (NodeId)rng.below((std::uint64_t)shape.size());
    const NodeId b = (NodeId)rng.below((std::uint64_t)shape.size());
    Rng r1(t), r2(t);
    const auto direct = builder.build(a, b, r1);
    const auto cached = cache.build(a, b, r2);
    ASSERT_EQ(direct.has_value(), cached.has_value());
    if (direct) {
      // Both pick minimum-length intermediates, so lengths agree even if
      // tie-breaks differ.
      EXPECT_EQ(direct->length(), cached->length());
      EXPECT_EQ(cached->src, a);
      EXPECT_EQ(cached->dst, b);
    }
  }
  EXPECT_GT(cache.hits(), 0);
}

TEST(RouteCache, HitsAccumulateOnRepeatedEndpoints) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  Rng rng(23);
  for (int t = 0; t < 20; ++t) {
    cache.build(0, shape.size() - 1, rng);
  }
  EXPECT_EQ(cache.misses(), 2);  // one forward + one backward flood
  EXPECT_EQ(cache.hits(), 38);
}

TEST(RouteCache, ReconfigureDropsState) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 2));
  Rng rng(24);
  cache.build(0, 10, rng);
  const std::int64_t before = cache.misses();
  cache.reconfigure();
  cache.build(0, 10, rng);
  EXPECT_EQ(cache.misses(), before + 2);
}

TEST(RouteCache, NonTwoRoundDelegates) {
  const MeshShape shape = MeshShape::cube(2, 8);
  const FaultSet faults(shape);
  wormhole::RouteCache cache(shape, faults, ascending_rounds(2, 3));
  Rng rng(25);
  const auto route = cache.build(0, shape.size() - 1, rng);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->length(), 14);
  EXPECT_EQ(cache.misses(), 0);  // fast path not used
}

// --- Samples ----------------------------------------------------------------

TEST(Samples, QuantilesNearestRank) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.quantile(0.5), 50);
  EXPECT_EQ(s.quantile(0.95), 95);
  EXPECT_EQ(s.quantile(0.99), 99);
  EXPECT_EQ(s.quantile(0.0), 1);
  EXPECT_EQ(s.quantile(1.0), 100);
  EXPECT_EQ(s.min(), 1);
  EXPECT_EQ(s.max(), 100);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyIsZero) {
  const Samples s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, UnsortedInsertionOrderIrrelevant) {
  Samples a, b;
  for (double v : {5.0, 1.0, 3.0}) a.add(v);
  for (double v : {3.0, 5.0, 1.0}) b.add(v);
  EXPECT_EQ(a.median(), b.median());
  EXPECT_EQ(a.median(), 3.0);
}

}  // namespace
}  // namespace lamb
