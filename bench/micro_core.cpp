// Microbenchmarks (google-benchmark) for the performance-critical pieces
// whose costs Section 6 analyzes: Find-SES-Partition (O(d^3 f)), the
// prefix-sum reachability oracle (construction O(dN), queries O(d)) vs
// the O(dn) route walk, the word-parallel Boolean matrix product, the
// R^(k) chain and one incremental Find-Reachability step, Dinic on the
// WVC network, and the full Lamb1 pipeline scaling in f.
#include <benchmark/benchmark.h>

#include "core/bit_matrix.hpp"
#include "core/lamb.hpp"
#include "core/partition.hpp"
#include "core/reach_matrices.hpp"
#include "graph/bipartite_wvc.hpp"
#include "reach/reach_oracle.hpp"
#include "reach/route.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace lamb {
namespace {

FaultSet make_faults(const MeshShape& shape, std::int64_t f, std::uint64_t seed) {
  Rng rng(seed);
  return FaultSet::random_nodes(shape, f, rng);
}

void BM_FindSesPartition3D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        find_ses_partition(shape, faults, DimOrder::ascending(3)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindSesPartition3D)->Range(32, 1024)->Complexity(benchmark::oN);

void BM_ReachOracleBuild(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, (Coord)state.range(0));
  const FaultSet faults = make_faults(shape, shape.size() / 50, 2);
  for (auto _ : state) {
    ReachOracle oracle(shape, faults);
    benchmark::DoNotOptimize(oracle);
  }
}
BENCHMARK(BM_ReachOracleBuild)->Arg(16)->Arg(32);

void BM_ReachOracleQuery(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, 983, 3);
  const ReachOracle oracle(shape, faults);
  Rng rng(4);
  const DimOrder order = DimOrder::ascending(3);
  for (auto _ : state) {
    const Point v = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    const Point w = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    benchmark::DoNotOptimize(oracle.reach1(v, w, order));
  }
}
BENCHMARK(BM_ReachOracleQuery);

void BM_RouteWalkQuery(benchmark::State& state) {
  // The O(dn) reference the oracle replaces.
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, 983, 3);
  Rng rng(5);
  const DimOrder order = DimOrder::ascending(3);
  for (auto _ : state) {
    const Point v = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    const Point w = shape.point((NodeId)rng.below((std::uint64_t)shape.size()));
    benchmark::DoNotOptimize(route_clear(shape, faults, v, w, order));
  }
}
BENCHMARK(BM_RouteWalkQuery);

void BM_BitMatrixMultiply(benchmark::State& state) {
  const std::int64_t m = state.range(0);
  Rng rng(6);
  BitMatrix a(m, m), b(m, m);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      if (rng.bernoulli(0.17)) a.set(i, j);  // paper's R density ~0.175
      if (rng.bernoulli(0.17)) b.set(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitMatrix::multiply(a, b));
  }
  state.SetComplexityN(m);
}
BENCHMARK(BM_BitMatrixMultiply)->Range(256, 2048)->Complexity(benchmark::oNCubed);

void BM_SparseLeftMultiply(benchmark::State& state) {
  // Sparse left factor (the intersection matrix I, density ~0.01): the
  // set-bit-iterating kernel gets proportionally faster.
  const std::int64_t m = 1024;
  Rng rng(7);
  BitMatrix a(m, m), b(m, m);
  const double density = (double)state.range(0) / 1000.0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      if (rng.bernoulli(density)) a.set(i, j);
      if (rng.bernoulli(0.17)) b.set(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BitMatrix::multiply(a, b));
  }
}
BENCHMARK(BM_SparseLeftMultiply)->Arg(10)->Arg(100)->Arg(500);

void BM_ReachChain(benchmark::State& state) {
  // R^(2) = R (I R) on churn_3d's machine, the Fig. 26 3D instance: M_3(32)
  // with 983 random node faults (seed 1), two ascending rounds. I R is
  // about 67% ones and R^(2) nearly all ones, so the product's rows mostly
  // saturate early. The capture is built once; only reach_chain is timed,
  // at the solver width given as the argument.
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, 983, 1);
  ReachCapture cap;
  compute_reachability(shape, faults, ascending_rounds(3, 2),
                       ReachBackend::kMatrix, &cap);
  const std::vector<const BitMatrix*> r{&cap.r[0], &cap.r[0]};
  const std::vector<const BitMatrix*> inters{&cap.inters[0]};
  par::set_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reach_chain(r, inters));
  }
  par::set_threads(0);
}
BENCHMARK(BM_ReachChain)->ArgName("threads")->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_IncrementalReach(benchmark::State& state) {
  // One incremental Find-Reachability on the same machine: M_3(32) with
  // 983 random node faults (seed 1), two ascending rounds, plus one more
  // node fault. The 983-fault capture is built once; each iteration
  // repairs the partitions, copies R_t from the parent cells, clears the
  // entries whose routes the new fault cuts, splices I_t and rebuilds
  // R^(2), at the solver width given as the argument.
  const MeshShape shape = MeshShape::cube(3, 32);
  FaultSet faults = make_faults(shape, 983, 1);
  const MultiRoundOrder orders = ascending_rounds(3, 2);
  ReachCapture cap;
  const ReachComputation prev = compute_reachability(
      shape, faults, orders, ReachBackend::kMatrix, &cap);
  const NodeId N = shape.size();
  Rng rng(2);
  NodeId id = 0;
  do {
    id = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(N)));
  } while (!faults.node_good(id));
  faults.add_node(id);
  const std::vector<Point> delta_nodes{shape.point(id)};
  par::set_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ReachComputation out;
    ReachCapture out_cap;
    ReachDelta delta;
    if (!compute_reachability_incremental(shape, faults, orders, delta_nodes,
                                          {}, prev, cap, &out, &out_cap,
                                          &delta)) {
      state.SkipWithError("incremental Find-Reachability bailed");
      break;
    }
    benchmark::DoNotOptimize(out.rk);
  }
  par::set_threads(0);
}
BENCHMARK(BM_IncrementalReach)->ArgName("threads")->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_BipartiteWvc(benchmark::State& state) {
  const int side = (int)state.range(0);
  Rng rng(8);
  std::vector<double> lw((std::size_t)side), rw((std::size_t)side);
  for (auto& w : lw) w = (double)(1 + rng.below(50));
  for (auto& w : rw) w = (double)(1 + rng.below(50));
  std::vector<BipartiteEdge> edges;
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      if (rng.bernoulli(0.1)) edges.push_back({i, j});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(min_weight_bipartite_cover(lw, rw, edges));
  }
}
BENCHMARK(BM_BipartiteWvc)->Arg(32)->Arg(128)->Arg(512);

void BM_Lamb1FullPipeline3D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(3, 32);
  const FaultSet faults = make_faults(shape, state.range(0), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamb1(shape, faults, {}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Lamb1FullPipeline3D)->RangeMultiplier(2)->Range(64, 1024)
    ->Complexity(benchmark::oAuto)->Unit(benchmark::kMillisecond);

void BM_Lamb1FullPipeline2D(benchmark::State& state) {
  const MeshShape shape = MeshShape::cube(2, 181);
  const FaultSet faults = make_faults(shape, state.range(0), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lamb1(shape, faults, {}));
  }
}
BENCHMARK(BM_Lamb1FullPipeline2D)->Arg(164)->Arg(491)->Arg(983)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lamb
