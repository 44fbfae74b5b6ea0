#include "replay.hpp"

#include <algorithm>

#include "common.hpp"
#include "core/incremental.hpp"
#include "core/lamb.hpp"
#include "core/partition.hpp"
#include "core/reach_matrices.hpp"
#include "graph/bipartite_wvc.hpp"
#include "serve/route_table.hpp"

namespace lmbench {

using lamb::NodeId;

namespace {

// Epochs whose phases are replayed one by one (each costs a full solve).
constexpr std::size_t kPhaseEpochs = 12;

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

// The manager's solve options for an epoch: its orders, unit node
// values, and the previous epoch's lambs that are still good as
// predetermined lambs (monotone growth).
lamb::LambOptions epoch_options(const EpochRecord& rec,
                                const EpochRecord* prev,
                                const std::vector<double>& values) {
  lamb::LambOptions o;
  o.orders = rec.orders;
  o.node_values = &values;
  o.keep_context = true;
  if (prev != nullptr) {
    for (const NodeId id : prev->lambs) {
      if (rec.faults->node_good(id)) o.predetermined.push_back(id);
    }
  }
  return o;
}

// The cover phase instance exactly as Lamb1 builds it from R^(k):
// relevant rows/columns, unit-value weights minus predetermined lambs,
// one edge per zero of R^(k). Returns the timed cover call.
double replay_cover(const lamb::MeshShape& shape,
                    const lamb::ReachComputation& reach,
                    const std::vector<NodeId>& predetermined) {
  const lamb::BitMatrix& rk = reach.rk;
  const auto weight = [&](const lamb::RectSet& rect) {
    std::int64_t overlap = 0;
    for (const NodeId id : predetermined) {
      if (rect.contains(shape.point(id))) ++overlap;
    }
    return static_cast<double>(rect.size() - overlap);
  };
  std::vector<double> left, right;
  std::vector<std::int64_t> rows;
  std::vector<std::int64_t> col_slot(static_cast<std::size_t>(rk.cols()), -1);
  for (std::int64_t i = 0; i < rk.rows(); ++i) {
    if (rk.row_full(i)) continue;
    rows.push_back(i);
    left.push_back(weight(reach.first_ses().sets[static_cast<std::size_t>(i)]));
  }
  const lamb::Bits col_all = rk.column_all();
  for (std::int64_t j = 0; j < rk.cols(); ++j) {
    if (col_all.test(j)) continue;
    col_slot[static_cast<std::size_t>(j)] =
        static_cast<std::int64_t>(right.size());
    right.push_back(weight(reach.last_des().sets[static_cast<std::size_t>(j)]));
  }
  std::vector<lamb::BipartiteEdge> edges;
  for (std::size_t li = 0; li < rows.size(); ++li) {
    for (std::int64_t j = 0; j < rk.cols(); ++j) {
      if (!rk.get(rows[li], j)) {
        edges.push_back(lamb::BipartiteEdge{
            static_cast<int>(li),
            static_cast<int>(col_slot[static_cast<std::size_t>(j)])});
      }
    }
  }
  const std::int64_t t0 = now_ns();
  lamb::min_weight_bipartite_cover(left, right, edges);
  return ms_since(t0);
}

}  // namespace

void replay_routes(
    const lamb::manager::MachineManager& manager,
    const std::vector<std::pair<NodeId, NodeId>>& pairs, LayerSamples* out) {
  const std::shared_ptr<const lamb::serve::RouteTable> table =
      lamb::serve::RouteTable::capture(manager, /*published_tick=*/0);
  lamb::Rng rng(1);
  for (const auto& [src, dst] : pairs) {
    if (!table->covers(src, dst)) continue;
    const std::int64_t before = table->cached_floods();
    const std::int64_t t0 = now_ns();
    const auto route = table->route(src, dst, rng);
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    if (!route.has_value()) continue;
    (table->cached_floods() > before ? out->route_cold_us : out->route_warm_us)
        .push_back(us);
  }
}

std::string replay_solver(
    const lamb::MeshShape& shape,
    const std::vector<const std::map<int, EpochRecord>*>& timelines,
    LayerSamples* out) {
  const std::vector<double> values(static_cast<std::size_t>(shape.size()), 1.0);
  std::string mismatch;
  // (epoch, previous epoch) pairs eligible for the phase replay.
  std::vector<std::pair<const EpochRecord*, const EpochRecord*>> epochs;
  for (const std::map<int, EpochRecord>* timeline : timelines) {
    lamb::SolveOutcome prev;
    const EpochRecord* prev_rec = nullptr;
    for (const auto& [epoch, rec] : *timeline) {
      const lamb::LambOptions o = epoch_options(rec, prev_rec, values);
      const std::int64_t t0 = now_ns();
      lamb::SolveOutcome next =
          prev_rec == nullptr
              ? lamb::solve_lambs(shape, *rec.faults, o)
              : lamb::solve_lambs_incremental(shape, *rec.faults, prev, o);
      if (prev_rec != nullptr) out->incremental_ms.push_back(ms_since(t0));
      if (next.result.lambs != rec.lambs && mismatch.empty()) {
        mismatch = "epoch " + std::to_string(epoch) +
                   " lamb set differs from the published one";
      }
      if (rec.faults->f() > 0) epochs.emplace_back(&rec, prev_rec);
      prev = std::move(next);
      prev_rec = &rec;
    }
  }

  const std::size_t n = std::min(kPhaseEpochs, epochs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto [rec, prev_rec] = epochs[i * epochs.size() / n];
    const lamb::LambOptions o = epoch_options(*rec, prev_rec, values);
    std::vector<lamb::DimOrder> distinct;
    for (const lamb::DimOrder& order : rec->orders) {
      if (std::find(distinct.begin(), distinct.end(), order) ==
          distinct.end()) {
        distinct.push_back(order);
      }
    }
    std::int64_t t0 = now_ns();
    for (const lamb::DimOrder& order : distinct) {
      lamb::find_ses_partition(shape, *rec->faults, order);
      lamb::find_des_partition(shape, *rec->faults, order);
    }
    const double partition = ms_since(t0);
    t0 = now_ns();
    const lamb::ReachComputation reach =
        lamb::compute_reachability(shape, *rec->faults, rec->orders);
    // compute_reachability partitions too; its matrix time is the rest.
    const double matrices = std::max(0.0, ms_since(t0) - partition);
    std::vector<NodeId> predetermined = o.predetermined;
    std::sort(predetermined.begin(), predetermined.end());
    out->partition_ms.push_back(partition);
    out->matrices_ms.push_back(matrices);
    out->cover_ms.push_back(replay_cover(shape, reach, predetermined));
    ++out->replay_epochs;
  }
  return mismatch;
}

}  // namespace lmbench
