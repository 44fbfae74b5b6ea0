#include "core/reach_matrices.hpp"

#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"
#include "reach/flood_oracle.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"

namespace lamb {

BitMatrix one_round_reach_matrix(const ReachOracle& oracle,
                                 const EquivPartition& ses,
                                 const EquivPartition& des,
                                 const DimOrder& order) {
  BitMatrix r(ses.size(), des.size());
  std::vector<Point> des_reps;
  des_reps.reserve(static_cast<std::size_t>(des.size()));
  for (std::int64_t j = 0; j < des.size(); ++j) des_reps.push_back(des.rep(j));
  // Row bands over SES representatives; each band writes disjoint rows of
  // r, so the result is identical at any thread count.
  par::parallel_for(0, ses.size(), 0, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const Point v = ses.rep(i);
      for (std::int64_t j = 0; j < des.size(); ++j) {
        if (oracle.reach1(v, des_reps[static_cast<std::size_t>(j)], order)) {
          r.set(i, j);
        }
      }
    }
  });
  return r;
}

BitMatrix intersection_matrix(const EquivPartition& des_prev,
                              const EquivPartition& ses_next) {
  BitMatrix m(des_prev.size(), ses_next.size());
  for (std::int64_t j = 0; j < des_prev.size(); ++j) {
    const RectSet& d = des_prev.sets[static_cast<std::size_t>(j)];
    for (std::int64_t i = 0; i < ses_next.size(); ++i) {
      if (RectSet::intersects(d, ses_next.sets[static_cast<std::size_t>(i)])) {
        m.set(j, i);
      }
    }
  }
  return m;
}

BitMatrix reach_chain(const std::vector<const BitMatrix*>& r,
                      const std::vector<const BitMatrix*>& inters) {
  assert(!r.empty() && inters.size() + 1 == r.size());
  if (inters.empty()) return *r.front();
  // acc and scratch ping-pong, so once the shapes repeat each product
  // reuses the buffer the one before it freed instead of allocating.
  BitMatrix acc;
  BitMatrix scratch;
  const BitMatrix* right = r.back();
  for (std::size_t t = inters.size(); t-- > 0;) {
    BitMatrix::multiply_into(*inters[t], *right, &scratch);
    BitMatrix::multiply_into(*r[t], scratch, &acc);
    right = &acc;
  }
  return acc;
}

namespace {

// Distinct orderings -> shared partitions and matrices.
std::vector<DimOrder> distinct_orders(const MultiRoundOrder& orders,
                                      std::vector<int>* round_part) {
  const int k = static_cast<int>(orders.size());
  std::vector<DimOrder> distinct;
  round_part->resize(static_cast<std::size_t>(k));
  for (int t = 0; t < k; ++t) {
    int found = -1;
    for (std::size_t u = 0; u < distinct.size(); ++u) {
      if (distinct[u] == orders[static_cast<std::size_t>(t)]) {
        found = static_cast<int>(u);
        break;
      }
    }
    if (found < 0) {
      distinct.push_back(orders[static_cast<std::size_t>(t)]);
      found = static_cast<int>(distinct.size()) - 1;
    }
    (*round_part)[static_cast<std::size_t>(t)] = found;
  }
  return distinct;
}

// kAuto's cost model: flood wins when the per-representative
// matrix-product work (~q^2/64 word operations) exceeds the
// per-representative flood work (~2 k d N node visits). For random faults
// at a few percent on the paper's meshes this picks the matrix path; for
// fault counts comparable to N (the Section 9 gadgets) it picks flood.
bool flood_is_cheaper(const MeshShape& shape, std::size_t rounds,
                      std::int64_t q) {
  const double qd = static_cast<double>(q);
  const double flood_cost = 2.0 * static_cast<double>(rounds) * shape.dim() *
                            static_cast<double>(shape.size());
  return qd * qd / 64.0 > flood_cost;
}

// A monotone map of new indices to old ones, decomposed into
// identity-with-offset runs, so a splice copies run by run at word
// granularity.
struct MapRuns {
  struct Run {
    std::int64_t dst;  // first new index of the run
    std::int64_t src;  // first old index of the run
    std::int64_t len;
  };
  std::vector<Run> runs;
  Bits unmapped_new;  // new indices with no old counterpart
};

MapRuns make_runs(const std::vector<std::int64_t>& old_of_new) {
  MapRuns mr;
  const std::int64_t n = static_cast<std::int64_t>(old_of_new.size());
  mr.unmapped_new = Bits(n);
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t o = old_of_new[static_cast<std::size_t>(j)];
    if (o < 0) {
      mr.unmapped_new.set(j);
      continue;
    }
    if (!mr.runs.empty() && mr.runs.back().dst + mr.runs.back().len == j &&
        mr.runs.back().src + mr.runs.back().len == o) {
      ++mr.runs.back().len;
    } else {
      mr.runs.push_back({j, o, 1});
    }
  }
  return mr;
}

// Fills `parent` with the old cell containing each new cell's
// representative. A kept cell (old_of_new >= 0) is its own parent; the
// others, about two per repair on M_3(32), are found by a scan. Returns
// false when a representative lies in no old cell (the old partition
// covers every then-good node, so this is defensive).
bool parent_map(const EquivPartition& old_part, const EquivPartition& new_part,
                const std::vector<std::int64_t>& old_of_new,
                std::vector<std::int64_t>* parent) {
  *parent = old_of_new;
  for (std::size_t i = 0; i < parent->size(); ++i) {
    if ((*parent)[i] >= 0) continue;
    const Point rep = new_part.rep(static_cast<std::int64_t>(i));
    std::int64_t o = 0;
    while (o < old_part.size() &&
           !old_part.sets[static_cast<std::size_t>(o)].contains(rep)) {
      ++o;
    }
    if (o == old_part.size()) return false;
    (*parent)[i] = o;
  }
  return true;
}

}  // namespace

ReachComputation compute_reachability(const MeshShape& shape,
                                      const FaultSet& faults,
                                      const MultiRoundOrder& orders,
                                      ReachBackend backend,
                                      ReachCapture* capture) {
  if (orders.empty()) {
    throw std::invalid_argument("compute_reachability: need at least 1 round");
  }
  if (capture != nullptr) *capture = ReachCapture{};
  ReachComputation out;
  const int k = static_cast<int>(orders.size());
  const std::vector<DimOrder> distinct = distinct_orders(orders, &out.round_part);

  Stopwatch watch;
  {
    obs::ScopedTimer partition_timer("solver.partition");
    for (const DimOrder& order : distinct) {
      PartitionSpans ses_spans;
      PartitionSpans des_spans;
      out.ses.push_back(find_ses_partition(
          shape, faults, order, capture != nullptr ? &ses_spans : nullptr));
      out.des.push_back(find_des_partition(
          shape, faults, order, capture != nullptr ? &des_spans : nullptr));
      if (capture != nullptr) {
        capture->ses_spans.push_back(std::move(ses_spans));
        capture->des_spans.push_back(std::move(des_spans));
      }
    }
  }
  out.seconds_partition = watch.seconds();

  watch.reset();
  obs::ScopedTimer matrices_timer("solver.reach_matrices");
  if (backend == ReachBackend::kAuto) {
    backend = flood_is_cheaper(shape, orders.size(), out.last_des().size())
                  ? ReachBackend::kFlood
                  : ReachBackend::kMatrix;
  }
  if (backend == ReachBackend::kFlood) {
    const FloodOracle flood(shape, faults);
    const EquivPartition& first = out.first_ses();
    const EquivPartition& last = out.last_des();
    std::vector<NodeId> des_reps(static_cast<std::size_t>(last.size()));
    for (std::int64_t j = 0; j < last.size(); ++j) {
      des_reps[static_cast<std::size_t>(j)] = shape.index(last.rep(j));
    }
    BitMatrix rk(first.size(), last.size());
    // One k-round flood per SES representative; representatives are
    // independent and each fills its own row of rk.
    par::parallel_for(0, first.size(), 1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const Bits rows = flood.reach_from(first.rep(i), orders);
        for (std::int64_t j = 0; j < last.size(); ++j) {
          if (rows.test(des_reps[static_cast<std::size_t>(j)])) rk.set(i, j);
        }
      }
    });
    out.rk = std::move(rk);
    out.seconds_matrices = watch.seconds();
    return out;
  }

  const ReachOracle oracle(shape, faults);
  std::vector<BitMatrix> r(distinct.size());
  for (std::size_t u = 0; u < distinct.size(); ++u) {
    r[u] = one_round_reach_matrix(oracle, out.ses[u], out.des[u], distinct[u]);
  }

  // Intersection matrices are cached per (prev_ordering, next_ordering)
  // pair; icache is sized up front, so the pointers into it stay valid.
  std::vector<std::vector<BitMatrix>> icache(
      distinct.size(), std::vector<BitMatrix>(distinct.size()));
  std::vector<const BitMatrix*> rounds;
  std::vector<const BitMatrix*> inters;
  for (int t = 0; t < k; ++t) {
    const int next = out.round_part[static_cast<std::size_t>(t)];
    rounds.push_back(&r[static_cast<std::size_t>(next)]);
    if (t == 0) continue;
    const int prev = out.round_part[static_cast<std::size_t>(t - 1)];
    BitMatrix& inter = icache[static_cast<std::size_t>(prev)]
                             [static_cast<std::size_t>(next)];
    if (inter.rows() == 0) {
      inter = intersection_matrix(out.des[static_cast<std::size_t>(prev)],
                                  out.ses[static_cast<std::size_t>(next)]);
    }
    inters.push_back(&inter);
  }
  out.rk = reach_chain(rounds, inters);
  if (capture != nullptr) {
    for (const BitMatrix* inter : inters) capture->inters.push_back(*inter);
    capture->distinct = distinct;
    capture->r = std::move(r);
    capture->valid = true;
  }
  out.seconds_matrices = watch.seconds();
  return out;
}

bool compute_reachability_incremental(
    const MeshShape& shape, const FaultSet& faults,
    const MultiRoundOrder& orders, const std::vector<Point>& delta_nodes,
    const std::vector<LinkFault>& delta_links, const ReachComputation& prev,
    const ReachCapture& prev_cap, ReachComputation* out, ReachCapture* out_cap,
    ReachDelta* delta) {
  if (orders.empty() || !prev_cap.valid) return false;
  // The route masks below assume routes are monotone in every coordinate;
  // torus routes may wrap, so the incremental path only handles plain
  // meshes.
  if (shape.wraps()) return false;
  const int k = static_cast<int>(orders.size());

  ReachComputation res;
  const std::vector<DimOrder> distinct = distinct_orders(orders, &res.round_part);
  if (distinct != prev_cap.distinct || res.round_part != prev.round_part) {
    return false;
  }
  const std::size_t nu = distinct.size();
  assert(prev_cap.r.size() == nu && prev_cap.ses_spans.size() == nu &&
         prev_cap.des_spans.size() == nu);

  ReachCapture cap;
  cap.distinct = distinct;

  // Layer 1: local partition repair. Bails (and we fall back to the full
  // solve) when the new damage merges previously independent regions.
  Stopwatch watch;
  std::vector<std::vector<std::int64_t>> ses_map(nu);
  std::vector<std::vector<std::int64_t>> des_map(nu);
  {
    obs::ScopedTimer partition_timer("solver.partition");
    for (std::size_t u = 0; u < nu; ++u) {
      auto sr = repair_partition(shape, faults, delta_nodes, delta_links,
                                 distinct[u], /*des=*/false, prev.ses[u],
                                 prev_cap.ses_spans[u]);
      if (!sr) return false;
      auto dr = repair_partition(shape, faults, delta_nodes, delta_links,
                                 distinct[u], /*des=*/true, prev.des[u],
                                 prev_cap.des_spans[u]);
      if (!dr) return false;
      delta->partition_cells_reused += sr->cells_reused + dr->cells_reused;
      delta->partition_cells_recomputed +=
          sr->cells_recomputed + dr->cells_recomputed;
      res.ses.push_back(std::move(sr->partition));
      res.des.push_back(std::move(dr->partition));
      cap.ses_spans.push_back(std::move(sr->spans));
      cap.des_spans.push_back(std::move(dr->spans));
      ses_map[u] = std::move(sr->old_of_new);
      des_map[u] = std::move(dr->old_of_new);
    }
  }
  res.seconds_partition = watch.seconds();

  watch.reset();
  obs::ScopedTimer matrices_timer("solver.reach_matrices");
  // Once the fault count grows into the flood backend's regime, hand back
  // to the full computation.
  if (flood_is_cheaper(shape, orders.size(), res.last_des().size())) {
    return false;
  }

  // Parent maps: the old cell containing each new cell's representative
  // (a kept cell is its own parent). By the partition's uniformity
  // guarantee, reach under the OLD fault set between any members of two
  // old cells equals reach between their representatives, so every new
  // R entry starts as the old entry of its row and column parents, and
  // the delta masks below apply the new faults exactly. Several new cells
  // may share a parent, which is fine for copying.
  std::vector<std::vector<std::int64_t>> ses_parent(nu);
  std::vector<MapRuns> ses_runs(nu);
  std::vector<MapRuns> des_parent_runs(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    std::vector<std::int64_t> des_parent;
    if (!parent_map(prev.ses[u], res.ses[u], ses_map[u], &ses_parent[u]) ||
        !parent_map(prev.des[u], res.des[u], des_map[u], &des_parent)) {
      return false;
    }
    ses_runs[u] = make_runs(ses_map[u]);
    des_parent_runs[u] = make_runs(des_parent);
  }

  // Route-mask endpoints: the delta nodes, then both ends of each delta
  // link. A dimension-ordered route is monotone in every coordinate, so
  // it holds both ends of a link exactly when it crosses that link, and
  // it crosses away from its source's side. Entry (i, j) turns 0 iff its
  // route passes a delta node or crosses a delta link in a faulted
  // direction; every other entry keeps its old value (the incremental
  // path only adds faults, so a 0 stays 0).
  std::vector<Point> ends = delta_nodes;
  for (const LinkFault& lf : delta_links) {
    Point to = lf.from;
    to[lf.dim] += dir_sign(lf.dir);
    ends.push_back(lf.from);
    ends.push_back(to);
  }

  // Layer 2: per-ordering R_u, copied from the parents and cleared by the
  // delta masks.
  const int d = shape.dim();
  std::vector<BitMatrix> r(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    const EquivPartition& ses = res.ses[u];
    const EquivPartition& des = res.des[u];
    const BitMatrix& old_r = prev_cap.r[u];
    const std::vector<std::int64_t>& sparent = ses_parent[u];
    const std::int64_t p = ses.size();
    const std::int64_t q = des.size();

    // Per delta endpoint e and dimension dd: DES columns whose
    // representative has coord dd >= the endpoint's (ge), <= it (le), or
    // equal (eq). These turn "endpoint on the dimension-ordered route
    // from v to rep_j" into a few word-wide ANDs per row below; only the
    // coordinates the delta actually touches get a mask, not full
    // per-coordinate tables.
    const std::size_t ne = ends.size();
    std::vector<Bits> ge_ep(ne * static_cast<std::size_t>(d), Bits(q));
    std::vector<Bits> le_ep(ne * static_cast<std::size_t>(d), Bits(q));
    std::vector<Bits> eq_ep(ne * static_cast<std::size_t>(d), Bits(q));
    for (std::int64_t j = 0; j < q; ++j) {
      const Point w = des.rep(j);
      for (std::size_t e = 0; e < ne; ++e) {
        for (int dd = 0; dd < d; ++dd) {
          const std::size_t at = e * static_cast<std::size_t>(d) +
                                 static_cast<std::size_t>(dd);
          if (w[dd] >= ends[e][dd]) ge_ep[at].set(j);
          if (w[dd] <= ends[e][dd]) le_ep[at].set(j);
          if (w[dd] == ends[e][dd]) eq_ep[at].set(j);
        }
      }
    }
    Bits all_cols(q);
    for (std::int64_t j = 0; j < q; ++j) all_cols.set(j);

    r[u] = BitMatrix(p, q);
    std::vector<std::int64_t> cleared(static_cast<std::size_t>(p), 0);
    const MapRuns& druns = des_parent_runs[u];
    BitMatrix& ru = r[u];
    // Row bands, each writing disjoint rows and its own counters:
    // deterministic at any thread count.
    par::parallel_for(0, p, 0, [&](std::int64_t i0, std::int64_t i1) {
      // Scratch masks live outside the row loop so the copy-assignments
      // below reuse their buffers instead of reallocating per row.
      Bits dirty(q);
      Bits m(q);
      Bits m2(q);
      Bits pe(q);
      Bits term(q);
      for (std::int64_t i = i0; i < i1; ++i) {
        const Point v = ses.rep(i);
        // ORs into `out` the columns j whose dimension-ordered route from v
        // to rep_j passes through endpoint e. The route corrects
        // dimensions in `order`; the endpoint sits on the segment at
        // position t iff the already-corrected coordinates match it on the
        // destination side (eq masks), the not-yet-corrected ones match it
        // on the source side (scalar compares against v), and its
        // coordinate in the segment dimension lies between v's and the
        // destination's.
        auto route_mask = [&](std::size_t e, Bits* out) {
          const Point& x = ends[e];
          const std::size_t base = e * static_cast<std::size_t>(d);
          int t_min = 0;
          for (int t = 0; t < d; ++t) {
            if (v[distinct[u].at(t)] != x[distinct[u].at(t)]) t_min = t;
          }
          pe = all_cols;
          for (int t = 0; t < d; ++t) {
            const int dd = distinct[u].at(t);
            const std::size_t at = base + static_cast<std::size_t>(dd);
            if (t >= t_min) {
              term = pe;
              if (x[dd] > v[dd]) {
                term &= ge_ep[at];
              } else if (x[dd] < v[dd]) {
                term &= le_ep[at];
              }
              *out |= term;
            }
            if (t + 1 < d) {
              pe &= eq_ep[at];
              if (!pe.any()) break;
            }
          }
        };
        dirty.clear();
        for (std::size_t e = 0; e < delta_nodes.size(); ++e) {
          route_mask(e, &dirty);
        }
        for (std::size_t l = 0; l < delta_links.size(); ++l) {
          const LinkFault& lf = delta_links[l];
          if (!lf.bidirectional &&
              (v[lf.dim] - lf.from[lf.dim]) * dir_sign(lf.dir) > 0) {
            continue;  // routes from v cross this link the healthy way
          }
          const std::size_t e = delta_nodes.size() + 2 * l;
          m.clear();
          m2.clear();
          route_mask(e, &m);
          route_mask(e + 1, &m2);
          m &= m2;
          dirty |= m;
        }
        // The row and every column run copy from their parents: the old
        // reachability of every member of those cells, v included.
        const std::int64_t oi = sparent[static_cast<std::size_t>(i)];
        for (const auto& run : druns.runs) {
          ru.copy_row_range(i, run.dst, old_r, oi, run.src, run.len);
        }
        cleared[static_cast<std::size_t>(i)] = ru.row_clear_masked(i, dirty);
      }
    });
    for (std::int64_t i = 0; i < p; ++i) {
      delta->blocks_recomputed += cleared[static_cast<std::size_t>(i)];
      delta->blocks_reused += q - cleared[static_cast<std::size_t>(i)];
    }
  }

  // Layer 2b: I_t per chain step, with the entries between surviving
  // cells copied.
  for (int t = 1; t < k; ++t) {
    const std::size_t pu =
        static_cast<std::size_t>(res.round_part[static_cast<std::size_t>(t - 1)]);
    const std::size_t su =
        static_cast<std::size_t>(res.round_part[static_cast<std::size_t>(t)]);
    const BitMatrix& old_inter = prev_cap.inters[static_cast<std::size_t>(t - 1)];
    const MapRuns& sruns = ses_runs[su];
    const EquivPartition& dprev = res.des[pu];
    const EquivPartition& snext = res.ses[su];
    // A mapped cell is the old RectSet verbatim (the repair either splices
    // it or equality-matches it), so mapped-row x mapped-col intersection
    // entries are the old entries: splice them and call intersects only
    // for brand-new rows and columns.
    BitMatrix inter(dprev.size(), snext.size());
    std::vector<std::int64_t> new_cols;
    sruns.unmapped_new.for_each(
        [&](std::int64_t j) { new_cols.push_back(j); });
    for (std::int64_t rr = 0; rr < inter.rows(); ++rr) {
      const std::int64_t orr = des_map[pu][static_cast<std::size_t>(rr)];
      if (orr < 0) {
        for (std::int64_t j = 0; j < inter.cols(); ++j) {
          if (RectSet::intersects(dprev.sets[static_cast<std::size_t>(rr)],
                                  snext.sets[static_cast<std::size_t>(j)])) {
            inter.set(rr, j);
          }
        }
        continue;
      }
      for (const auto& run : sruns.runs) {
        inter.copy_row_range(rr, run.dst, old_inter, orr, run.src, run.len);
      }
      for (const std::int64_t j : new_cols) {
        if (RectSet::intersects(dprev.sets[static_cast<std::size_t>(rr)],
                                snext.sets[static_cast<std::size_t>(j)])) {
          inter.set(rr, j);
        }
      }
    }
    cap.inters.push_back(std::move(inter));
  }

  // R^(k) itself comes from the code the full solve runs.
  std::vector<const BitMatrix*> rounds;
  std::vector<const BitMatrix*> inters;
  for (int t = 0; t < k; ++t) {
    rounds.push_back(&r[static_cast<std::size_t>(
        res.round_part[static_cast<std::size_t>(t)])]);
    if (t > 0) inters.push_back(&cap.inters[static_cast<std::size_t>(t - 1)]);
  }
  res.rk = reach_chain(rounds, inters);
  cap.r = std::move(r);
  cap.valid = true;
  res.seconds_matrices = watch.seconds();
  *out = std::move(res);
  *out_cap = std::move(cap);
  return true;
}

}  // namespace lamb
