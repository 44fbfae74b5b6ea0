#include "wormhole/route_cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "reach/route.hpp"

namespace lamb::wormhole {

namespace {

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::counter("wormhole.route_cache.hit");
  return c;
}

obs::Counter& miss_counter() {
  static obs::Counter& c = obs::counter("wormhole.route_cache.miss");
  return c;
}

// Shared staleness predicate for invalidate()/adopt(): a flood may have
// used a dead element iff it contains a delta node or both endpoints of
// a delta link (see invalidate() in the header for the argument).
class StaleTest {
 public:
  StaleTest(const MeshShape& shape, const std::vector<NodeId>& delta_nodes,
            const std::vector<LinkFault>& delta_links)
      : nodes_(&delta_nodes) {
    // Pre-resolve the link endpoints once (delta is tiny, caches are not).
    link_ends_.reserve(delta_links.size());
    for (const LinkFault& lf : delta_links) {
      Point nb;
      if (!shape.neighbor(lf.from, lf.dim, lf.dir, &nb)) continue;
      link_ends_.emplace_back(shape.index(lf.from), shape.index(nb));
    }
  }

  bool operator()(const Bits& flood) const {
    for (NodeId id : *nodes_) {
      if (flood.test(id)) return true;
    }
    for (const auto& [a, b] : link_ends_) {
      if (flood.test(a) && flood.test(b)) return true;
    }
    return false;
  }

 private:
  const std::vector<NodeId>* nodes_;
  std::vector<std::pair<NodeId, NodeId>> link_ends_;
};

// Hops from u to w along one coordinate (the shorter arc on a torus): one
// term of MeshShape::l1_distance, inlined for the candidate scan.
std::int64_t axis_distance(const MeshShape& shape, int j, Coord u, Coord w) {
  const std::int64_t d = u > w ? u - w : w - u;
  return shape.wraps() ? std::min<std::int64_t>(d, shape.width(j) - d) : d;
}

// Length of the two-round route src -> u -> dst.
std::int64_t total_via(const MeshShape& shape, const Point& src,
                       const Point& u, const Point& dst) {
  std::int64_t total = 0;
  for (int j = 0; j < shape.dim(); ++j) {
    total += axis_distance(shape, j, src[j], u[j]) +
             axis_distance(shape, j, u[j], dst[j]);
  }
  return total;
}

// Calls fn(word_index, bits) for every nonzero word of fwd & bwd restricted
// to the box [lo, hi] of a non-wrapping mesh, in ascending id order. Each
// dimension-0 row of the box is one id interval, masked at its two end
// words; fn returns false to stop the walk.
template <typename Fn>
void for_each_box_word(const MeshShape& shape, const Bits& fwd,
                       const Bits& bwd, const Point& lo, const Point& hi,
                       Fn&& fn) {
  const std::uint64_t* f = fwd.words().data();
  const std::uint64_t* b = bwd.words().data();
  Point row = lo;  // row[0] unused: the row spans lo[0]..hi[0]
  for (;;) {
    NodeId base = 0;
    for (int j = 1; j < shape.dim(); ++j) base += row[j] * shape.stride(j);
    const NodeId first = base + lo[0];
    const NodeId last = base + hi[0];
    const std::size_t first_word = static_cast<std::size_t>(first >> 6);
    const std::size_t last_word = static_cast<std::size_t>(last >> 6);
    for (std::size_t w = first_word; w <= last_word; ++w) {
      std::uint64_t mask = ~std::uint64_t{0};
      if (w == first_word) mask &= mask << (first & 63);
      if (w == last_word) mask &= ~std::uint64_t{0} >> (63 - (last & 63));
      const std::uint64_t bits = f[w] & b[w] & mask;
      if (bits != 0 && !fn(w, bits)) return;
    }
    int j = 1;
    for (; j < shape.dim() && row[j] == hi[j]; ++j) row[j] = lo[j];
    if (j == shape.dim()) return;
    ++row[j];
  }
}

// Calls fn(u) for every u in fwd & bwd, ascending, without materializing
// the intersection.
template <typename Fn>
void for_each_common(const Bits& fwd, const Bits& bwd, Fn&& fn) {
  const std::vector<std::uint64_t>& f = fwd.words();
  const std::vector<std::uint64_t>& b = bwd.words();
  for (std::size_t w = 0; w < f.size(); ++w) {
    for (std::uint64_t bits = f[w] & b[w]; bits != 0; bits &= bits - 1) {
      fn(static_cast<NodeId>(w * 64) + std::countr_zero(bits));
    }
  }
}

// The intermediate of a two-round route: a node of fwd & bwd minimizing
// the total length, or -1 when the intersection is empty. Ties go to the
// least-loaded, then lowest-id node when `load` is set, else uniformly at
// random with at most one draw from `rng`.
//
// On a mesh, l1(src,u) + l1(u,dst) = l1(src,dst) exactly when u lies in
// the src-dst bounding box, so whenever the box holds a candidate the
// minimal set is the box's candidates and nothing else is scanned. Only
// when it holds none (and always on a torus) is the whole intersection
// scanned for its minimum total.
NodeId choose_intermediate(const MeshShape& shape, const Bits& fwd,
                           const Bits& bwd, const Point& src,
                           const Point& dst, Rng& rng, const NodeLoad* load) {
  auto load_of = [load](NodeId u) {
    return load->counts[static_cast<std::size_t>(u)];
  };
  if (!shape.wraps()) {
    Point lo;
    Point hi;
    for (int j = 0; j < shape.dim(); ++j) {
      lo[j] = std::min(src[j], dst[j]);
      hi[j] = std::max(src[j], dst[j]);
    }
    if (load != nullptr) {
      NodeId chosen = -1;
      std::int32_t best_load = std::numeric_limits<std::int32_t>::max();
      for_each_box_word(shape, fwd, bwd, lo, hi,
                        [&](std::size_t w, std::uint64_t bits) {
                          for (; bits != 0; bits &= bits - 1) {
                            const NodeId u = static_cast<NodeId>(w * 64) +
                                             std::countr_zero(bits);
                            if (load_of(u) < best_load) {
                              best_load = load_of(u);
                              chosen = u;
                            }
                          }
                          return true;
                        });
      if (chosen >= 0) return chosen;
    } else {
      std::int64_t count = 0;
      for_each_box_word(shape, fwd, bwd, lo, hi,
                        [&](std::size_t, std::uint64_t bits) {
                          count += std::popcount(bits);
                          return true;
                        });
      if (count > 0) {
        std::int64_t rank =
            count == 1
                ? 0
                : static_cast<std::int64_t>(
                      rng.below(static_cast<std::uint64_t>(count)));
        NodeId chosen = -1;
        for_each_box_word(shape, fwd, bwd, lo, hi,
                          [&](std::size_t w, std::uint64_t bits) {
                            const int here = std::popcount(bits);
                            if (rank >= here) {
                              rank -= here;
                              return true;
                            }
                            for (; rank > 0; --rank) bits &= bits - 1;
                            chosen = static_cast<NodeId>(w * 64) +
                                     std::countr_zero(bits);
                            return false;
                          });
        return chosen;
      }
    }
  }

  // No candidate in the box, or a torus: one pass for the minimum total.
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  std::int32_t best_load = std::numeric_limits<std::int32_t>::max();
  NodeId chosen = -1;
  std::int64_t ties = 0;
  for_each_common(fwd, bwd, [&](NodeId u) {
    const std::int64_t total = total_via(shape, src, shape.point(u), dst);
    if (total > best) return;
    if (load != nullptr) {
      // Length first, then least-used, then lowest id.
      if (total < best || load_of(u) < best_load) {
        best = total;
        best_load = load_of(u);
        chosen = u;
      }
    } else if (total < best) {
      best = total;
      chosen = u;
      ties = 1;
    } else {
      ++ties;
    }
  });
  if (load != nullptr || ties <= 1) return chosen;
  std::int64_t rank =
      static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(ties)));
  for_each_common(fwd, bwd, [&](NodeId u) {
    if (rank < 0 || total_via(shape, src, shape.point(u), dst) != best) return;
    if (rank-- == 0) chosen = u;
  });
  return chosen;
}

}  // namespace

std::int64_t NodeLoad::total() const {
  std::int64_t sum = 0;
  for (const std::int32_t c : counts) sum += c;
  return sum;
}

std::int32_t NodeLoad::max() const {
  std::int32_t best = 0;
  for (const std::int32_t c : counts) best = std::max(best, c);
  return best;
}

double NodeLoad::mean_nonzero() const {
  std::int64_t sum = 0;
  std::int64_t n = 0;
  for (const std::int32_t c : counts) {
    if (c > 0) {
      sum += c;
      ++n;
    }
  }
  return n > 0 ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

NodeId NodeLoad::hottest() const {
  NodeId best = -1;
  std::int32_t best_count = 0;
  for (std::size_t id = 0; id < counts.size(); ++id) {
    if (counts[id] > best_count) {
      best_count = counts[id];
      best = static_cast<NodeId>(id);
    }
  }
  return best;
}

void NodeLoad::reset() { std::fill(counts.begin(), counts.end(), 0); }

RouteCache::RouteCache(const MeshShape& shape, const FaultSet& faults,
                       MultiRoundOrder orders)
    : shape_(&shape),
      faults_(&faults),
      orders_(std::move(orders)),
      fallback_(shape, faults, orders_) {}

void RouteCache::reconfigure() {
  obs::counter("wormhole.route_cache.reconfigures").add();
  flood_.reset();
  forward_.clear();
  backward_.clear();
}

RouteCache::InvalidateStats RouteCache::invalidate(
    const std::vector<NodeId>& delta_nodes,
    const std::vector<LinkFault>& delta_links) {
  obs::counter("wormhole.route_cache.invalidates").add();
  flood_.reset();
  const StaleTest stale(*shape_, delta_nodes, delta_links);
  InvalidateStats stats;
  for (auto* cache : {&forward_, &backward_}) {
    for (auto it = cache->begin(); it != cache->end();) {
      if (stale(it->second)) {
        it = cache->erase(it);
        ++stats.dropped;
      } else {
        ++it;
        ++stats.retained;
      }
    }
  }
  obs::counter("wormhole.route_cache.retained").add(stats.retained);
  obs::counter("wormhole.route_cache.dropped").add(stats.dropped);
  return stats;
}

RouteCache::InvalidateStats RouteCache::adopt(
    const RouteCache& prev, const std::vector<NodeId>& delta_nodes,
    const std::vector<LinkFault>& delta_links) {
  obs::counter("wormhole.route_cache.adopts").add();
  flood_.reset();
  const StaleTest stale(*shape_, delta_nodes, delta_links);
  InvalidateStats stats;
  const std::pair<const std::unordered_map<NodeId, Bits>*,
                  std::unordered_map<NodeId, Bits>*>
      sides[] = {{&prev.forward_, &forward_}, {&prev.backward_, &backward_}};
  for (const auto& [from, to] : sides) {
    for (const auto& [node, flood] : *from) {
      if (stale(flood)) {
        ++stats.dropped;
      } else if (to->emplace(node, flood).second) {
        ++stats.retained;
      }
    }
  }
  obs::counter("wormhole.route_cache.retained").add(stats.retained);
  obs::counter("wormhole.route_cache.dropped").add(stats.dropped);
  return stats;
}

const FloodOracle& RouteCache::flood() {
  if (!flood_) flood_.emplace(*shape_, *faults_);
  return *flood_;
}

const Bits& RouteCache::forward_of(NodeId src) {
  auto it = forward_.find(src);
  if (it != forward_.end()) {
    ++hits_;
    hit_counter().add();
    return it->second;
  }
  ++misses_;
  miss_counter().add();
  return forward_.emplace(src, flood().reach1_from(shape_->point(src),
                                                  orders_.front()))
      .first->second;
}

const Bits& RouteCache::backward_of(NodeId dst) {
  auto it = backward_.find(dst);
  if (it != backward_.end()) {
    ++hits_;
    hit_counter().add();
    return it->second;
  }
  ++misses_;
  miss_counter().add();
  return backward_.emplace(dst, flood().reach1_to(shape_->point(dst),
                                                 orders_.back()))
      .first->second;
}

std::optional<Route> RouteCache::build(NodeId src, NodeId dst, Rng& rng,
                                       NodeLoad* load) {
  if (orders_.size() != 2) {
    obs::counter("wormhole.route_cache.fallback").add();
    return fallback_.build(src, dst, rng);
  }

  const Bits& fwd = forward_of(src);
  const Bits& bwd = backward_of(dst);
  const Point src_p = shape_->point(src);
  const Point dst_p = shape_->point(dst);
  const NodeId chosen =
      choose_intermediate(*shape_, fwd, bwd, src_p, dst_p, rng, load);
  if (chosen < 0) return std::nullopt;

  Route route;
  route.src = src;
  route.dst = dst;
  route.intermediates = {chosen};
  const Point mid = shape_->point(chosen);
  // Hops go straight into the route, reserved to its known length.
  route.hops.reserve(
      static_cast<std::size_t>(total_via(*shape_, src_p, mid, dst_p)));
  for (int round = 0; round < 2; ++round) {
    const Point& from = round == 0 ? src_p : mid;
    const Point& to = round == 0 ? mid : dst_p;
    const DimOrder& order = orders_[static_cast<std::size_t>(round)];
    for (int t = 0; t < order.dim(); ++t) {
      const int j = order.at(t);
      Dir dir = Dir::Pos;
      Coord steps = 0;
      segment_geometry(*shape_, j, from[j], to[j], &dir, &steps);
      route.hops.insert(route.hops.end(), static_cast<std::size_t>(steps),
                        Hop{j, dir, round});
    }
  }
  if (load != nullptr) {
    // Charge every node the worm will occupy.
    Point at = src_p;
    ++load->counts[static_cast<std::size_t>(src)];
    for (const Hop& hop : route.hops) {
      Point next;
      shape_->neighbor(at, hop.dim, hop.dir, &next);
      at = next;
      ++load->counts[static_cast<std::size_t>(shape_->index(at))];
    }
  }
  return route;
}

}  // namespace lamb::wormhole
