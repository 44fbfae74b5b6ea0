#include "reach/flood_oracle.hpp"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>

#include "obs/obs.hpp"

namespace lamb {

namespace {

using Word = std::uint64_t;

// On a torus, travel from a to b goes positive iff the forward arc is no
// longer than the backward arc.
bool travels_positive(const MeshShape& shape, int j, Coord a, Coord b) {
  if (!shape.wraps()) return b >= a;
  const Coord n = shape.width(j);
  const Coord fwd = static_cast<Coord>(((b - a) % n + n) % n);
  return fwd <= n - fwd;
}

// The 64 bits of `r` starting at bit `off`; bits outside the words read
// as zero.
Word load64(std::span<const Word> r, std::int64_t off) {
  const std::int64_t n = static_cast<std::int64_t>(r.size());
  const std::int64_t wi = off >> 6;  // floor, also for negative offsets
  const int sh = static_cast<int>(off & 63);
  const auto at = [&](std::int64_t i) {
    return i >= 0 && i < n ? r[static_cast<std::size_t>(i)] : Word{0};
  };
  if (sh == 0) return at(wi);
  return (at(wi) >> sh) | (at(wi + 1) << (64 - sh));
}

// Closes r[id] |= r[id - s] & m[id] over words [w0, w1], ascending. Every
// word outside the range must already be final.
void close_up(std::span<Word> r, const Word* m, std::int64_t s,
              std::int64_t w0, std::int64_t w1) {
  if (s >= 64) {
    // Sources sit in lower, already-final words.
    for (std::int64_t w = w0; w <= w1; ++w) {
      const auto i = static_cast<std::size_t>(w);
      r[i] |= load64(r, w * 64 - s) & m[i];
    }
    return;
  }
  for (std::int64_t w = w0; w <= w1; ++w) {
    const auto i = static_cast<std::size_t>(w);
    Word p = m[i];
    // Carry: the low s bits take the previous word's top s bits.
    Word g = r[i] | (w > 0 ? (r[i - 1] >> (64 - s)) & p : 0);
    for (std::int64_t sh = s; sh < 64; sh <<= 1) {
      g |= p & (g << sh);
      p &= p << sh;
    }
    r[i] = g;
  }
}

// Mirror of close_up: r[id] |= r[id + s] & m[id] over words [w0, w1],
// descending. Returns the first and last nonzero word of the range
// (-1, -1 when all are zero).
std::pair<std::int64_t, std::int64_t> close_down(std::span<Word> r,
                                                 const Word* m,
                                                 std::int64_t s,
                                                 std::int64_t w0,
                                                 std::int64_t w1) {
  const std::int64_t n = static_cast<std::int64_t>(r.size());
  std::int64_t first = -1;
  std::int64_t last = -1;
  for (std::int64_t w = w1; w >= w0; --w) {
    const auto i = static_cast<std::size_t>(w);
    Word g;
    if (s >= 64) {
      g = r[i] | (load64(r, w * 64 + s) & m[i]);
    } else {
      Word p = m[i];
      g = r[i] | (w + 1 < n ? (r[i + 1] << (64 - s)) & p : 0);
      for (std::int64_t sh = s; sh < 64; sh <<= 1) {
        g |= p & (g >> sh);
        p &= p >> sh;
      }
    }
    r[i] = g;
    if (g != 0) {
      if (last < 0) last = w;
      first = w;
    }
  }
  return {first, last};
}

// Sets bits [begin, end) of the words at `w`.
void fill_range(Word* w, std::int64_t begin, std::int64_t end) {
  if (begin >= end) return;
  const auto first = static_cast<std::size_t>(begin >> 6);
  const auto last = static_cast<std::size_t>((end - 1) >> 6);
  const Word head = ~Word{0} << (begin & 63);
  const Word tail = ~Word{0} >> (63 - ((end - 1) & 63));
  if (first == last) {
    w[first] |= head & tail;
    return;
  }
  w[first] |= head;
  for (std::size_t i = first + 1; i < last; ++i) w[i] = ~Word{0};
  w[last] |= tail;
}

}  // namespace

FloodOracle::FloodOracle(const MeshShape& shape, const FaultSet& faults)
    : shape_(&shape),
      faults_(&faults),
      nwords_((shape.size() + 63) / 64) {
  if (shape.wraps()) return;
  const NodeId n = shape.size();
  const auto nw = static_cast<std::size_t>(nwords_);
  std::vector<Word> good(nw, 0);
  fill_range(good.data(), 0, n);
  for (const NodeId id : faults.node_faults()) {
    good[static_cast<std::size_t>(id >> 6)] &= ~(Word{1} << (id & 63));
  }

  masks_.assign(nw * kMaskKinds * static_cast<std::size_t>(shape.dim()), 0);
  for (int j = 0; j < shape.dim(); ++j) {
    // Within each block of s_{j+1} ids, c_j >= 1 is the id range
    // [s_j, s_{j+1}) and c_j <= n_j - 2 is [0, s_{j+1} - s_j).
    const NodeId s = shape.stride(j);
    const NodeId block = s * shape.width(j);
    Word* above = mask(j, kFwdUp);   // c_j >= 1
    Word* below = mask(j, kFwdDown);  // c_j <= n_j - 2
    for (NodeId b = 0; b < n; b += block) {
      fill_range(above, b + s, b + block);
      fill_range(below, b, b + block - s);
    }
    Word* bwd_up = mask(j, kBwdUp);
    Word* bwd_down = mask(j, kBwdDown);
    for (std::size_t i = 0; i < nw; ++i) {
      bwd_up[i] = above[i] &= good[i];
      bwd_down[i] = below[i] &= good[i];
    }
  }
  // One clear per directed link fault: the link's head loses the forward
  // entry, its tail the backward exit.
  const auto clear = [&](int j, MaskKind kind, NodeId id) {
    mask(j, kind)[id >> 6] &= ~(Word{1} << (id & 63));
  };
  const auto clear_link = [&](const Point& from, int j, Dir dir) {
    Point to;
    if (!shape.neighbor(from, j, dir, &to)) return;
    const bool pos = dir == Dir::Pos;
    clear(j, pos ? kFwdUp : kFwdDown, shape.index(to));
    clear(j, pos ? kBwdDown : kBwdUp, shape.index(from));
  };
  for (const LinkFault& lf : faults.link_faults()) {
    clear_link(lf.from, lf.dim, lf.dir);
    if (lf.bidirectional) {
      Point other;
      if (shape.neighbor(lf.from, lf.dim, lf.dir, &other)) {
        clear_link(other, lf.dim, opposite(lf.dir));
      }
    }
  }
}

void FloodOracle::flood(Bits* cur, const DimOrder& order, bool forward,
                        std::int64_t lo_word, std::int64_t hi_word) const {
  const int d = order.dim();
  if (shape_->wraps()) {
    for (int t = 0; t < d; ++t) {
      const int j = order.at(forward ? t : d - 1 - t);
      Bits next(shape_->size());
      cur->for_each([&](NodeId id) {
        if (forward) {
          expand_line_from(shape_->point(id), j, &next);
        } else {
          expand_line_to(shape_->point(id), j, &next);
        }
      });
      *cur = std::move(next);
    }
    return;
  }
  const NodeId last_id = shape_->size() - 1;
  std::span<Word> r = cur->mutable_words();
  for (int t = 0; t < d && lo_word >= 0; ++t) {
    const int j = order.at(forward ? t : d - 1 - t);
    const NodeId s = shape_->stride(j);
    const NodeId reach = s * (shape_->width(j) - 1);
    const NodeId block = reach + s;
    // Lines through ids in [lo, hi] stay inside their s_{j+1} blocks and
    // within (n_j - 1) strides of their member.
    const NodeId lo = lo_word * 64;
    const NodeId hi = std::min(hi_word * 64 + 63, last_id);
    const NodeId begin = std::max(lo - lo % block, lo - reach);
    const NodeId end = std::min({hi - hi % block + block - 1, hi + reach,
                                 last_id});
    // Forward floods enter id from id - s (up) and id + s (down);
    // backward floods leave id toward id + s (down) and id - s (up). The
    // two closures compose in either order, since a straight run on one
    // line only extends in one direction.
    close_up(r, mask(j, forward ? kFwdUp : kBwdUp), s, begin >> 6, end >> 6);
    std::tie(lo_word, hi_word) =
        close_down(r, mask(j, forward ? kFwdDown : kBwdDown), s, begin >> 6,
                   end >> 6);
  }
}

void FloodOracle::expand_line_from(const Point& p, int j, Bits* out) const {
  const Coord n = shape_->width(j);
  const Coord a = p[j];
  // max_pos[s] clear <=> first s positive steps from a are all fault-free.
  Coord max_pos = 0;
  {
    Point cur = p;
    for (Coord s = 1; s < n; ++s) {
      if (faults_->link_faulty(cur, j, Dir::Pos)) break;
      Point next;
      if (!shape_->neighbor(cur, j, Dir::Pos, &next)) break;
      if (faults_->node_faulty(next)) break;
      max_pos = s;
      cur = next;
    }
  }
  Coord max_neg = 0;
  {
    Point cur = p;
    for (Coord s = 1; s < n; ++s) {
      if (faults_->link_faulty(cur, j, Dir::Neg)) break;
      Point next;
      if (!shape_->neighbor(cur, j, Dir::Neg, &next)) break;
      if (faults_->node_faulty(next)) break;
      max_neg = s;
      cur = next;
    }
  }
  Point q = p;
  for (Coord b = 0; b < n; ++b) {
    bool ok;
    if (b == a) {
      ok = true;
    } else if (travels_positive(*shape_, j, a, b)) {
      const Coord steps = shape_->wraps()
                              ? static_cast<Coord>(((b - a) % n + n) % n)
                              : static_cast<Coord>(b - a);
      ok = steps <= max_pos;
    } else {
      const Coord steps = shape_->wraps()
                              ? static_cast<Coord>(((a - b) % n + n) % n)
                              : static_cast<Coord>(a - b);
      ok = steps <= max_neg;
    }
    if (ok) {
      q[j] = b;
      out->set(shape_->index(q));
    }
  }
}

void FloodOracle::expand_line_to(const Point& p, int j, Bits* out) const {
  const Coord n = shape_->width(j);
  const Coord b = p[j];
  // Walk outward from the target: a reaches b going positive iff the path
  // a -> b (positive direction) is clear, i.e. walking backward from b we
  // stay on good nodes and good forward links.
  Coord max_from_below = 0;  // sources at distance s below b (positive travel)
  {
    Point cur = p;
    for (Coord s = 1; s < n; ++s) {
      Point prev;
      if (!shape_->neighbor(cur, j, Dir::Neg, &prev)) break;
      if (faults_->node_faulty(prev)) break;
      if (faults_->link_faulty(prev, j, Dir::Pos)) break;
      max_from_below = s;
      cur = prev;
    }
  }
  Coord max_from_above = 0;  // sources at distance s above b (negative travel)
  {
    Point cur = p;
    for (Coord s = 1; s < n; ++s) {
      Point prev;
      if (!shape_->neighbor(cur, j, Dir::Pos, &prev)) break;
      if (faults_->node_faulty(prev)) break;
      if (faults_->link_faulty(prev, j, Dir::Neg)) break;
      max_from_above = s;
      cur = prev;
    }
  }
  Point q = p;
  for (Coord a = 0; a < n; ++a) {
    bool ok;
    if (a == b) {
      ok = true;
    } else if (travels_positive(*shape_, j, a, b)) {
      const Coord steps = shape_->wraps()
                              ? static_cast<Coord>(((b - a) % n + n) % n)
                              : static_cast<Coord>(b - a);
      ok = steps <= max_from_below;
    } else {
      const Coord steps = shape_->wraps()
                              ? static_cast<Coord>(((a - b) % n + n) % n)
                              : static_cast<Coord>(a - b);
      ok = steps <= max_from_above;
    }
    if (ok) {
      q[j] = a;
      out->set(shape_->index(q));
    }
  }
}

Bits FloodOracle::reach1_from(const Point& v, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward");
  floods.add();
  Bits cur(shape_->size());
  if (faults_->node_faulty(v)) return cur;
  const NodeId id = shape_->index(v);
  cur.set(id);
  flood(&cur, order, /*forward=*/true, id >> 6, id >> 6);
  return cur;
}

Bits FloodOracle::reach1_from_set(const Bits& sources,
                                  const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.forward_set");
  floods.add();
  Bits cur = sources;
  for (const NodeId id : faults_->node_faults()) cur.reset(id);
  const std::vector<Word>& w = cur.words();
  const auto nonzero = [](Word x) { return x != 0; };
  const auto first = std::find_if(w.begin(), w.end(), nonzero);
  if (first == w.end()) return cur;
  const auto last = std::find_if(w.rbegin(), w.rend(), nonzero);
  flood(&cur, order, /*forward=*/true, first - w.begin(),
        w.rend() - last - 1);
  return cur;
}

Bits FloodOracle::reach1_to(const Point& w, const DimOrder& order) const {
  static obs::Counter& floods = obs::counter("reach.flood.backward");
  floods.add();
  Bits cur(shape_->size());
  if (faults_->node_faulty(w)) return cur;
  const NodeId id = shape_->index(w);
  cur.set(id);
  flood(&cur, order, /*forward=*/false, id >> 6, id >> 6);
  return cur;
}

Bits FloodOracle::reach_from(const Point& v, const MultiRoundOrder& orders) const {
  Bits cur(shape_->size());
  if (orders.empty()) {
    if (!faults_->node_faulty(v)) cur.set(shape_->index(v));
    return cur;
  }
  cur = reach1_from(v, orders.front());
  for (std::size_t r = 1; r < orders.size(); ++r) {
    cur = reach1_from_set(cur, orders[r]);
  }
  return cur;
}

}  // namespace lamb
