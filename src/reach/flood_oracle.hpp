// Set-valued ("spanning tree") reachability, the O(N)-per-source approach
// the paper mentions in Section 4 and footnote 7. Used for:
//   * brute-force verification of lamb sets and of SES/DES partitions,
//   * choosing intermediate nodes for k-round routes (wormhole RouteBuilder,
//     RouteCache),
//   * the generic-topology solver and the kFlood reach-matrix backend.
//
// On a non-wrapping mesh every flood runs a word-parallel kernel, the
// machine-word Boolean evaluation of paper Section 6.2 applied to the
// one-round sets. The constructor builds four passability masks per
// dimension j (stride s_j) from the FaultSet, each bit set only on good
// nodes:
//   fwd_up[j]   id entered from id - s_j: c_j(id) >= 1, link (id-s_j, +j) up
//   fwd_down[j] id entered from id + s_j: c_j(id) <= n_j-2, link (id+s_j, -j) up
//   bwd_down[j] id leaves to id + s_j:    c_j(id) <= n_j-2, link (id, +j) up
//   bwd_up[j]   id leaves to id - s_j:    c_j(id) >= 1, link (id, -j) up
// Each is a union of line-range fills ANDed with the good-node mask, plus
// one clear per directed link fault: O(N*d/64 + f) words.
//
// Expanding a flood R along dimension j is the closure
// R[id] |= R[id -/+ s_j] & mask[id], one sequential word pass per
// direction (ascending for "up", descending for "down"). When s_j >= 64
// each word reads already-final words through a 64-bit window; when
// s_j < 64 it first takes the carry of the neighbouring word's edge s_j
// bits, then closes inside the word by doubling shifts. Each pass covers
// only the word span of the lines through the current frontier, so a
// single-source flood in ascending order touches one row, then one plane,
// and only its last dimension sweeps the mesh.
//
// Tori keep the per-line expansion (shortest-arc wrap is not a prefix
// scan). The masks are a snapshot: an oracle must be rebuilt after its
// FaultSet changes.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "support/bitset.hpp"

namespace lamb {

class FloodOracle {
 public:
  FloodOracle(const MeshShape& shape, const FaultSet& faults);

  const MeshShape& shape() const { return *shape_; }

  // { w : w is (F, pi)-reachable from v }.
  Bits reach1_from(const Point& v, const DimOrder& order) const;
  // Union of reach1_from over all (good) members of `sources`: the
  // per-dimension expansion composes, so one set-valued flood costs the
  // same as a single-source flood with a dense frontier. This is the
  // engine of the "spanning tree" k-round backend (paper footnote 7).
  Bits reach1_from_set(const Bits& sources, const DimOrder& order) const;
  // { u : u can (F, pi)-reach w }.
  Bits reach1_to(const Point& w, const DimOrder& order) const;
  // { w : w is (k, F, pi_vec)-reachable from v } (Definition 2.5.2).
  Bits reach_from(const Point& v, const MultiRoundOrder& orders) const;

 private:
  // The four passability masks of each dimension (see the file comment).
  enum MaskKind { kFwdUp, kFwdDown, kBwdDown, kBwdUp, kMaskKinds };

  const std::uint64_t* mask(int j, MaskKind kind) const {
    return masks_.data() + (static_cast<std::size_t>(j) * kMaskKinds + kind) *
                               static_cast<std::size_t>(nwords_);
  }
  std::uint64_t* mask(int j, MaskKind kind) {
    return masks_.data() + (static_cast<std::size_t>(j) * kMaskKinds + kind) *
                               static_cast<std::size_t>(nwords_);
  }

  // Expands `cur` along every dimension of `order` (backward floods walk
  // the order last to first). Mesh floods run the word kernel; [lo_word,
  // hi_word] bounds the nonzero words of `cur` on entry.
  void flood(Bits* cur, const DimOrder& order, bool forward,
             std::int64_t lo_word, std::int64_t hi_word) const;

  // Torus path. Forward expansion: every coordinate b on the dim-j line
  // through `p` such that the directed dim-j travel p[j] -> b is
  // fault-free; bits are set in `out` at the corresponding node ids.
  void expand_line_from(const Point& p, int j, Bits* out) const;
  // Backward expansion: every coordinate a such that travel a -> p[j] is
  // fault-free.
  void expand_line_to(const Point& p, int j, Bits* out) const;

  const MeshShape* shape_;
  const FaultSet* faults_;
  std::int64_t nwords_;  // words per node bitset
  // Mesh only: every mask, dimension-major, nwords_ words each; one
  // allocation per oracle.
  std::vector<std::uint64_t> masks_;
};

}  // namespace lamb
