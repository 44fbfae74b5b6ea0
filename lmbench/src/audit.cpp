#include "audit.hpp"

#include <algorithm>

namespace lmbench {

using lamb::NodeId;
using lamb::serve::RouteRequest;
using lamb::serve::RouteResponse;
using lamb::serve::ServeStatus;

RouteAudit::RouteAudit(const lamb::MeshShape& shape, int shards)
    : shape_(&shape),
      fallback_orders_{lamb::DimOrder::ascending(shape.dim())},
      records_(static_cast<std::size_t>(std::max(shards, 1))) {}

void RouteAudit::record(int shard, int epoch, const lamb::FaultSet& faults,
                        const std::vector<NodeId>& lambs,
                        const lamb::MultiRoundOrder& orders) {
  EpochRecord rec;
  rec.faults = std::make_unique<lamb::FaultSet>(*shape_);
  for (const NodeId id : faults.node_faults()) rec.faults->add_node(id);
  for (const lamb::LinkFault& link : faults.link_faults()) {
    if (link.bidirectional) {
      rec.faults->add_link(link.from, link.dim, link.dir);
    } else {
      rec.faults->add_directed_link(link.from, link.dim, link.dir);
    }
  }
  rec.lambs = lambs;
  rec.survivor.assign(static_cast<std::size_t>(shape_->size()), 1);
  for (const NodeId id : faults.node_faults()) {
    rec.survivor[static_cast<std::size_t>(id)] = 0;
  }
  for (const NodeId id : lambs) rec.survivor[static_cast<std::size_t>(id)] = 0;
  rec.orders = orders;
  records_[static_cast<std::size_t>(shard)][epoch] = std::move(rec);
}

const char* RouteAudit::validate(const EpochRecord& rec, bool fallback,
                                 const RouteRequest& request,
                                 const lamb::wormhole::Route& route) const {
  if (route.src != request.src || route.dst != request.dst) {
    return "endpoints differ from the request";
  }
  const auto survivor = [&](NodeId id) {
    return id >= 0 && id < shape_->size() &&
           rec.survivor[static_cast<std::size_t>(id)] != 0;
  };
  if (!survivor(route.src) || !survivor(route.dst)) {
    return "endpoint is not a survivor of the epoch";
  }
  const lamb::MultiRoundOrder& orders =
      fallback ? fallback_orders_ : rec.orders;
  const int k = static_cast<int>(orders.size());
  lamb::Point at = shape_->point(route.src);
  int round = 0;
  int last_pos = -1;  // order position of the previous hop in this round
  lamb::Dir last_dir = lamb::Dir::Pos;
  for (const lamb::wormhole::Hop& hop : route.hops) {
    if (hop.dim < 0 || hop.dim >= shape_->dim()) return "hop dimension";
    if (hop.vc < round || hop.vc >= k) return "more rounds than the epoch";
    if (hop.vc > round) {
      round = hop.vc;
      last_pos = -1;
    }
    const int pos =
        orders[static_cast<std::size_t>(round)].position_of(hop.dim);
    if (pos < last_pos || (pos == last_pos && hop.dir != last_dir)) {
      return "round is not dimension-ordered";
    }
    last_pos = pos;
    last_dir = hop.dir;
    if (rec.faults->link_faulty(at, hop.dim, hop.dir)) {
      return "crosses a faulty link";
    }
    lamb::Point next;
    if (!shape_->neighbor(at, hop.dim, hop.dir, &next)) {
      return "hop leaves the mesh";
    }
    if (rec.faults->node_faulty(next)) return "crosses a faulty node";
    at = next;
  }
  if (shape_->index(at) != route.dst) return "route does not end at dst";
  return "";
}

bool RouteAudit::check(int shard, const RouteRequest& request,
                       const RouteResponse& response) {
  ++checked_;
  const bool fallback = response.status == ServeStatus::kFallback;
  const char* why = "no record of the serving epoch";
  const auto try_shard = [&](int s) {
    const auto& recs = records_[static_cast<std::size_t>(s)];
    const auto it = recs.find(response.epoch);
    if (it == recs.end()) return false;
    why = validate(it->second, fallback, request, *response.route);
    return why[0] == '\0';
  };
  bool ok = shard >= 0 && try_shard(shard);
  for (int s = 0; !ok && s < static_cast<int>(records_.size()); ++s) {
    if (s != shard) ok = try_shard(s);
  }
  if (!ok) {
    if (failures_ == 0) {
      first_failure_ = std::string(lamb::serve::to_string(response.status)) +
                       " route " + std::to_string(request.src) + "->" +
                       std::to_string(request.dst) + " epoch " +
                       std::to_string(response.epoch) + ": " + why;
    }
    ++failures_;
  }
  return ok;
}

}  // namespace lmbench
