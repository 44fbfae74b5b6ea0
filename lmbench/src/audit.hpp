// Output check: every served route is validated against the epoch that
// produced it. An epoch is recorded when it is published (fault set,
// lamb set, round orders), and a route passes only if
//   * its endpoints are the request's and are survivors of that epoch,
//   * every hop is a unit step inside the mesh,
//   * it crosses no faulty node or faulty link of that epoch, and
//   * its hops split into at most k dimension-ordered rounds in the
//     epoch's orders (one ascending round for a fallback route).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mesh/fault_set.hpp"
#include "mesh/mesh.hpp"
#include "reach/dim_order.hpp"
#include "serve/route_service.hpp"

namespace lmbench {

struct EpochRecord {
  std::unique_ptr<lamb::FaultSet> faults;  // over the audit's own shape
  std::vector<lamb::NodeId> lambs;         // sorted
  std::vector<std::uint8_t> survivor;      // per node
  lamb::MultiRoundOrder orders;
};

class RouteAudit {
 public:
  RouteAudit(const lamb::MeshShape& shape, int shards);

  RouteAudit(const RouteAudit&) = delete;
  RouteAudit& operator=(const RouteAudit&) = delete;

  // Records `epoch` of `shard` (the configuration just published).
  void record(int shard, int epoch, const lamb::FaultSet& faults,
              const std::vector<lamb::NodeId>& lambs,
              const lamb::MultiRoundOrder& orders);

  // Checks a response that carries a route. `shard` is the shard that
  // served it, or -1 when unknown (every shard's record of the epoch is
  // tried; the route passes if one of them accepts it). Returns false and
  // counts a failure when no record accepts it.
  bool check(int shard, const lamb::serve::RouteRequest& request,
             const lamb::serve::RouteResponse& response);

  // Every recorded epoch of a shard, by epoch number.
  const std::map<int, EpochRecord>& epochs(int shard) const {
    return records_[static_cast<std::size_t>(shard)];
  }

  std::int64_t checked() const { return checked_; }
  std::int64_t failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }

 private:
  // Empty string when the route is valid under `rec`, else the reason.
  const char* validate(const EpochRecord& rec, bool fallback,
                       const lamb::serve::RouteRequest& request,
                       const lamb::wormhole::Route& route) const;

  const lamb::MeshShape* shape_;
  lamb::MultiRoundOrder fallback_orders_;
  std::vector<std::map<int, EpochRecord>> records_;  // per shard
  std::int64_t checked_ = 0;
  std::int64_t failures_ = 0;
  std::string first_failure_;
};

}  // namespace lmbench
