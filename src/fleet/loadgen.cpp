#include "fleet/loadgen.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fleet/fleet_storm.hpp"
#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "obs/obs.hpp"
#include "support/fnv.hpp"
#include "support/machine_info.hpp"
#include "wormhole/fault_schedule.hpp"

namespace lamb::fleet {

namespace {

using serve::Client;
using wormhole::FaultEvent;
using wormhole::FaultSchedule;
using Drained = serve::RouteService::Drained;

// Mesh fault events by the tick they strike, each tagged with its shard.
using Strikes =
    std::unordered_map<std::int64_t, std::vector<std::pair<int, FaultEvent>>>;

std::int64_t schedule(int shard, const FaultSchedule& storm, Strikes* strikes) {
  for (const FaultEvent& ev : storm.events) {
    (*strikes)[ev.cycle].emplace_back(shard, ev);
  }
  return static_cast<std::int64_t>(storm.events.size());
}

static_assert(std::size(kOutcomeCounts) ==
              static_cast<std::size_t>(serve::ServeStatus::kError) + 1);

// What the tick loop drives: the backend the clients talk to, plus the
// scenario's faults and epochs around it.
class Target {
 public:
  Target() = default;
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;
  virtual ~Target() = default;
  virtual serve::Backend* backend() = 0;
  // Applies everything due at tick t, then drains the queues.
  virtual std::vector<Drained> advance(std::int64_t t) = 0;
  // Nothing in flight besides the clients: the cooldown may stop.
  virtual bool quiescent() const = 0;
  // Response counters, final queue depth and epochs.
  virtual void finish(LoadgenResult* result) const = 0;
};

// One RouteService over one MachineManager. The storm strikes the
// manager and the serving window opens at once; the new epoch publishes
// reconfigure_ticks later, when the (simulated) solver is done.
class ServiceTarget final : public Target {
 public:
  ServiceTarget(const LoadgenConfig& config, std::int64_t horizon, Rng& rng,
                LoadgenResult* result)
      : shape_(io::parse_geometry(config.mesh)),
        manager_(shape_),
        reconfigure_ticks_(config.reconfigure_ticks) {
    if (config.initial_node_faults > 0) {
      const FaultSet initial =
          FaultSet::random_nodes(shape_, config.initial_node_faults, rng);
      for (const NodeId id : initial.node_faults()) {
        manager_.report_node_fault(id);
      }
    }
    manager_.reconfigure();
    service_.emplace(manager_, config.service, /*now=*/0);
    const FaultSchedule storm = FaultSchedule::random_storm(
        shape_, manager_.faults(), config.storm_node_kills,
        config.storm_link_kills, horizon, rng);
    result->storm_events = schedule(0, storm, &strikes_);
  }

  serve::Backend* backend() override { return &*service_; }

  std::vector<Drained> advance(std::int64_t t) override {
    const auto due = strikes_.find(t);
    if (due != strikes_.end()) {
      for (const auto& [shard, ev] : due->second) {
        if (ev.kind == FaultEvent::Kind::kNode) {
          manager_.report_node_fault(ev.node);
        } else {
          manager_.report_link_fault(shape_.point(ev.node), ev.dim, ev.dir);
        }
      }
      service_->begin_reconfigure(t);
      if (publish_due_ < 0) publish_due_ = t + reconfigure_ticks_;
    }
    if (publish_due_ >= 0 && t >= publish_due_) {
      manager_.reconfigure();
      service_->publish(t);
      publish_due_ = -1;
    }
    return service_->advance(t);
  }

  bool quiescent() const override {
    return publish_due_ < 0 && service_->queue_depth() == 0;
  }

  void finish(LoadgenResult* result) const override {
    result->service = service_->stats();
    // The constructor published the first epoch.
    result->reconfigures = result->service.publishes - 1;
    result->final_queue_depth = service_->queue_depth();
    result->final_epochs = {manager_.epoch()};
    result->survivors =
        static_cast<std::int64_t>(service_->table()->survivors().size());
  }

 private:
  MeshShape shape_;
  manager::MachineManager manager_;
  std::optional<serve::RouteService> service_;
  std::int64_t reconfigure_ticks_;
  Strikes strikes_;
  std::int64_t publish_due_ = -1;
};

FleetOptions fleet_options(const LoadgenConfig& config, Rng& rng) {
  const ShardChaos& chaos = *config.chaos;
  FleetOptions options;
  options.shards = chaos.shards;
  options.mesh = config.mesh;
  options.initial_node_faults = config.initial_node_faults;
  options.seed = rng.child_seed(0);
  options.service = config.service;
  options.reconfigure_ticks = config.reconfigure_ticks;
  options.heartbeat_timeout = chaos.heartbeat_timeout;
  options.quarantine_cooloff = chaos.quarantine_cooloff;
  options.recovering_ticks = chaos.recovering_ticks;
  options.state_root = chaos.state_root;
  options.recovery = chaos.recovery;
  return options;
}

// A FleetManager whose shards each draw their own mesh storm, while a
// FleetStorm kills or hangs whole shards.
class FleetTarget final : public Target {
 public:
  FleetTarget(const LoadgenConfig& config, std::int64_t horizon, Rng& rng,
              LoadgenResult* result)
      : fleet_(fleet_options(config, rng), /*now=*/0) {
    const ShardChaos& chaos = *config.chaos;
    // The occupancy margin covers the full recovery tail (heartbeat
    // detection + cooloff + solve slot + readmission), so at most one
    // shard is ever out of SERVING for chaos-induced reasons — the
    // invariant behind failed_requests == 0.
    const std::int64_t margin =
        chaos.heartbeat_timeout + chaos.quarantine_cooloff +
        config.reconfigure_ticks + chaos.recovering_ticks + 8;
    Rng chaos_rng(rng.child_seed(1));
    const FleetStorm storm = FleetStorm::random(
        fleet_.shard_count(), chaos.shard_kills, chaos.shard_hangs, horizon,
        chaos.min_downtime, chaos.max_downtime, margin, chaos_rng);
    for (const ShardEvent& ev : storm.events) chaos_at_[ev.tick].push_back(ev);
    result->chaos_events = storm.size();

    const MeshShape shape = io::parse_geometry(config.mesh);
    for (int s = 0; s < fleet_.shard_count(); ++s) {
      Rng storm_rng(rng.child_seed(2 + static_cast<std::uint64_t>(s)));
      const FaultSchedule storm = FaultSchedule::random_storm(
          shape, fleet_.shard_manager(s)->faults(), config.storm_node_kills,
          config.storm_link_kills, horizon, storm_rng);
      result->storm_events += schedule(s, storm, &strikes_);
    }
  }

  serve::Backend* backend() override { return &fleet_; }

  std::vector<Drained> advance(std::int64_t t) override {
    const auto chaos_due = chaos_at_.find(t);
    if (chaos_due != chaos_at_.end()) {
      for (const ShardEvent& ev : chaos_due->second) {
        if (ev.kind == ShardEvent::Kind::kKill) {
          fleet_.kill_shard(ev.shard, t, ev.duration);
        } else {
          fleet_.hang_shard(ev.shard, t, ev.duration);
        }
      }
    }
    const auto due = strikes_.find(t);
    if (due != strikes_.end()) {
      for (const auto& [s, ev] : due->second) {
        if (ev.kind == FaultEvent::Kind::kNode) {
          fleet_.report_node_fault(s, ev.node, t);
        } else {
          fleet_.report_link_fault(s, ev.node, ev.dim, ev.dir, t);
        }
      }
    }
    return fleet_.advance(t);
  }

  bool quiescent() const override { return fleet_.quiescent(); }

  void finish(LoadgenResult* result) const override {
    result->service = fleet_.service_stats();
    result->fleet = fleet_.stats();
    result->final_queue_depth = fleet_.queue_depth();
    for (int s = 0; s < fleet_.shard_count(); ++s) {
      result->final_epochs.push_back(fleet_.epoch(s));
    }
  }

 private:
  FleetManager fleet_;
  std::unordered_map<std::int64_t, std::vector<ShardEvent>> chaos_at_;
  Strikes strikes_;
};

// One `"key": value,` line of a BENCH document.
struct JsonLines {
  std::FILE* out;

  void raw(const char* key, const std::string& value) const {
    std::fprintf(out, "  \"%s\": %s,\n", key, value.c_str());
  }
  void str(const char* key, const std::string& value) const {
    raw(key, "\"" + value + "\"");
  }
  void num(const char* key, std::int64_t value) const {
    std::fprintf(out, "  \"%s\": %lld,\n", key, static_cast<long long>(value));
  }
  void real(const char* key, double value) const {
    std::fprintf(out, "  \"%s\": %g,\n", key, value);
  }
};

}  // namespace

LoadgenConfig fleet_loadgen_defaults() {
  LoadgenConfig config;
  config.mesh = "8x8";
  config.clients = 96;
  config.ticks = 400;
  config.max_cooldown = 4096;
  config.initial_node_faults = 2;
  config.storm_node_kills = 4;
  config.storm_link_kills = 1;
  config.chaos.emplace();
  return config;
}

LoadgenResult run_loadgen(const LoadgenConfig& config) {
  Rng rng(config.seed);
  const std::int64_t horizon = std::max<std::int64_t>(config.ticks, 1);
  LoadgenResult result;
  std::unique_ptr<Target> target;
  if (config.chaos) {
    target = std::make_unique<FleetTarget>(config, horizon, rng, &result);
  } else {
    target = std::make_unique<ServiceTarget>(config, horizon, rng, &result);
  }
  const std::uint64_t first_client_seed = config.chaos ? 1000 : 0;

  std::vector<Client> clients;
  clients.reserve(static_cast<std::size_t>(config.clients));
  for (std::int64_t i = 0; i < config.clients; ++i) {
    clients.emplace_back(
        static_cast<std::uint64_t>(i + 1),
        rng.child_seed(first_client_seed + static_cast<std::uint64_t>(i)),
        config.client, target->backend());
  }

  // Digest of the outcome stream. Timing never enters; tick-indexed
  // integers only.
  support::Fnv1a digest;
  const auto mix = [&digest](auto word) {
    digest.mix(static_cast<std::uint64_t>(word));
  };
  std::vector<Client::Outcome> outcomes;
  std::vector<double> latencies;
  bool draining = false;
  std::int64_t t = 0;
  while (true) {
    if (t >= horizon && !draining) {
      draining = true;
      for (Client& client : clients) client.set_draining(true);
    }
    if (draining) {
      const bool settled =
          target->quiescent() &&
          std::all_of(clients.begin(), clients.end(),
                      [](const Client& client) { return client.settled(); });
      if (settled || t >= horizon + config.max_cooldown) break;
    }

    outcomes.clear();
    for (const Drained& drained : target->advance(t)) {
      clients[static_cast<std::size_t>(drained.request.client_id - 1)]
          .on_response(drained.request, drained.response, t, &outcomes);
    }
    for (Client& client : clients) client.step(t, &outcomes);

    for (const Client::Outcome& outcome : outcomes) {
      const OutcomeCount& count =
          kOutcomeCounts[static_cast<std::size_t>(outcome.status)];
      ++result.outcomes;
      ++(result.*count.field);
      mix(outcome.client);
      mix(outcome.seq);
      mix(outcome.status);
      mix(outcome.attempts);
      mix(outcome.epoch);
      mix(outcome.route_length);
      mix(outcome.latency_ticks);
      if (serve::served(outcome.status)) {
        latencies.push_back(outcome.vend_seconds);
      }
    }
    ++t;
  }

  result.cooldown_used = std::max<std::int64_t>(0, t - horizon);
  target->finish(&result);
  result.failed_requests = result.service.errors;
  mix(result.outcomes);
  mix(result.service.submitted);
  mix(result.service.shed);
  mix(result.service.queued);
  if (config.chaos) {
    for (const FleetCounter& counter : kFleetCounters) {
      if (counter.field != &FleetStats::reopens) {
        mix(result.fleet.*counter.field);
      }
    }
  }
  for (const int epoch : result.final_epochs) mix(epoch);
  result.digest = digest.value;
  result.vend_latency = support::summarize(&latencies);
  return result;
}

bool write_loadgen_json(const std::string& path, const LoadgenConfig& config,
                        const LoadgenResult& result) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const serve::ServiceStats& s = result.service;
  const serve::AdmissionOptions& admission = config.service.admission;
  const JsonLines json{out};
  std::fprintf(out, "{\n");
  json.str("bench", config.chaos ? "fleet" : "serve");
  json.str("mesh", config.mesh);
  json.num("clients", config.clients);
  json.num("ticks", config.ticks);
  json.raw("seed", std::to_string(config.seed));
  json.num("initial_node_faults", config.initial_node_faults);
  json.num("storm_node_kills", config.storm_node_kills);
  json.num("storm_link_kills", config.storm_link_kills);
  json.num("reconfigure_ticks", config.reconfigure_ticks);
  if (config.chaos) {
    const ShardChaos& chaos = *config.chaos;
    json.num("shards", chaos.shards);
    json.str("recovery_mode",
             chaos.recovery == RecoveryMode::kReopen ? "reopen" : "live");
    json.num("shard_kills", chaos.shard_kills);
    json.num("shard_hangs", chaos.shard_hangs);
    json.num("heartbeat_timeout", chaos.heartbeat_timeout);
    json.num("quarantine_cooloff", chaos.quarantine_cooloff);
    json.num("recovering_ticks", chaos.recovering_ticks);
  } else {
    json.num("staleness_cap", config.service.staleness_cap);
    json.num("shards", admission.shards);
    json.real("refill_per_tick", admission.refill_per_tick);
    json.real("bucket_capacity", admission.bucket_capacity);
    json.num("queue_depth_per_shard", admission.max_queue_depth);
  }
  json.num("outcomes", result.outcomes);
  for (const OutcomeCount& count : kOutcomeCounts) {
    json.num(count.key, result.*count.field);
  }
  json.num("submitted", s.submitted);
  json.num("accepted", s.fresh + s.stale + s.fallback);
  json.num("queued", s.queued);
  json.num("shed", s.shed);
  json.num("failed_requests", result.failed_requests);
  json.num("final_queue_depth", result.final_queue_depth);
  json.num("storm_events", result.storm_events);
  json.num("cooldown_used", result.cooldown_used);
  if (config.chaos) {
    json.num("publishes", s.publishes);
    for (const FleetCounter& counter : kFleetCounters) {
      json.num(counter.key, result.fleet.*counter.field);
    }
    json.num("chaos_events", result.chaos_events);
    std::string epochs;
    for (const int epoch : result.final_epochs) {
      epochs += (epochs.empty() ? "" : ", ") + std::to_string(epoch);
    }
    json.raw("final_epochs", "[" + epochs + "]");
  } else {
    json.num("stale", s.stale);
    json.num("fallback", s.fallback);
    json.num("rejected", s.rejected);
    json.num("max_queue_depth_observed", s.max_queue_depth);
    json.num("queue_bound", admission.shards * admission.max_queue_depth);
    json.num("floods_retained", s.floods_retained);
    json.num("floods_dropped", s.floods_dropped);
    json.num("reconfigures", result.reconfigures);
    json.num("final_epoch", result.final_epochs.front());
    json.num("survivors", result.survivors);
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "0x%016llx",
                static_cast<unsigned long long>(result.digest));
  json.str("digest", digest);
  const support::QuantileSummary& lat = result.vend_latency;
  std::fprintf(
      out,
      "  \"vend_latency\": {\"count\": %lld, \"mean_us\": %.3f, "
      "\"min_us\": %.3f, \"max_us\": %.3f, \"p50_us\": %.3f, "
      "\"p95_us\": %.3f, \"p99_us\": %.3f},\n",
      static_cast<long long>(lat.count), lat.mean * 1e6, lat.min * 1e6,
      lat.max * 1e6, lat.p50 * 1e6, lat.p95 * 1e6, lat.p99 * 1e6);
  json.raw("slo", obs::SloTracker::global().render_json("  "));
  // machine_info_json() is a complete `"schema_version"/"machine"` key
  // fragment, inserted verbatim like the other BENCH writers do.
  std::fprintf(out, "%s", support::machine_info_json().c_str());
  std::fprintf(out,
               "  \"gates\": [\n"
               "    {\"metric\": \"failed_requests\", \"equals\": 0},\n"
               "    {\"metric\": \"final_queue_depth\", \"equals\": 0},\n"
               "    {\"metric\": \"slo.%s.burn\", \"max\": 1.0}\n"
               "  ]\n"
               "}\n",
               config.chaos ? "fleet_availability" : "route_vend_latency");
  std::fclose(out);
  return true;
}

}  // namespace lamb::fleet
