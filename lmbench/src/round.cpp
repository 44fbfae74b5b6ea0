#include "round.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "audit.hpp"
#include "common.hpp"
#include "fleet/fleet.hpp"
#include "io/text_format.hpp"
#include "manager/machine_manager.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/route_service.hpp"

namespace lmbench {

namespace serve = lamb::serve;
using lamb::NodeId;

namespace {

constexpr std::size_t kReplayPairs = 2048;
constexpr std::int64_t kMaxRequestSpansClients = 64;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

class Round;

// serve::Backend decorator: times each submit() from outside and hands
// the response to the round for accounting and the route check.
class TimedBackend final : public serve::Backend {
 public:
  TimedBackend(serve::Backend* inner, Round* round)
      : inner_(inner), round_(round) {}

  std::optional<serve::RouteResponse> submit(
      const serve::RouteRequest& request, std::int64_t now) override;
  std::shared_ptr<const serve::RouteTable> table_for(
      std::uint64_t client_id) const override {
    return inner_->table_for(client_id);
  }
  int hedge_shard(const serve::RouteRequest& request) const override {
    return inner_->hedge_shard(request);
  }

 private:
  serve::Backend* inner_;
  Round* round_;
};

class Round {
 public:
  explicit Round(const RoundConfig& config)
      : cfg_(config),
        spec_(config.spec),
        in_(*config.inputs),
        fleet_mode_(config.spec.shards > 0),
        shape_(lamb::io::parse_geometry(config.spec.mesh)),
        timelines_(std::max(config.spec.shards, 1)),
        audit_(shape_, timelines_),
        spans_(config.traced ? config.spans : nullptr),
        request_spans_(config.traced &&
                       config.spec.clients <= kMaxRequestSpansClients) {}

  RoundResult run();

  // Accounting for one timed submit() call; `t0`/`t1` bracket the call.
  // Trace samples count as tracing overhead; the check does not count.
  void on_submit(const serve::RouteRequest& request,
                 const std::optional<serve::RouteResponse>& response,
                 std::int64_t t0, std::int64_t t1);

 private:
  // Wall time of the benchmark's own work, left out of the loop time.
  void exclude(std::int64_t ns) { excluded_ns_ += ns; }
  void setup();
  void control(std::int64_t t);
  void deliver(std::int64_t t);
  void step_clients(std::int64_t t);
  bool settled() const;
  void check_route(int shard, const serve::RouteRequest& request,
                   const serve::RouteResponse& response);
  void record_epoch(int shard);
  void finish(bool drained);
  void fail(const std::string& why, std::int64_t count);
  int span(const char* name, std::int64_t start, std::int64_t end,
           std::int64_t count = 1);

  serve::Backend& inner() {
    return fleet_mode_ ? static_cast<serve::Backend&>(*fleet_)
                       : static_cast<serve::Backend&>(*service_);
  }

  const RoundConfig& cfg_;
  const WorkloadSpec& spec_;
  const Inputs& in_;
  const bool fleet_mode_;
  const lamb::MeshShape shape_;
  const int timelines_;  // shards, or 1 for the single service
  RouteAudit audit_;
  SpanLog* spans_;  // null when untraced
  const bool request_spans_;

  std::unique_ptr<lamb::manager::MachineManager> manager_;
  std::unique_ptr<serve::RouteService> service_;
  std::unique_ptr<lamb::fleet::FleetManager> fleet_;
  std::unique_ptr<TimedBackend> backend_;
  std::vector<serve::Client> clients_;
  std::vector<int> recorded_epoch_;

  RoundResult r_;
  Digest digest_;
  std::int64_t base_ = 0;  // first traffic tick (the fleet boots first)
  std::int64_t excluded_ns_ = 0;
  std::size_t storm_next_ = 0;
  std::size_t chaos_next_ = 0;
  std::int64_t publish_due_ = -1;
  std::int64_t tick_submit_ns_ = 0;
  int tick_span_ = -1;
  int step_span_ = -1;
  std::vector<serve::Client::Outcome> outcomes_;
  std::vector<std::pair<NodeId, NodeId>> replay_pairs_;  // ring
  std::size_t replay_next_ = 0;
};

std::optional<serve::RouteResponse> TimedBackend::submit(
    const serve::RouteRequest& request, std::int64_t now) {
  const std::int64_t t0 = now_ns();
  std::optional<serve::RouteResponse> response = inner_->submit(request, now);
  const std::int64_t t1 = now_ns();
  round_->on_submit(request, response, t0, t1);
  return response;
}

int Round::span(const char* name, std::int64_t start, std::int64_t end,
                std::int64_t count) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = tick_span_;
  s.count = count;
  return spans_->add(s);
}

void Round::fail(const std::string& why, std::int64_t count) {
  if (r_.ok) r_.failure = why;
  r_.ok = false;
  r_.failed += count;
}

void Round::record_epoch(int shard) {
  const lamb::manager::MachineManager* m =
      fleet_mode_ ? fleet_->shard_manager(shard) : manager_.get();
  audit_.record(shard, m->epoch(), m->faults(), m->lambs(), m->orders());
  recorded_epoch_[static_cast<std::size_t>(shard)] = m->epoch();
}

void Round::setup() {
  const std::int64_t t0 = now_ns();
  if (!fleet_mode_) {
    manager_ = std::make_unique<lamb::manager::MachineManager>(shape_);
    for (const NodeId id : in_.initial[0]) manager_->report_node_fault(id);
    manager_->reconfigure();
    service_ = std::make_unique<serve::RouteService>(*manager_, spec_.service,
                                                     /*now=*/0);
  } else {
    lamb::fleet::FleetOptions options;
    options.shards = spec_.shards;
    options.mesh = spec_.mesh;
    options.initial_node_faults = 0;  // the benchmark reports them below
    options.service = spec_.service;
    options.reconfigure_ticks = spec_.reconfigure_ticks;
    options.state_root = cfg_.state_dir;
    options.fsync = false;
    fleet_ = std::make_unique<lamb::fleet::FleetManager>(options, /*now=*/0);
    for (int s = 0; s < spec_.shards; ++s) {
      for (const NodeId id : in_.initial[static_cast<std::size_t>(s)]) {
        fleet_->report_node_fault(s, id, /*now=*/0);
      }
    }
    // Boot ticks: every shard takes its solve+publish slot in turn.
    std::int64_t t = 0;
    while (!fleet_->quiescent()) fleet_->advance(t++);
    base_ = t;
  }
  backend_ = std::make_unique<TimedBackend>(&inner(), this);
  clients_.reserve(in_.client_seeds.size());
  for (std::size_t i = 0; i < in_.client_seeds.size(); ++i) {
    clients_.emplace_back(static_cast<std::uint64_t>(i + 1),
                          in_.client_seeds[i], spec_.client, backend_.get());
  }
  r_.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  recorded_epoch_.assign(static_cast<std::size_t>(timelines_), 0);
  for (int s = 0; s < timelines_; ++s) record_epoch(s);
}

void Round::on_submit(const serve::RouteRequest& request,
                      const std::optional<serve::RouteResponse>& response,
                      std::int64_t t0, std::int64_t t1) {
  ++r_.submissions;
  const std::int64_t d = t1 - t0;
  tick_submit_ns_ += d;
  if (spans_ != nullptr) {
    LayerSamples& l = r_.layers;
    l.submit_ns.push_back(static_cast<float>(d));
    l.submit_total_ns += d;
    if (!response.has_value()) {
      l.queue_ns += d;
    } else {
      switch (response->status) {
        case serve::ServeStatus::kFresh:
          l.fresh_ns.push_back(static_cast<float>(d));
          break;
        case serve::ServeStatus::kStale:
          l.stale_ns.push_back(static_cast<float>(d));
          break;
        case serve::ServeStatus::kFallback:
          l.fallback_ns += d;
          break;
        case serve::ServeStatus::kOverloaded:
          l.shed_ns += d;
          break;
        default:
          break;
      }
    }
    if (request_spans_) {
      Span s;
      s.name = "backend.submit";
      s.start_ns = t0;
      s.end_ns = t1;
      s.parent = step_span_;
      s.client = request.client_id;
      s.seq = request.seq;
      s.attempt = request.attempt;
      spans_->add(s);
    }
  }
  if (!response.has_value() || !serve::served(response->status)) return;
  const std::int64_t c0 = now_ns();
  r_.vend_ns.push_back(static_cast<float>(d));
  int shard = 0;
  if (fleet_mode_) {
    // The shard the fleet picked; the audit tries the others if the
    // route does not validate there (failover inside submit()).
    const int n = fleet_->shard_count();
    shard = request.shard >= 0 ? request.shard % n
                               : fleet_->serving_shard(request.client_id);
  }
  check_route(shard, request, *response);
  exclude(now_ns() - c0);
}

void Round::check_route(int shard, const serve::RouteRequest& request,
                        const serve::RouteResponse& response) {
  ++r_.vends;
  audit_.check(shard, request, response);
  if (spans_ != nullptr) {
    if (replay_pairs_.size() < kReplayPairs) {
      replay_pairs_.emplace_back(request.src, request.dst);
    } else {
      replay_pairs_[replay_next_] = {request.src, request.dst};
      replay_next_ = (replay_next_ + 1) % kReplayPairs;
    }
  }
}

void Round::control(std::int64_t t) {
  const std::int64_t rel = t - base_;
  if (fleet_mode_) {
    while (chaos_next_ < in_.chaos.size() &&
           in_.chaos[chaos_next_].tick <= rel) {
      const ChaosEvent& ev = in_.chaos[chaos_next_++];
      const std::int64_t t0 = now_ns();
      if (ev.kill) {
        fleet_->kill_shard(ev.shard, t, ev.duration);
      } else {
        fleet_->hang_shard(ev.shard, t, ev.duration);
      }
      const std::int64_t t1 = now_ns();
      if (spans_ != nullptr) {
        span(ev.kill ? "fleet.kill_shard" : "fleet.hang_shard", t0, t1);
        if (ev.kill) r_.layers.kill_ns += t1 - t0;
      }
    }
  }
  bool struck = false;
  while (storm_next_ < in_.storm.size() && in_.storm[storm_next_].tick <= rel) {
    const StormEvent& ev = in_.storm[storm_next_++];
    const std::int64_t t0 = now_ns();
    if (fleet_mode_) {
      if (ev.link) {
        fleet_->report_link_fault(ev.shard, ev.node, ev.dim, ev.dir, t);
      } else {
        fleet_->report_node_fault(ev.shard, ev.node, t);
      }
    } else if (ev.link) {
      manager_->report_link_fault(shape_.point(ev.node), ev.dim, ev.dir);
    } else {
      manager_->report_node_fault(ev.node);
    }
    const std::int64_t t1 = now_ns();
    struck = true;
    if (spans_ != nullptr) {
      span(fleet_mode_ ? "fleet.report" : "manager.report", t0, t1);
      r_.layers.report_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  if (fleet_mode_) return;  // the fleet runs its own epoch plane
  if (struck) {
    service_->begin_reconfigure(t);
    if (publish_due_ < 0) publish_due_ = t + spec_.reconfigure_ticks;
  }
  if (publish_due_ >= 0 && t >= publish_due_) {
    const std::int64_t t0 = now_ns();
    manager_->reconfigure();
    const std::int64_t t1 = now_ns();
    service_->publish(t);
    const std::int64_t t2 = now_ns();
    publish_due_ = -1;
    r_.swap_ms.push_back(ms(t2 - t0));
    if (spans_ != nullptr) {
      span("manager.reconfigure", t0, t1);
      span("serve.publish", t1, t2);
      r_.layers.swap_ns += t2 - t0;
      r_.layers.publish_ns += t2 - t1;
      r_.layers.reconfigure_ms.push_back(ms(t1 - t0));
    }
    record_epoch(0);
    exclude(now_ns() - t2);
  }
}

void Round::deliver(std::int64_t t) {
  const std::size_t slots_before =
      fleet_mode_ ? fleet_->window_log().size() : 0;
  const std::int64_t t0 = now_ns();
  std::vector<serve::RouteService::Drained> drained =
      fleet_mode_ ? fleet_->advance(t) : service_->advance(t);
  const std::int64_t t1 = now_ns();
  bool published = false;
  if (fleet_mode_ && fleet_->window_log().size() > slots_before) {
    published = true;
    const bool boot = fleet_->window_log().back().boot;
    if (!boot) r_.swap_ms.push_back(ms(t1 - t0));
    if (spans_ != nullptr) {
      (boot ? r_.layers.boot_ns : r_.layers.swap_ns) += t1 - t0;
    }
    const std::int64_t r0 = now_ns();
    for (int s = 0; s < spec_.shards; ++s) {
      if (fleet_->epoch(s) != recorded_epoch_[static_cast<std::size_t>(s)] &&
          fleet_->shard_manager(s) != nullptr) {
        record_epoch(s);
      }
    }
    exclude(now_ns() - r0);
  }
  if (spans_ != nullptr) {
    span(fleet_mode_ ? "fleet.advance" : "serve.advance", t0, t1,
         static_cast<std::int64_t>(drained.size()));
    if (!published) {
      r_.layers.advance_ns += t1 - t0;
      r_.layers.advance_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  }
  const std::int64_t t2 = now_ns();
  for (const serve::RouteService::Drained& d : drained) {
    if (d.response.route.has_value() && serve::served(d.response.status)) {
      check_route(fleet_mode_ ? -1 : 0, d.request, d.response);
    }
  }
  exclude(now_ns() - t2);
  for (const serve::RouteService::Drained& d : drained) {
    clients_[static_cast<std::size_t>(d.request.client_id - 1)].on_response(
        d.request, d.response, t, &outcomes_);
  }
}

void Round::step_clients(std::int64_t t) {
  tick_submit_ns_ = 0;
  const std::int64_t excluded_before = excluded_ns_;
  const std::int64_t t0 = now_ns();
  if (spans_ != nullptr) {
    step_span_ = spans_->begin("client.step", t0, tick_span_);
  }
  for (serve::Client& client : clients_) client.step(t, &outcomes_);
  const std::int64_t t1 = now_ns();
  if (spans_ != nullptr) {
    spans_->end(step_span_, t1, static_cast<std::int64_t>(clients_.size()));
    if (!request_spans_) {
      // Aggregated: one span carrying the summed backend time.
      Span s;
      s.name = "backend.submit";
      s.start_ns = t0;
      s.end_ns = t0 + tick_submit_ns_;
      s.parent = step_span_;
      spans_->add(s);
    }
    LayerSamples& l = r_.layers;
    l.step_calls += static_cast<std::int64_t>(clients_.size());
    l.step_self_ns +=
        (t1 - t0) - tick_submit_ns_ - (excluded_ns_ - excluded_before);
  }
}

bool Round::settled() const {
  if (fleet_mode_ ? !fleet_->quiescent()
                  : publish_due_ >= 0 || service_->queue_depth() != 0) {
    return false;
  }
  return std::all_of(clients_.begin(), clients_.end(),
                     [](const serve::Client& c) { return c.settled(); });
}

RoundResult Round::run() {
  setup();
  const std::int64_t horizon = base_ + std::max<std::int64_t>(spec_.ticks, 1);
  bool draining = false;
  bool drained = false;
  const std::int64_t loop0 = now_ns();
  for (std::int64_t t = base_;; ++t) {
    if (t >= horizon) {
      const std::int64_t c0 = now_ns();
      if (!draining) {
        draining = true;
        for (serve::Client& client : clients_) client.set_draining(true);
      }
      drained = settled();
      exclude(now_ns() - c0);
      if (drained || t >= horizon + spec_.max_cooldown) break;
    }
    if (spans_ != nullptr) tick_span_ = spans_->begin("tick", now_ns(), -1);
    outcomes_.clear();
    control(t);
    deliver(t);
    step_clients(t);
    if (spans_ != nullptr) spans_->end(tick_span_, now_ns());

    const std::int64_t a0 = now_ns();
    for (const serve::Client::Outcome& o : outcomes_) {
      ++r_.requests;
      if (serve::served(o.status)) ++r_.served;
      if (o.status == serve::ServeStatus::kUnroutable) ++r_.unroutable;
      // Ticks the request spanned, counting the tick it was first sent.
      r_.request_ticks.push_back(o.latency_ticks + 1);
      digest_.mix(o.client);
      digest_.mix(static_cast<std::uint64_t>(o.seq));
      digest_.mix(static_cast<std::uint64_t>(o.status));
      digest_.mix(static_cast<std::uint64_t>(o.attempts));
      digest_.mix(static_cast<std::uint64_t>(o.epoch));
      digest_.mix(static_cast<std::uint64_t>(o.route_length));
      digest_.mix(static_cast<std::uint64_t>(o.latency_ticks));
    }
    exclude(now_ns() - a0);
  }
  r_.loop_s = static_cast<double>(now_ns() - loop0 - excluded_ns_) / 1e9;
  finish(drained);
  return std::move(r_);
}

void Round::finish(bool drained) {
  const serve::ServiceStats st =
      fleet_mode_ ? fleet_->service_stats() : service_->stats();
  const std::int64_t depth =
      fleet_mode_ ? fleet_->queue_depth() : service_->queue_depth();
  if (st.errors != 0) fail("kError responses (lamb guarantee)", st.errors);
  if (!drained || depth != 0) {
    fail("queues did not drain within the cooldown",
         std::max<std::int64_t>(depth, 1));
  }
  if (audit_.failures() != 0) {
    fail("route check: " + audit_.first_failure(), audit_.failures());
  }
  r_.route_checks = audit_.checked();
  digest_.mix(static_cast<std::uint64_t>(r_.requests));
  digest_.mix(static_cast<std::uint64_t>(st.submitted));
  digest_.mix(static_cast<std::uint64_t>(st.shed));
  digest_.mix(static_cast<std::uint64_t>(st.queued));
  for (int s = 0; s < timelines_; ++s) {
    digest_.mix(static_cast<std::uint64_t>(
        fleet_mode_ ? fleet_->epoch(s) : manager_->epoch()));
  }
  r_.digest = digest_.value;
  if (spans_ == nullptr) return;

  LayerSamples& l = r_.layers;
  l.floods_retained = st.floods_retained;
  l.floods_dropped = st.floods_dropped;
  // Epoch records the managers keep (the reconfigure itself runs inside
  // FleetManager::advance, out of the benchmark's reach).
  const int first_traffic_epoch = fleet_mode_ ? 3 : 2;
  for (int s = 0; s < timelines_; ++s) {
    const lamb::manager::MachineManager* m =
        fleet_mode_ ? fleet_->shard_manager(s) : manager_.get();
    if (m == nullptr) continue;
    for (const lamb::manager::EpochReport& e : m->history()) {
      if (e.epoch < first_traffic_epoch) continue;
      ++l.epochs;
      if (e.incremental) ++l.incremental_epochs;
      l.blocks_reused += e.blocks_reused;
      if (fleet_mode_) l.reconfigure_ms.push_back(e.solve_seconds * 1e3);
    }
  }
  if (fleet_mode_) {
    const lamb::fleet::FleetStats& fs = fleet_->stats();
    l.failovers = fs.failovers;
    l.evicted = fs.evicted;
    l.reopens = fs.reopens;
    l.window_waits = fs.window_waits;
  }

  // Replays, after the loop: vends on a cold table, then the solver
  // phases on every recorded epoch.
  const lamb::manager::MachineManager* replay_manager = manager_.get();
  for (int s = 0; fleet_mode_ && s < spec_.shards; ++s) {
    const lamb::manager::MachineManager* m = fleet_->shard_manager(s);
    if (m != nullptr && !m->has_pending_reports()) {
      replay_manager = m;
      break;
    }
  }
  if (replay_manager != nullptr) {
    replay_routes(*replay_manager, replay_pairs_, &l);
  }
  std::vector<const std::map<int, EpochRecord>*> timelines;
  for (int s = 0; s < timelines_; ++s) {
    timelines.push_back(&audit_.epochs(s));
  }
  const std::string mismatch = replay_solver(shape_, timelines, &l);
  if (!mismatch.empty()) fail("solver replay: " + mismatch, 1);
}

}  // namespace

RoundResult run_round(const RoundConfig& config) {
  if (!config.state_dir.empty()) {
    std::filesystem::remove_all(config.state_dir);
    std::filesystem::create_directories(config.state_dir);
  }
  RoundResult result;
  {
    Round round(config);
    result = round.run();
  }
  if (!config.state_dir.empty()) std::filesystem::remove_all(config.state_dir);
  return result;
}

}  // namespace lmbench
