#include "serve/query.hpp"

#include <cmath>
#include <utility>

#include "common/units.hpp"
#include "obs/trace.hpp"
#include "serve/profile.hpp"

namespace vmp::serve {

namespace {

bool is_window_query(QueryKind kind) noexcept {
  return kind == QueryKind::kVmEnergy || kind == QueryKind::kTenantEnergy ||
         kind == QueryKind::kTenantCost;
}

double tenant_energy_in(const Snapshot& snapshot, core::TenantId tenant) {
  const TenantRecord* record = snapshot.find_tenant(tenant);
  return record ? record->energy_j : 0.0;
}

/// Zero-energy baseline for window bounds that precede the first snapshot:
/// accounting starts at zero, so "before the beginning" is a legitimate
/// epoch-0 state, not missing history.
const std::shared_ptr<const Snapshot>& genesis_baseline() {
  static const std::shared_ptr<const Snapshot> baseline =
      std::make_shared<const Snapshot>();
  return baseline;
}

}  // namespace

QueryEngine::QueryEngine(const SnapshotStore& store, QueryEngineOptions options)
    : store_(store), options_(std::move(options)) {
  options_.tou.validate();
  const std::size_t shard_count =
      options_.cache_shards == 0 ? 1 : options_.cache_shards;
  shard_capacity_ =
      options_.cache_capacity == 0
          ? 0
          : (options_.cache_capacity + shard_count - 1) / shard_count;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    if (options_.metrics && shard_capacity_ > 0) {
      const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
      shard->hits = &options_.metrics->counter(
          "vmpower_serve_cache_shard_hits_total" + label,
          "Result-cache lookup hits in this shard");
      shard->misses = &options_.metrics->counter(
          "vmpower_serve_cache_shard_misses_total" + label,
          "Result-cache lookup misses in this shard");
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.metrics) {
    hits_counter_ = &options_.metrics->counter(
        "vmpower_serve_cache_hits_total", "Result-cache hits");
    misses_counter_ = &options_.metrics->counter(
        "vmpower_serve_cache_misses_total", "Result-cache misses");
    evictions_counter_ = &options_.metrics->counter(
        "vmpower_serve_cache_evictions_total", "Result-cache LRU evictions");
    coalesced_counter_ = &options_.metrics->counter(
        "vmpower_serve_coalesced_total",
        "Queries attached to an identical in-flight computation");
  }
}

Response QueryEngine::execute(const Request& request) {
  std::shared_ptr<const Snapshot> latest;
  {
    VMP_TRACE_SPAN("serve.snapshot_fetch", "serve");
    latest = store_.latest();
    if (!latest) {
      // Empty ring, non-empty ledger: a restarted server that has not
      // published its first post-restart snapshot yet still owns durable
      // history, and the ledger tail carries the same cumulative state
      // bit-for-bit — answer from it rather than claiming no data exists.
      if (const ledger::Ledger* log = store_.ledger()) {
        const ledger::Stats stats = log->stats();
        if (stats.records > 0) {
          try {
            if (const auto tail = log->at_epoch(stats.tail_epoch))
              latest = std::make_shared<const Snapshot>(to_snapshot(*tail));
          } catch (const ledger::DamagedRecord& damage) {
            return Response::error(ErrorCode::kUnavailable, damage.what());
          }
        }
      }
    }
  }
  if (!latest)
    return Response::error(ErrorCode::kNoSnapshot,
                           "no snapshot published yet");

  Response cached;
  if (!is_window_query(request.kind)) {
    const std::string key =
        request.canonical() + "@" + std::to_string(latest->epoch);
    if (cache_lookup(key, cached)) return note_hit(cached);
    return compute(key, nullptr,
                   [&] { return evaluate(request, nullptr, latest); });
  }

  if (!std::isfinite(request.t0) || !std::isfinite(request.t1) ||
      request.t1 < request.t0)
    return Response::error(ErrorCode::kBadWindow, "window end precedes start");

  // Fast path: against an unchanged store the same window resolves to the
  // same epoch pair (the ring only mutates on publish, which moves the
  // latest epoch), so the latest epoch alone vouches for a cached entry
  // without paying the two retention-ring searches per hit.
  const std::string fast_key =
      request.canonical() + "@L" + std::to_string(latest->epoch);
  if (cache_lookup(fast_key, cached)) return note_hit(cached);

  std::shared_ptr<const Snapshot> s0, s1;
  {
    VMP_TRACE_SPAN("serve.snapshot_fetch", "serve");
    Response error;
    s0 = resolve_at_or_before(request.t0, error);
    if (!s0) return error;
    s1 = request.t1 >= latest->time_s ? latest
                                      : resolve_at_or_before(request.t1, error);
    // t1 >= t0, so s1 can only be null when s0 already fell back to the
    // genesis baseline: the whole window predates accounting.
    if (!s1) s1 = s0;
  }

  // Durable key: pinned to the resolved epoch pair, so the entry stays valid
  // across publishes that leave the pair — and therefore the answer —
  // unchanged.
  const std::string key = request.canonical() + "@" +
                          std::to_string(s0->epoch) + ":" +
                          std::to_string(s1->epoch);
  if (cache_lookup(key, cached)) {
    cache_insert(fast_key, cached);  // re-arm the fast path at this epoch.
    return note_hit(cached);
  }
  return compute(key, &fast_key, [&] { return evaluate(request, s0, s1); });
}

Response QueryEngine::compute(const std::string& key,
                              const std::string* fast_key,
                              const std::function<Response()>& eval) {
  if (!options_.coalesce) {
    note_miss();
    const Response response = eval();
    cache_insert(key, response);
    if (fast_key) cache_insert(*fast_key, response);
    return response;
  }

  Shard& shard = shard_for(key);
  Response cached;
  std::shared_ptr<Inflight> flight;
  switch (probe(shard, key, cached, flight)) {
    case Probe::kHit:
      // A leader published between our unlocked lookup and this probe.
      if (fast_key) cache_insert(*fast_key, cached);
      return note_hit(cached);
    case Probe::kJoin: {
      // The follower's whole wall time here is spent parked on the leader —
      // the stage the profiler calls coalesce_hold.
      StageTimer hold(Stage::kCoalesceHold);
      VMP_TRACE_SPAN("serve.coalesce_hold", "serve");
      std::unique_lock lock(flight->mutex);
      flight->cv.wait(lock, [&] { return flight->done; });
      Response response = flight->response;
      lock.unlock();
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      if (coalesced_counter_) coalesced_counter_->inc();
      // The answer is valid for this follower's own latest epoch too (same
      // durable key means the same resolved pair), so re-arming is safe.
      if (fast_key) cache_insert(*fast_key, response);
      return response;
    }
    case Probe::kLead:
      break;
  }

  note_miss();
  if (options_.coalesce_hold) options_.coalesce_hold();
  const Response response = eval();
  cache_insert(key, response);
  if (fast_key) cache_insert(*fast_key, response);
  {
    std::lock_guard lock(flight->mutex);
    flight->done = true;
    flight->response = response;
  }
  flight->cv.notify_all();
  {
    std::lock_guard lock(shard.mutex);
    shard.inflight.erase(key);
  }
  return response;
}

QueryEngine::Probe QueryEngine::probe(Shard& shard, const std::string& key,
                                      Response& out,
                                      std::shared_ptr<Inflight>& flight) {
  StageTimer timer(Stage::kCacheProbe);
  std::lock_guard lock(shard.mutex);
  if (shard_capacity_ > 0) {
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch.
      out = it->second->response;
      return Probe::kHit;
    }
  }
  auto [it, inserted] = shard.inflight.try_emplace(key);
  if (inserted) it->second = std::make_shared<Inflight>();
  flight = it->second;
  return inserted ? Probe::kLead : Probe::kJoin;
}

std::shared_ptr<const Snapshot> QueryEngine::resolve_at_or_before(
    double t_s, Response& error) const {
  if (auto snapshot = store_.at_or_before(t_s)) return snapshot;
  // A bound before the oldest snapshot is a zero baseline while the genesis
  // snapshot (epoch 1) is still retained — "before the beginning" is a
  // legitimate epoch-0 state, not missing history.
  const auto first = store_.oldest();
  if (first && first->epoch == 1) return genesis_baseline();
  if (const ledger::Ledger* log = store_.ledger()) {
    try {
      if (const auto record = log->at_or_before(t_s))
        return std::make_shared<const Snapshot>(to_snapshot(*record));
    } catch (const ledger::DamagedRecord& damage) {
      error = Response::error(ErrorCode::kUnavailable, damage.what());
      return nullptr;
    }
    const ledger::Stats stats = log->stats();
    if (stats.records > 0) {
      // The ledger reaches back to accounting's start: before it is genesis.
      if (stats.oldest_epoch == 1) return genesis_baseline();
      error = Response::error(ErrorCode::kOutOfHistory,
                              "window start predates the durable ledger",
                              stats.oldest_epoch);
      return nullptr;
    }
  }
  error = Response::error(ErrorCode::kOutOfRetention,
                          "window start predates the snapshot retention ring",
                          first ? first->epoch : 0);
  return nullptr;
}

Response QueryEngine::note_hit(const Response& response) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (hits_counter_) hits_counter_->inc();
  return response;
}

void QueryEngine::note_miss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (misses_counter_) misses_counter_->inc();
}

Response QueryEngine::evaluate(
    const Request& request, const std::shared_ptr<const Snapshot>& s0,
    const std::shared_ptr<const Snapshot>& s1) const {
  VMP_TRACE_SPAN("serve.evaluate", "serve");
  const Snapshot& head = *s1;
  switch (request.kind) {
    case QueryKind::kVmPower: {
      const VmRecord* record = head.find_vm(request.host, request.vm);
      if (!record)
        return Response::error(ErrorCode::kUnknownEntity,
                               "unknown vm " + std::to_string(request.host) +
                                   "/" + std::to_string(request.vm));
      return Response::success(head.epoch, {record->power_w});
    }
    case QueryKind::kTenantPower: {
      const TenantRecord* record = head.find_tenant(request.tenant);
      if (!record)
        return Response::error(
            ErrorCode::kUnknownEntity,
            "unknown tenant " + std::to_string(request.tenant));
      return Response::success(head.epoch, {record->power_w});
    }
    case QueryKind::kFleetPower:
      return Response::success(head.epoch, {head.total_power_w});
    case QueryKind::kVmEnergy: {
      const VmRecord* r1 = head.find_vm(request.host, request.vm);
      if (!r1)
        return Response::error(ErrorCode::kUnknownEntity,
                               "unknown vm " + std::to_string(request.host) +
                                   "/" + std::to_string(request.vm));
      const VmRecord* r0 = s0->find_vm(request.host, request.vm);
      return Response::success(head.epoch,
                               {r1->energy_j - (r0 ? r0->energy_j : 0.0)});
    }
    case QueryKind::kTenantEnergy: {
      if (!head.find_tenant(request.tenant))
        return Response::error(
            ErrorCode::kUnknownEntity,
            "unknown tenant " + std::to_string(request.tenant));
      return Response::success(head.epoch,
                               {tenant_energy_in(head, request.tenant) -
                                tenant_energy_in(*s0, request.tenant)});
    }
    case QueryKind::kTenantCost: {
      if (!head.find_tenant(request.tenant))
        return Response::error(
            ErrorCode::kUnknownEntity,
            "unknown tenant " + std::to_string(request.tenant));
      // Price each constant-rate segment at the energy actually drawn in it
      // (snapshot differences), so the per-segment energies telescope to the
      // window total.
      const double e_start = tenant_energy_in(*s0, request.tenant);
      const double e_end = tenant_energy_in(head, request.tenant);
      double cost = 0.0;
      double previous = e_start;
      for (const core::TouSegment& segment :
           core::tou_segments(options_.tou, request.t0, request.t1)) {
        double at_boundary = e_end;
        if (segment.t1 < request.t1) {
          Response error;
          const auto snapshot = resolve_at_or_before(segment.t1, error);
          if (!snapshot) return error;  // boundary slid out of all history.
          at_boundary = tenant_energy_in(*snapshot, request.tenant);
        }
        cost += common::joules_to_kwh(at_boundary - previous) *
                segment.usd_per_kwh;
        previous = at_boundary;
      }
      return Response::success(head.epoch, {cost, e_end - e_start});
    }
    case QueryKind::kStats:
      return Response::success(
          head.epoch,
          {static_cast<double>(head.tick), head.time_s,
           static_cast<double>(head.vms.size()),
           static_cast<double>(head.tenants.size()), head.total_power_w,
           head.total_energy_j, head.unattributed_j});
  }
  return Response::error(ErrorCode::kUnknownQuery, "unhandled query kind");
}

QueryEngine::Shard& QueryEngine::shard_for(const std::string& key) noexcept {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool QueryEngine::cache_lookup(const std::string& key, Response& out) {
  if (shard_capacity_ == 0) return false;
  StageTimer timer(Stage::kCacheProbe);
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    if (shard.misses) shard.misses->inc();
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // touch.
  out = it->second->response;
  if (shard.hits) shard.hits->inc();
  return true;
}

void QueryEngine::cache_insert(const std::string& key,
                               const Response& response) {
  if (shard_capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  if (shard.index.contains(key)) return;  // raced with another worker; keep first.
  shard.lru.push_front(CacheEntry{key, response});
  shard.index[key] = shard.lru.begin();
  if (shard.lru.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    if (evictions_counter_) evictions_counter_->inc();
  }
}

}  // namespace vmp::serve
