#include "federate/frontend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "serve/client.hpp"

namespace vmp::federate {

namespace {

constexpr double kFanoutLatencyLoS = 0.0;
constexpr double kFanoutLatencyHiS = 0.5;
constexpr std::size_t kFanoutLatencyBins = 50;

// Snapshot stats layout (QueryKind::kStats): indexes into Response::values.
constexpr std::size_t kStatsTick = 0;
constexpr std::size_t kStatsTime = 1;
constexpr std::size_t kStatsVms = 2;
constexpr std::size_t kStatsTenants = 3;
constexpr std::size_t kStatsValueCount = 7;

std::string fleet_label(std::uint32_t fleet) {
  return obs::labeled("vmpower_fed_shard_attempts_total",
                      {{"fleet", std::to_string(fleet)}});
}

}  // namespace

void FrontendOptions::validate() const {
  if (deadline.count() < 0 || backoff.count() < 0 || hedge_delay.count() < 0)
    throw std::invalid_argument(
        "federation: negative deadline/backoff/hedge delay");
  if (retries > 32)
    throw std::invalid_argument("federation: retries must be <= 32");
}

FederationFrontend::FederationFrontend(ShardMap map, FrontendOptions options)
    : map_(std::move(map)),
      options_(options),
      health_(options_.health, options_.metrics) {
  options_.validate();
  if (map_.empty())
    throw std::invalid_argument("federation: empty shard map");
  PoolOptions pool_options;
  pool_options.max_idle_per_endpoint = options_.max_idle_per_endpoint;
  pool_options.metrics = options_.metrics;
  pool_ = std::make_unique<ConnectionPool>(pool_options);
  // Sized for a couple of concurrent fan-outs by default; hedge legs run on
  // their own threads, so a worker is one shard leg.
  std::size_t workers = options_.workers;
  if (workers == 0) workers = std::clamp<std::size_t>(map_.size() * 2, 1, 64);
  dispatch_ = std::make_unique<util::ThreadPool>(workers);
  if (fleet::Metrics* m = options_.metrics) {
    fanouts_ = &m->counter("vmpower_fed_fanouts_total",
                           "Federated queries fanned out to the shards");
    partials_ = &m->counter(
        "vmpower_fed_partial_total",
        "Federated responses returned incomplete (some shard missing)");
    unavailable_ = &m->counter(
        "vmpower_fed_unavailable_total",
        "Federated queries answered by no shard at all");
    retries_counter_ = &m->counter("vmpower_fed_retries_total",
                                   "Per-shard attempts beyond the first");
    hedges_ = &m->counter("vmpower_fed_hedges_total",
                          "Hedged second requests launched against replicas");
    hedge_wins_ = &m->counter(
        "vmpower_fed_hedge_wins_total",
        "Hedged requests that beat the primary to a successful answer");
    skew_gauge_ = &m->gauge(
        "vmpower_fed_epoch_skew",
        "max - min shard snapshot epoch on the last federated roll-up");
    fanout_latency_ = &m->histogram(
        "vmpower_fed_fanout_latency_seconds",
        "End-to-end federated fan-out latency (scatter to roll-up)",
        kFanoutLatencyLoS, kFanoutLatencyHiS, kFanoutLatencyBins);
    m->gauge("vmpower_fed_shards", "Fleet shards in the federation map")
        .set(static_cast<double>(map_.size()));
  }
}

serve::Response FederationFrontend::send_on(serve::Client& client,
                                            const serve::Request& request) {
  // Propagate the trace across the process boundary: the shard's server
  // adopts this attempt's span as its remote parent, so the stitched tree
  // shows the shard's execute nested under exactly the attempt (first try,
  // retry, or hedge) that carried it. Only when a trace is actually armed
  // and ambient — untraced fan-outs stay on the plain id-less frame.
  const std::uint64_t trace_id = obs::Tracer::global().enabled()
                                     ? obs::TraceContext::current_trace()
                                     : 0;
  if (trace_id != 0) {
    serve::TraceContextWire wire;
    wire.trace_id = trace_id;
    wire.parent_span = obs::current_span();
    wire.budget_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            options_.deadline)
            .count());
    const std::uint64_t request_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    return client.query_with_trace(request, request_id, wire);
  }
  return client.query(request);
}

std::optional<serve::Response> FederationFrontend::attempt(
    std::uint16_t port, const serve::Request& request) {
  ConnectionPool::Lease lease;
  try {
    lease = pool_->checkout(port, options_.deadline);
  } catch (const std::runtime_error&) {
    return std::nullopt;  // endpoint unreachable; counts toward ejection.
  }
  while (true) {
    try {
      serve::Response response = send_on(*lease.client, request);
      pool_->checkin(std::move(lease));
      return response;
    } catch (const serve::TimeoutError&) {
      // Slow is not stale: the peer is alive but over deadline, and the
      // socket may be mid-message — discard it, never reconnect-retry.
      pool_->discard(std::move(lease));
      return std::nullopt;
    } catch (const std::runtime_error&) {
      if (!lease.reused) {
        // A fresh connection failing outright is a real shard failure.
        pool_->discard(std::move(lease));
        return std::nullopt;
      }
      // A reused connection dying on first use (EOF/ECONNRESET) usually
      // means the shard restarted while it idled. Reconnect once — the
      // replacement lease is fresh, so a second failure exits above.
      try {
        lease = pool_->reconnect(std::move(lease), options_.deadline);
      } catch (const std::runtime_error&) {
        return std::nullopt;
      }
    }
  }
}

FederationFrontend::ShardResult FederationFrontend::query_shard(
    const FleetShard& shard, const serve::Request& request) {
  VMP_TRACE_NAMED_SPAN(shard_span, "fed.shard", "federate");
  shard_span.note("fleet", shard.fleet);
  ShardResult result;
  result.fleet = shard.fleet;
  if (options_.metrics)
    options_.metrics
        ->counter(fleet_label(shard.fleet),
                  "Connection attempts against this shard (first tries, "
                  "retries, and hedges)")
        .inc();

  const bool hedged = options_.hedge && shard.has_replica();
  const std::uint32_t attempts = options_.retries + 1;
  for (std::uint32_t k = 0; k < attempts; ++k) {
    if (k > 0) {
      if (retries_counter_) retries_counter_->inc();
      std::this_thread::sleep_for(options_.backoff * (1u << (k - 1)));
    }
    std::optional<serve::Response> response;
    if (hedged) {
      // Race the primary against the replica: launch the primary leg on its
      // own thread, give it hedge_delay, then fire the replica. First
      // success wins; a loser still mid-request is parked on the stray list
      // and reaped later, so a hedge win is not re-serialized behind the
      // slow primary's deadline.
      struct Race {
        std::mutex mutex;
        std::condition_variable cv;
        int winner = 0;  ///< 0 undecided, 1 primary, 2 replica.
        int finished = 0;
        std::optional<serve::Response> response;
      };
      auto race = std::make_shared<Race>();
      // Each racing leg runs on its own thread, so the ambient trace must be
      // re-seeded there; the leg's span (fed.attempt / fed.hedge) parents
      // whatever the shard server opens on the far side.
      const std::uint64_t leg_trace = obs::TraceContext::current_trace();
      const std::uint64_t leg_parent = obs::current_span();
      auto leg = [this, race, request, leg_trace, leg_parent,
                  k](int who, std::uint16_t port,
                     std::shared_ptr<std::atomic<bool>> done) {
        VMP_TRACE_CONTEXT_PARENTED(leg_trace, leg_parent);
        std::optional<serve::Response> r;
        {
          VMP_TRACE_NAMED_SPAN(leg_span,
                               who == 1 ? "fed.attempt" : "fed.hedge",
                               "federate");
          leg_span.note("attempt", k);
          r = attempt(port, request);
        }
        {
          std::lock_guard lock(race->mutex);
          ++race->finished;
          if (r && race->winner == 0) {
            race->winner = who;
            race->response = std::move(r);
          }
        }
        done->store(true, std::memory_order_release);
        race->cv.notify_all();
      };
      auto primary_done = std::make_shared<std::atomic<bool>>(false);
      std::thread primary(leg, 1, shard.primary(), primary_done);
      int launched = 1;
      std::thread replica;
      std::shared_ptr<std::atomic<bool>> replica_done;
      {
        std::unique_lock lock(race->mutex);
        if (!race->cv.wait_for(lock, options_.hedge_delay, [&] {
              return race->finished >= 1;
            })) {
          lock.unlock();
          if (hedges_) hedges_->inc();
          replica_done = std::make_shared<std::atomic<bool>>(false);
          replica = std::thread(leg, 2, shard.endpoints[1], replica_done);
          launched = 2;
          lock.lock();
        }
        race->cv.wait(lock, [&] {
          return race->winner != 0 || race->finished >= launched;
        });
        response = race->response;
        if (race->winner == 2 && hedge_wins_) hedge_wins_->inc();
      }
      auto settle = [this](std::thread& thread,
                           const std::shared_ptr<std::atomic<bool>>& done) {
        if (!thread.joinable()) return;
        if (done->load(std::memory_order_acquire))
          thread.join();
        else
          park_stray(std::move(thread), done);
      };
      settle(primary, primary_done);
      settle(replica, replica_done);
    } else {
      VMP_TRACE_NAMED_SPAN(attempt_span, "fed.attempt", "federate");
      attempt_span.note("attempt", k);
      response = attempt(shard.primary(), request);
    }
    if (response) {
      result.answered = true;
      result.response = std::move(*response);
      break;
    }
  }

  if (!result.answered && options_.metrics)
    options_.metrics
        ->counter(obs::labeled("vmpower_fed_shard_failures_total",
                               {{"fleet", std::to_string(shard.fleet)}}),
                  "Shard legs that exhausted every attempt without an answer")
        .inc();
  return result;
}

void FederationFrontend::park_stray(
    std::thread thread, std::shared_ptr<std::atomic<bool>> done) {
  std::lock_guard lock(strays_mutex_);
  strays_.push_back(Stray{std::move(thread), std::move(done)});
}

void FederationFrontend::reap_strays(bool final) {
  std::vector<Stray> to_join;
  {
    std::lock_guard lock(strays_mutex_);
    auto keep = strays_.begin();
    for (auto& stray : strays_) {
      if (final || stray.done->load(std::memory_order_acquire)) {
        to_join.push_back(std::move(stray));
      } else {
        // Self-move-assigning a joinable std::thread terminates; skip when
        // nothing before this stray was reaped.
        if (&*keep != &stray) *keep = std::move(stray);
        ++keep;
      }
    }
    strays_.erase(keep, strays_.end());
  }
  for (Stray& stray : to_join)
    if (stray.thread.joinable()) stray.thread.join();
}

FederationFrontend::~FederationFrontend() {
  // Drain the dispatcher first — its tasks can park new strays — then join
  // every stray hedge loser.
  dispatch_.reset();
  reap_strays(true);
}

serve::Response FederationFrontend::execute(const serve::Request& request) {
  const auto start = std::chrono::steady_clock::now();
  if (fanouts_) fanouts_->inc();
  // Capture the ambient trace before the fan-out: thread-local context does
  // not follow a task onto a dispatch worker, so every leg re-seeds it and
  // its fed.shard span becomes a child of the caller's serve.execute span.
  // Disarmed tracing costs exactly this one relaxed load.
  const std::uint64_t trace_id = obs::Tracer::global().enabled()
                                     ? obs::TraceContext::current_trace()
                                     : 0;
  const std::uint64_t parent_span = obs::current_span();

  std::vector<std::uint32_t> skipped;
  std::vector<const FleetShard*> targets;
  targets.reserve(map_.size());
  for (const FleetShard& shard : map_.shards()) {
    if (health_.should_try(shard.fleet))
      targets.push_back(&shard);
    else
      skipped.push_back(shard.fleet);
  }

  std::vector<ShardResult> results(targets.size());
  if (targets.size() == 1) {
    // Single shard: no parallelism to win; skip the dispatch round trip.
    results[0] = query_shard(*targets[0], request);
  } else {
    // Persistent dispatcher: shard legs run as pool tasks with a per-query
    // countdown instead of wait_idle — execute() is thread-safe, so legs of
    // concurrent queries interleave on the same workers, and no leg ever
    // blocks on pool-submitted work (hedge legs keep their own threads), so
    // the pool's no-nested-blocking rule holds.
    struct Join {
      std::mutex mutex;
      std::condition_variable cv;
      std::size_t remaining = 0;
    };
    auto join = std::make_shared<Join>();
    join->remaining = targets.size();
    for (std::size_t i = 0; i < targets.size(); ++i)
      dispatch_->submit([this, &request, &results, i, shard = targets[i],
                         trace_id, parent_span, join] {
        VMP_TRACE_CONTEXT_PARENTED(trace_id, parent_span);
        results[i] = query_shard(*shard, request);
        bool last = false;
        {
          std::lock_guard lock(join->mutex);
          last = --join->remaining == 0;
        }
        if (last) join->cv.notify_all();
      });
    std::unique_lock lock(join->mutex);
    join->cv.wait(lock, [&] { return join->remaining == 0; });
  }
  reap_strays(false);

  for (const ShardResult& result : results) {
    if (result.answered)
      health_.record_success(result.fleet);
    else
      health_.record_failure(result.fleet);
  }

  serve::Response response =
      gather(request, std::move(results), std::move(skipped));
  if (fanout_latency_)
    fanout_latency_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  return response;
}

serve::Response FederationFrontend::gather(
    const serve::Request& request, std::vector<ShardResult> results,
    std::vector<std::uint32_t> skipped) {
  using serve::ErrorCode;
  using serve::QueryKind;
  using serve::Response;

  std::vector<std::uint32_t> missing = std::move(skipped);
  std::vector<const ShardResult*> contributors;
  const Response* first_error = nullptr;
  std::size_t unknown_entity = 0;
  for (const ShardResult& result : results) {
    if (!result.answered) {
      missing.push_back(result.fleet);
    } else if (result.response.ok) {
      contributors.push_back(&result);
    } else if (result.response.code == ErrorCode::kUnknownEntity) {
      // Known-zero contribution: the entity simply does not live on this
      // shard. Not a failure, not missing data.
      ++unknown_entity;
    } else {
      // The shard answered but could not serve (no snapshot, window out of
      // its history, ...): its contribution is absent, which degrades the
      // roll-up the same way an unreachable shard does.
      missing.push_back(result.fleet);
      if (!first_error) first_error = &result.response;
    }
  }
  std::sort(missing.begin(), missing.end());

  if (contributors.empty()) {
    if (unavailable_ && unknown_entity == 0) unavailable_->inc();
    if (first_error)
      return Response::error(first_error->code, first_error->message,
                             first_error->detail);
    if (unknown_entity > 0) {
      std::string message = "entity unknown on every reachable shard";
      if (!missing.empty())
        message += " (" + std::to_string(missing.size()) +
                   " shard(s) unreachable)";
      return Response::error(ErrorCode::kUnknownEntity, std::move(message));
    }
    return Response::error(ErrorCode::kUnavailable,
                           "no federation shard answered");
  }

  std::uint64_t min_epoch = contributors.front()->response.epoch;
  std::uint64_t max_epoch = min_epoch;
  for (const ShardResult* contributor : contributors) {
    min_epoch = std::min(min_epoch, contributor->response.epoch);
    max_epoch = std::max(max_epoch, contributor->response.epoch);
  }
  const std::uint64_t skew = max_epoch - min_epoch;
  if (skew_gauge_) skew_gauge_->set(static_cast<double>(skew));
  if (options_.skew_policy == SkewPolicy::kReject &&
      skew > options_.max_epoch_skew)
    return Response::error(
        ErrorCode::kEpochSkew,
        "shard epochs spread " + std::to_string(skew) +
            " exceeds the skew budget " +
            std::to_string(options_.max_epoch_skew),
        skew);

  // Additivity roll-up. Energies, powers, and TOU costs across independent
  // shard games sum exactly; the stats verb merges per-field (counts sum,
  // clocks take the most conservative value).
  std::vector<double> merged;
  if (request.kind == QueryKind::kStats) {
    merged.assign(kStatsValueCount, 0.0);
    bool first = true;
    for (const ShardResult* contributor : contributors) {
      const std::vector<double>& values = contributor->response.values;
      if (values.size() != kStatsValueCount) continue;  // foreign layout.
      for (std::size_t i = 0; i < kStatsValueCount; ++i) {
        if (i == kStatsTick || i == kStatsTime)
          merged[i] = first ? values[i] : std::min(merged[i], values[i]);
        else if (i == kStatsTenants)
          merged[i] = first ? values[i] : std::max(merged[i], values[i]);
        else
          merged[i] += values[i];
      }
      first = false;
    }
  } else {
    for (const ShardResult* contributor : contributors) {
      const std::vector<double>& values = contributor->response.values;
      if (merged.size() < values.size()) merged.resize(values.size(), 0.0);
      for (std::size_t i = 0; i < values.size(); ++i) merged[i] += values[i];
    }
  }

  if (missing.empty()) {
    if (options_.monitor && request.kind != QueryKind::kStats &&
        !merged.empty()) {
      // Re-walk the contributions in the same order the roll-up summed them:
      // a non-zero residual can only come from a dropped or double-counted
      // shard, never from reassociation.
      double shard_sum = 0.0;
      for (const ShardResult* contributor : contributors)
        if (!contributor->response.values.empty())
          shard_sum += contributor->response.values.front();
      options_.monitor->observe_federation(min_epoch, merged.front(),
                                           shard_sum, contributors.size());
    }
    return Response::success(min_epoch, std::move(merged));
  }
  if (partials_) partials_->inc();
  return Response::partial(min_epoch, std::move(merged), std::move(missing));
}

}  // namespace vmp::federate
