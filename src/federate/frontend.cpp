#include "federate/frontend.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "serve/client.hpp"

namespace vmp::federate {

namespace {

// Snapshot stats layout (QueryKind::kStats): indexes into Response::values.
constexpr std::size_t kStatsTick = 0;
constexpr std::size_t kStatsTime = 1;
constexpr std::size_t kStatsVms = 2;
constexpr std::size_t kStatsTenants = 3;
constexpr std::size_t kStatsValueCount = 7;

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNever = Clock::time_point::max();

/// `from + delay`, saturating at kNever.
Clock::time_point after(Clock::time_point from,
                        std::chrono::milliseconds delay) {
  return delay >= std::chrono::duration_cast<std::chrono::milliseconds>(
                      kNever - from)
             ? kNever
             : from + delay;
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
      health_(options_.metrics),
      shard_instruments_(map_.size()) {
  options_.validate();
  if (map_.empty())
    throw std::invalid_argument("federation: empty shard map");
  PoolOptions pool_options;
  pool_options.max_idle_per_endpoint = options_.max_idle_per_endpoint;
  pool_options.metrics = options_.metrics;
  pool_ = std::make_unique<ConnectionPool>(pool_options);
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
        "End-to-end federated fan-out latency (scatter to roll-up)");
    m->gauge("vmpower_fed_shards", "Fleet shards in the federation map")
        .set(static_cast<double>(map_.size()));
  }
}

/// One query's shard legs, run on the thread that called execute(). Every
/// admitted shard gets a Slot holding at most two legs in flight (an
/// attempt's primary request and its hedge) and the timers of what the shard
/// does next. run() sends every shard's first attempt, then polls the open
/// legs' sockets until every slot is settled, waking at the nearest leg
/// deadline, due hedge or due retry. Spans are ManualSpans: the legs of one
/// fan-out overlap on this thread, so they cannot nest as scopes.
class FederationFrontend::Fanout {
 public:
  Fanout(FederationFrontend& frontend, const serve::Request& request,
         const std::vector<const FleetShard*>& targets, std::uint64_t trace_id,
         std::uint64_t parent_span)
      : frontend_(frontend),
        options_(frontend.options_),
        request_(request),
        trace_id_(trace_id),
        slots_(targets.size()) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      Slot& slot = slots_[i];
      slot.shard = targets[i];
      slot.instruments = &frontend.shard_instruments_[static_cast<std::size_t>(
          targets[i] - frontend.map_.shards().data())];
      slot.span = obs::ManualSpan("fed.shard", "federate", trace_id,
                                  parent_span, "fleet", targets[i]->fleet);
      slot.result.fleet = targets[i]->fleet;
    }
  }

  /// The shards' results, in the order of `targets`.
  [[nodiscard]] std::vector<ShardResult> run() {
    for (Slot& slot : slots_) start_attempt(slot, Clock::now());
    std::vector<pollfd> fds;
    std::vector<std::pair<Slot*, Which>> owners;
    fds.reserve(2 * slots_.size());
    owners.reserve(2 * slots_.size());
    while (true) {
      const Clock::time_point now = Clock::now();
      Clock::time_point wake = kNever;
      std::size_t pending = 0;
      fds.clear();
      owners.clear();
      for (Slot& slot : slots_) {
        wake = std::min(wake, advance(slot, now));
        if (slot.settled) continue;
        ++pending;
        for (const Which which : {kPrimary, kHedge})
          if (slot.legs[which].open()) {
            fds.push_back({slot.legs[which].lease.client->fd(), POLLIN, 0});
            owners.emplace_back(&slot, which);
          }
      }
      if (pending == 0) break;
      int timeout_ms = -1;
      if (wake != kNever)
        timeout_ms = static_cast<int>(std::min<std::chrono::milliseconds::rep>(
            std::chrono::ceil<std::chrono::milliseconds>(wake - now).count(),
            INT_MAX));
      if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("federation: poll failed: ") +
                                 std::strerror(errno));
      }
      const Clock::time_point woke = Clock::now();
      for (std::size_t i = 0; i < fds.size(); ++i) {
        auto [slot, which] = owners[i];
        // An earlier answer this round may have settled the slot and closed
        // this leg as the loser.
        if (fds[i].revents != 0 && slot->legs[which].open())
          read(*slot, which, woke);
      }
    }
    std::vector<ShardResult> results;
    results.reserve(slots_.size());
    for (Slot& slot : slots_) results.push_back(std::move(slot.result));
    return results;
  }

 private:
  enum Which : std::size_t { kPrimary = 0, kHedge = 1 };

  struct Leg {
    ConnectionPool::Lease lease;  ///< no client: this leg is not in flight.
    Clock::time_point deadline = kNever;
    std::uint64_t request_id = 0;  ///< echoed by a traced answer; 0 untraced.
    obs::ManualSpan span;          ///< fed.attempt or fed.hedge.
    [[nodiscard]] bool open() const noexcept {
      return lease.client != nullptr;
    }
  };

  struct Slot {
    const FleetShard* shard = nullptr;
    ShardInstruments* instruments = nullptr;
    obs::ManualSpan span;       ///< fed.shard
    std::uint32_t attempt = 0;  ///< the attempt in flight or due next.
    Leg legs[2];
    Clock::time_point hedge_at = kNever;  ///< hedge due, primary unanswered.
    Clock::time_point retry_at = kNever;  ///< next attempt due.
    bool settled = false;
    ShardResult result;
  };

  /// Processes every timer of `slot` due by `now`; returns its next wake-up
  /// (kNever once settled or when it only waits on a socket forever).
  Clock::time_point advance(Slot& slot, Clock::time_point now) {
    while (!slot.settled) {
      if (slot.retry_at <= now) {
        slot.retry_at = kNever;
        start_attempt(slot, now);
        continue;
      }
      if (slot.hedge_at <= now) {
        slot.hedge_at = kNever;
        if (frontend_.hedges_) frontend_.hedges_->inc();
        if (!launch(slot, kHedge, slot.shard->endpoints[1]))
          leg_failed(slot, now);
        continue;
      }
      bool expired = false;
      for (Leg& leg : slot.legs)
        if (leg.open() && leg.deadline <= now) {
          // Slow is not stale: the peer is alive but over deadline, and the
          // socket may be mid-message. Close it; never redial.
          close(leg);
          expired = true;
        }
      if (!expired) break;
      leg_failed(slot, now);
    }
    if (slot.settled) return kNever;
    Clock::time_point wake = std::min(slot.retry_at, slot.hedge_at);
    for (const Leg& leg : slot.legs)
      if (leg.open()) wake = std::min(wake, leg.deadline);
    return wake;
  }

  /// Sends attempt `slot.attempt`'s primary request and arms its hedge. A
  /// primary that fails outright is never hedged: the attempt is over.
  void start_attempt(Slot& slot, Clock::time_point now) {
    if (!launch(slot, kPrimary, slot.shard->primary()))
      leg_failed(slot, now);
    else if (options_.hedge && slot.shard->has_replica())
      slot.hedge_at = after(Clock::now(), options_.hedge_delay);
  }

  /// Counts and sends one leg to `port`; false (leg closed) on failure.
  bool launch(Slot& slot, Which which, std::uint16_t port) {
    if (fleet::Metrics* metrics = options_.metrics)
      obs::resolve_once(slot.instruments->attempts, [&]() -> fleet::Counter& {
        return metrics->counter(
            obs::labeled("vmpower_fed_shard_attempts_total",
                         {{"fleet", std::to_string(slot.shard->fleet)}}),
            "Connection attempts against this shard (first tries, retries, "
            "and hedges)");
      }).inc();
    Leg& leg = slot.legs[which];
    leg.span = obs::ManualSpan(which == kPrimary ? "fed.attempt" : "fed.hedge",
                               "federate", trace_id_, slot.span.id(),
                               "attempt", slot.attempt);
    try {
      leg.lease = frontend_.pool_->checkout(port, options_.deadline);
    } catch (const std::runtime_error&) {
      leg.span.end();  // endpoint unreachable; counts toward ejection.
      return false;
    }
    return send(leg);
  }

  /// Sends the request on the leg's lease and arms its deadline. A reused
  /// connection that fails at once is redialed and resent once; false (leg
  /// closed) when the request cannot be sent.
  bool send(Leg& leg) {
    while (true) {
      try {
        serve::Client& client = *leg.lease.client;
        if (trace_id_ == 0) {
          leg.request_id = 0;
          client.send_query(request_);
        } else {
          // Propagate the trace across the process boundary: the shard's
          // server adopts this leg's span as its remote parent, so the
          // stitched tree shows the shard's execute nested under exactly the
          // attempt (first try, retry, or hedge) that carried it.
          serve::TraceContextWire wire;
          wire.trace_id = trace_id_;
          wire.parent_span = leg.span.id();
          wire.budget_us = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  options_.deadline)
                  .count());
          leg.request_id = frontend_.next_request_id_.fetch_add(
                               1, std::memory_order_relaxed) +
                           1;
          client.send_query_with_trace(request_, leg.request_id, wire);
        }
        leg.deadline = options_.deadline.count() == 0
                           ? kNever
                           : after(Clock::now(), options_.deadline);
        return true;
      } catch (const serve::TimeoutError&) {
        close(leg);
        return false;
      } catch (const std::runtime_error&) {
        if (!leg.lease.reused) {
          // A fresh connection failing outright is a real shard failure.
          close(leg);
          return false;
        }
        if (!redial(leg)) return false;
      }
    }
  }

  /// Swaps a reused lease that failed at once for a fresh connection: the
  /// shard most likely restarted while it idled. The new lease is fresh, so
  /// a second failure closes the leg. False (leg closed) when the endpoint
  /// stays unreachable.
  bool redial(Leg& leg) {
    try {
      leg.lease =
          frontend_.pool_->reconnect(std::move(leg.lease), options_.deadline);
      return true;
    } catch (const std::runtime_error&) {
      leg.span.end();
      return false;
    }
  }

  /// Reads the answer of a leg whose socket became readable. The first
  /// success wins; the loser is mid-request, so its connection is closed
  /// (one eviction) rather than returned to the pool.
  void read(Slot& slot, Which which, Clock::time_point now) {
    Leg& leg = slot.legs[which];
    try {
      serve::Client& client = *leg.lease.client;
      serve::Response response;
      if (leg.request_id == 0) {
        response = client.recv_response();
      } else {
        auto [echoed, answer] = client.recv_response_with_id();
        if (echoed != leg.request_id)
          throw std::runtime_error(
              "serve client: response echoed wrong request id");
        response = std::move(answer);
      }
      frontend_.pool_->checkin(std::move(leg.lease));
      leg.span.end();
      if (which == kHedge && frontend_.hedge_wins_)
        frontend_.hedge_wins_->inc();
      Leg& loser = slot.legs[which == kPrimary ? kHedge : kPrimary];
      if (loser.open()) close(loser);
      slot.hedge_at = kNever;
      slot.result.answered = true;
      slot.result.response = std::move(response);
      settle(slot);
      return;
    } catch (const serve::TimeoutError&) {
      close(leg);
    } catch (const std::runtime_error&) {
      if (!leg.lease.reused)
        close(leg);
      else if (redial(leg) && send(leg))
        return;  // resent on a fresh connection; wait for it.
    }
    leg_failed(slot, now);
  }

  /// Closes a leg whose connection must not be reused.
  void close(Leg& leg) {
    frontend_.pool_->discard(std::move(leg.lease));
    leg.span.end();
  }

  /// After a leg closed without an answer: waits on the other leg if it is
  /// open, else schedules the next attempt or settles the shard unanswered.
  void leg_failed(Slot& slot, Clock::time_point now) {
    if (slot.legs[kPrimary].open() || slot.legs[kHedge].open()) return;
    slot.hedge_at = kNever;
    if (slot.attempt >= options_.retries) {
      settle(slot);
      return;
    }
    ++slot.attempt;
    if (frontend_.retries_counter_) frontend_.retries_counter_->inc();
    slot.retry_at = after(now, options_.backoff * (1u << (slot.attempt - 1)));
  }

  void settle(Slot& slot) {
    slot.settled = true;
    slot.span.end();
    if (slot.result.answered || options_.metrics == nullptr) return;
    obs::resolve_once(slot.instruments->failures, [&]() -> fleet::Counter& {
      return options_.metrics->counter(
          obs::labeled("vmpower_fed_shard_failures_total",
                       {{"fleet", std::to_string(slot.shard->fleet)}}),
          "Shard legs that exhausted every attempt without an answer");
    }).inc();
  }

  FederationFrontend& frontend_;
  const FrontendOptions& options_;
  const serve::Request& request_;
  const std::uint64_t trace_id_;  ///< 0: legs send untraced frames.
  std::vector<Slot> slots_;
};

serve::Response FederationFrontend::execute(const serve::Request& request) {
  const auto start = Clock::now();
  if (fanouts_) fanouts_->inc();
  // Every leg's spans hang under the caller's span and every traced frame
  // carries this trace. Disarmed tracing costs exactly this one relaxed load.
  const std::uint64_t trace_id = obs::Tracer::global().enabled()
                                     ? obs::TraceContext::current_trace()
                                     : 0;

  std::vector<std::uint32_t> skipped;
  std::vector<const FleetShard*> targets;
  targets.reserve(map_.size());
  for (const FleetShard& shard : map_.shards()) {
    if (health_.should_try(shard.fleet))
      targets.push_back(&shard);
    else
      skipped.push_back(shard.fleet);
  }

  std::vector<ShardResult> results =
      Fanout(*this, request, targets, trace_id, obs::current_span()).run();
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
        std::chrono::duration<double>(Clock::now() - start).count());
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
