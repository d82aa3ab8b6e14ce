#include "serve/profile.hpp"

#include <chrono>
#include <cstdio>

namespace vmp::serve {

namespace {

thread_local StageProfile* t_current_profile = nullptr;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t profile_now_ns() noexcept { return steady_now_ns(); }

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kAdmission: return "admission";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kExecute: return "execute";
    case Stage::kCacheProbe: return "cache_probe";
    case Stage::kCoalesceHold: return "coalesce_hold";
    case Stage::kSerialize: return "serialize";
    case Stage::kWrite: return "write";
  }
  return "?";
}

StageProfile* current_stage_profile() noexcept { return t_current_profile; }

StageProfileScope::StageProfileScope(StageProfile* profile) noexcept
    : saved_(t_current_profile) {
  t_current_profile = profile;
}

StageProfileScope::~StageProfileScope() { t_current_profile = saved_; }

StageTimer::StageTimer(Stage stage, StageProfile* profile) noexcept
    : profile_(profile), stage_(stage) {
  if (profile_ != nullptr) start_ns_ = steady_now_ns();
}

StageTimer::~StageTimer() {
  if (profile_ == nullptr) return;
  profile_->add(stage_,
                static_cast<double>(steady_now_ns() - start_ns_) * 1e-9);
}

ServeProfiler::ServeProfiler(ServeProfilerOptions options)
    : options_(options), stage_sketches_(kStageCount) {
  if (options_.metrics != nullptr) {
    profiled_counter_ = &options_.metrics->counter(
        "vmpower_serve_profiled_total",
        "Queries whose stage breakdown reached the profiler");
    slow_threshold_counter_ = &options_.metrics->counter(
        obs::labeled("vmpower_serve_slow_queries_total",
                     {{"trigger", "threshold"}}),
        "Queries logged slow, by trigger");
    slow_budget_counter_ = &options_.metrics->counter(
        obs::labeled("vmpower_serve_slow_queries_total",
                     {{"trigger", "budget"}}),
        "Queries logged slow, by trigger");
  }
}

void ServeProfiler::observe(const StageProfile& profile) {
  // Budget overrun outranks the plain threshold: it is the client-visible
  // deadline, and the log trigger should say so.
  const char* trigger = nullptr;
  if (profile.over_budget()) trigger = "budget";
  else if (profile.total_s >= options_.slow_threshold_s) trigger = "threshold";
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < kStageCount; ++i)
      stage_sketches_[i].record(profile.stage_s[i]);
    total_sketch_.record(profile.total_s);
    ++observed_;
    if (trigger != nullptr) {
      if (slow_log_.size() >= kSlowLogCapacity) {
        slow_log_.pop_front();
        ++slow_dropped_;
      }
      slow_log_.push_back(SlowQueryRecord{profile, slow_seq_++, trigger});
    }
  }
  if (profiled_counter_ != nullptr) profiled_counter_->inc();
  if (trigger != nullptr) {
    obs::Counter* counter = trigger[0] == 'b' ? slow_budget_counter_
                                              : slow_threshold_counter_;
    if (counter != nullptr) counter->inc();
  }
  if (options_.slo != nullptr)
    options_.slo->record(profile.total_s, profile.error);
}

std::uint64_t ServeProfiler::observed() const {
  std::lock_guard lock(mutex_);
  return observed_;
}

util::QuantileSketch ServeProfiler::stage_sketch(Stage stage) const {
  std::lock_guard lock(mutex_);
  return stage_sketches_[static_cast<std::size_t>(stage)];
}

util::QuantileSketch ServeProfiler::total_sketch() const {
  std::lock_guard lock(mutex_);
  return total_sketch_;
}

std::vector<SlowQueryRecord> ServeProfiler::slow_queries() const {
  std::lock_guard lock(mutex_);
  return {slow_log_.begin(), slow_log_.end()};
}

std::uint64_t ServeProfiler::slow_dropped() const {
  std::lock_guard lock(mutex_);
  return slow_dropped_;
}

void ServeProfiler::publish() {
  if (options_.metrics != nullptr) {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const util::QuantileSketch& sketch = stage_sketches_[i];
      const char* stage = to_string(static_cast<Stage>(i));
      // gauge() is idempotent (returns the existing instrument), so publish
      // doubles as lazy registration.
      static constexpr struct { const char* label; double q; } kQuantiles[] = {
          {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};
      for (const auto& [label, q] : kQuantiles)
        options_.metrics
            ->gauge(obs::labeled("vmpower_serve_stage_latency_seconds",
                                 {{"stage", stage}, {"q", label}}),
                    "Per-stage latency quantiles from the streaming sketch")
            .set(sketch.quantile(q));
      options_.metrics
          ->gauge(obs::labeled("vmpower_serve_stage_count", {{"stage", stage}}),
                  "Queries folded into each stage sketch")
          .set(static_cast<double>(sketch.count()));
      options_.metrics
          ->gauge(obs::labeled("vmpower_serve_stage_max_seconds",
                               {{"stage", stage}}),
                  "Largest stage latency seen since start")
          .set(sketch.max());
    }
  }
  if (options_.slo != nullptr) options_.slo->publish();
}

std::string ServeProfiler::health_text() {
  publish();
  std::vector<util::QuantileSketch> stages;
  util::QuantileSketch total;
  std::vector<SlowQueryRecord> slow;
  std::uint64_t observed = 0, dropped = 0;
  {
    std::lock_guard lock(mutex_);
    stages = stage_sketches_;
    total = total_sketch_;
    slow.assign(slow_log_.begin(), slow_log_.end());
    observed = observed_;
    dropped = slow_dropped_;
  }
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line,
                "health queries=%llu slow_logged=%zu slow_dropped=%llu\n",
                static_cast<unsigned long long>(observed), slow.size(),
                static_cast<unsigned long long>(dropped));
  out += line;
  const auto render_sketch = [&](const char* name,
                                 const util::QuantileSketch& sketch) {
    std::snprintf(line, sizeof line,
                  "stage %s count=%llu p50=%.9f p90=%.9f p99=%.9f max=%.9f\n",
                  name, static_cast<unsigned long long>(sketch.count()),
                  sketch.quantile(0.50), sketch.quantile(0.90),
                  sketch.quantile(0.99), sketch.max());
    out += line;
  };
  for (std::size_t i = 0; i < kStageCount; ++i)
    render_sketch(to_string(static_cast<Stage>(i)), stages[i]);
  render_sketch("total", total);
  if (options_.slo != nullptr) out += options_.slo->to_text();
  for (const SlowQueryRecord& record : slow) {
    std::snprintf(
        line, sizeof line,
        "slowq seq=%llu trigger=%s id=%llu trace=%llu kind=%s error=%d "
        "total=%.9f budget_us=%llu admission=%.9f queue_wait=%.9f "
        "execute=%.9f cache_probe=%.9f coalesce_hold=%.9f serialize=%.9f "
        "write=%.9f\n",
        static_cast<unsigned long long>(record.seq), record.trigger,
        static_cast<unsigned long long>(record.profile.request_id),
        static_cast<unsigned long long>(record.profile.trace_id),
        to_string(record.profile.kind), record.profile.error ? 1 : 0,
        record.profile.total_s,
        static_cast<unsigned long long>(record.profile.budget_us),
        record.profile.stage(Stage::kAdmission),
        record.profile.stage(Stage::kQueueWait),
        record.profile.stage(Stage::kExecute),
        record.profile.stage(Stage::kCacheProbe),
        record.profile.stage(Stage::kCoalesceHold),
        record.profile.stage(Stage::kSerialize),
        record.profile.stage(Stage::kWrite));
    out += line;
  }
  return out;
}

}  // namespace vmp::serve
