#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint32_t> g_thread_ordinals{0};
thread_local std::uint32_t t_thread = g_thread_ordinals.fetch_add(1);
thread_local std::uint32_t t_current_span = 0;

/// Linear interpolation between order statistics (the rule the program's
/// own percentiles use).  0 for an empty sample.
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double total(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Probe::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Probe::add(const std::string& key, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  sums_[key] += v;
}

void Probe::samples(const std::string& key, const std::vector<double>& v) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& dst = samples_[key];
  dst.insert(dst.end(), v.begin(), v.end());
}

double Probe::sum(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sums_.find(key);
  return it == sums_.end() ? 0.0 : it->second;
}

std::vector<double> Probe::samples(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = samples_.find(key);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<Span> Probe::take_spans() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(Probe* probe, const char* name, std::uint32_t parent)
    : probe_(probe), name_(name) {
  if (!probe_) return;
  id_ = probe_->next_id();
  parent_ = parent != 0 ? parent : t_current_span;
  saved_current_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!probe_) return;
  const std::int64_t end = now_ns();
  t_current_span = saved_current_;
  try {
    probe_->add(name_, 1e-9 * static_cast<double>(end - start_ns_));
    probe_->record(Span{name_, start_ns_, end, id_, parent_, probe_->run(), t_thread});
  } catch (...) {
    // Out of memory while recording: the span is lost, and says so.
    std::fprintf(stderr, "perfbench: dropped span %s\n", name_);
  }
}

void StepLog::ordinary(double ns) {
  ordinary_s_ += 1e-9 * ns;
  if (window_ns_.size() < kWindow) {
    window_ns_.push_back(ns);
  } else {
    window_ns_[next_] = ns;
    next_ = (next_ + 1) % kWindow;
  }
}

void StepLog::retrain(double ns, std::uint64_t rows) {
  retrain_ns_.push_back(ns);
  retrain_rows_ += rows;
}

void StepLog::flush(Probe& probe, const std::string& kind) {
  probe.add("step_s." + kind, ordinary_s_);
  probe.add("step_s.all", ordinary_s_ + 1e-9 * total(retrain_ns_));
  probe.samples("step_ns." + kind, window_ns_);
  if (!retrain_ns_.empty()) {
    probe.samples("retrain_ns", retrain_ns_);
    probe.add("il.retrains", static_cast<double>(retrain_ns_.size()));
    probe.add("il.retrain_rows", static_cast<double>(retrain_rows_));
  }
  *this = StepLog{};
}

TracedDrmController::TracedDrmController(std::unique_ptr<oal::core::DrmController> inner,
                                         Probe& probe, std::string kind)
    : inner_(std::move(inner)), probe_(&probe), kind_(std::move(kind)) {
  il_ = dynamic_cast<const oal::core::OnlineIlController*>(inner_.get());
  if (il_) updates_ = il_->policy_updates();
}

oal::soc::SocConfig TracedDrmController::step(const oal::soc::SnippetResult& result,
                                              const oal::soc::SocConfig& executed) {
  const std::int64_t t0 = now_ns();
  const oal::soc::SocConfig next = inner_->step(result, executed);
  const auto ns = static_cast<double>(now_ns() - t0);
  if (il_ && il_->policy_updates() != updates_) {
    updates_ = il_->policy_updates();
    // Rows the retrain fitted: the aggregate holds every labeled decision
    // so far, up to its cap (OnlineIlConfig defaults; the benchmark never
    // changes them).
    const oal::core::OnlineIlConfig cfg;
    log_.retrain(ns, std::min(updates_ * cfg.buffer_capacity, cfg.aggregate_capacity));
  } else {
    log_.ordinary(ns);
  }
  return next;
}

TracedGpuController::TracedGpuController(std::unique_ptr<oal::core::GpuController> inner,
                                         Probe& probe, std::string kind)
    : inner_(std::move(inner)), probe_(&probe), kind_(std::move(kind)) {}

oal::gpu::GpuConfig TracedGpuController::step(const oal::gpu::FrameResult& result,
                                              const oal::gpu::GpuConfig& current,
                                              std::size_t frame_index) {
  const std::int64_t t0 = now_ns();
  const oal::gpu::GpuConfig next = inner_->step(result, current, frame_index);
  log_.ordinary(static_cast<double>(now_ns() - t0));
  return next;
}

oal::core::ControllerFactory traced(Probe& probe, oal::core::ControllerFactory inner,
                                    const char* span_name, std::string kind) {
  return [&probe, inner = std::move(inner), span_name, kind](oal::core::ScenarioContext& ctx) {
    ScopedSpan span(&probe, span_name);
    oal::core::ControllerInstance instance = inner(ctx);
    instance.controller =
        std::make_unique<TracedDrmController>(std::move(instance.controller), probe, kind);
    return instance;
  };
}

oal::core::GpuControllerFactory traced(Probe& probe, oal::core::GpuControllerFactory inner,
                                       const char* span_name, std::string kind) {
  return [&probe, inner = std::move(inner), span_name,
          kind](oal::core::GpuScenarioContext& ctx) {
    ScopedSpan span(&probe, span_name);
    oal::core::GpuControllerInstance instance = inner(ctx);
    instance.controller =
        std::make_unique<TracedGpuController>(std::move(instance.controller), probe, kind);
    return instance;
  };
}

namespace {

/// Runs `call` and adds its duration to *acc.
template <typename F>
auto timed_call(double* acc, F&& call) {
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    *acc += 1e-9 * static_cast<double>(now_ns() - t0);
  } else {
    auto out = call();
    *acc += 1e-9 * static_cast<double>(now_ns() - t0);
    return out;
  }
}

}  // namespace

void time_hooks(oal::core::GpuRunnerHooks& hooks, const std::shared_ptr<double>& hook_s) {
  if (hooks.arbiter)
    hooks.arbiter = [inner = hooks.arbiter, hook_s](const oal::gpu::FrameDescriptor& f,
                                                    const oal::gpu::GpuConfig& c) {
      return timed_call(hook_s.get(), [&] { return inner(f, c); });
    };
  if (hooks.observer)
    hooks.observer = [inner = hooks.observer, hook_s](const oal::gpu::FrameDescriptor& f,
                                                      const oal::gpu::GpuConfig& c,
                                                      const oal::gpu::FrameResult& r) {
      timed_call(hook_s.get(), [&] { inner(f, c, r); });
    };
  if (hooks.telemetry)
    hooks.telemetry = [inner = hooks.telemetry, hook_s] {
      return timed_call(hook_s.get(), [&] { return inner(); });
    };
}

oal::core::AnyScenario traced(Probe& probe, std::uint32_t parent, oal::core::AnyScenario inner) {
  const std::int64_t created = now_ns();
  std::string id = inner.id();
  return oal::core::AnyScenario(
      std::move(id), [&probe, parent, created, inner = std::move(inner)] {
        const std::int64_t start = now_ns();
        ScopedSpan span(&probe, "engine.scenario", parent);
        oal::core::AnyResult result = inner.run();
        const std::int64_t end = now_ns();
        probe.samples("engine.queue_wait_ns", {static_cast<double>(start - created)});
        probe.samples("engine.scenario_ns", {static_cast<double>(end - start)});
        return result;
      });
}

std::vector<std::pair<std::string, double>> layer_metrics(const Probe& p, double timed_s,
                                                          std::size_t workers) {
  const double prefill_searches = p.sum("oracle.prefill_searches");
  const double lookups = p.sum("oracle.lookups");
  const std::vector<double> retrain_ns = p.samples("retrain_ns");
  const std::vector<double> il_ns = p.samples("step_ns.online_il");
  const std::vector<double> scenario_ns = p.samples("engine.scenario_ns");
  const double engine_s = p.sum("engine.run");
  const double busy_s = p.sum("engine.scenario");
  // Time inside the runners: the scenarios' busy time on the engine, or the
  // bare runner call where no engine is involved.
  const double runner_s = engine_s > 0.0 ? busy_s : p.sum("online_il.run");
  return {
      {"oracle.searches", p.sum("oracle.searches")},
      {"oracle.search_us",
       prefill_searches > 0.0 ? 1e6 * p.sum("oracle.prefill") / prefill_searches : 0.0},
      {"oracle.collect_s", p.sum("oracle.collect")},
      {"oracle.lookups", lookups},
      {"oracle.hit_ratio", lookups > 0.0 ? p.sum("oracle.hits") / lookups : 0.0},
      {"il.train_offline_s", p.sum("il.train_offline")},
      {"il.retrains", p.sum("il.retrains")},
      {"il.retrain_rows", p.sum("il.retrain_rows")},
      {"il.retrain_ms_p50", 1e-6 * percentile(retrain_ns, 50.0)},
      {"il.retrain_share", timed_s > 0.0 ? 1e-9 * total(retrain_ns) / timed_s : 0.0},
      {"online_il.step_us_p50", 1e-3 * percentile(il_ns, 50.0)},
      {"online_il.step_us_p99", 1e-3 * percentile(il_ns, 99.0)},
      {"online_il.step_s", p.sum("step_s.online_il")},
      {"runner.residual_s", runner_s - p.sum("step_s.all") - p.sum("thermal.hook_s")},
      {"engine.scenarios", static_cast<double>(scenario_ns.size())},
      {"engine.scenario_ms_p50", 1e-6 * percentile(scenario_ns, 50.0)},
      {"engine.busy_s", busy_s},
      {"engine.utilization",
       engine_s > 0.0 && workers > 0 ? busy_s / (static_cast<double>(workers) * engine_s) : 0.0},
      {"engine.queue_wait_ms_p50", 1e-6 * percentile(p.samples("engine.queue_wait_ns"), 50.0)},
      {"fleet.generate_s", p.sum("fleet.generate")},
      {"fleet.aggregate_s", p.sum("fleet.aggregate")},
      {"thermal.clamped", p.sum("thermal.clamped")},
      {"thermal.hook_s", p.sum("thermal.hook_s")},
      {"nmpc.fit_s", p.sum("nmpc.fit")},
      {"nmpc.decision_evals", p.sum("nmpc.decision_evals")},
      {"gpu.frames", p.sum("gpu.frames")},
      {"gpu.deadline_misses", p.sum("gpu.deadline_misses")},
      {"nmpc.step_ns_p50", percentile(p.samples("step_ns.enmpc"), 50.0)},
      {"decisions", p.sum("decisions")},
  };
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t origin = 0;
  for (const Span& s : spans)
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%u,\"parent\":%u,\"run\":%u}}%s\n",
                 s.name.c_str(), s.thread, 1e-3 * static_cast<double>(s.start_ns - origin),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), s.id, s.parent, s.run,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
