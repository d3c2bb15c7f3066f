// Tracing from outside the program: spans and per-layer accumulators
// recorded around the calls the benchmark makes into the library.
//
// Nothing here reaches inside src/.  A layer is measured at the boundary
// where the benchmark calls it: decorators around the controllers
// (core::online_il, governors, core::nmpc), wrappers around the controller
// factories, the AnyScenario closures (core::experiment + ThreadPool), the
// streaming generator and sink (fleet), and the GpuRunner hooks the
// benchmark installs (thermal).  Every entry point takes a Probe*; a
// null probe (the untraced laps) records nothing and reads no clock.
//
// Spans stay in memory and are written once at exit.  Per-step timings are
// not spans — a GPU lap decides millions of frames — they are folded into
// bounded per-controller windows and flushed once per controller.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/domain.h"
#include "core/experiment.h"
#include "core/gpu_controller.h"
#include "core/online_il.h"

namespace perfbench {

/// Steady-clock nanoseconds.
std::int64_t now_ns();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span of its lap
  std::uint32_t run = 0;     ///< lap index (the run id of every span in it)
  std::uint32_t thread = 0;  ///< small per-process thread ordinal
};

/// The in-memory trace of one traced lap.  Thread-safe.
class Probe {
 public:
  explicit Probe(std::uint32_t run) : run_(run) {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  std::uint32_t run() const { return run_; }
  std::uint32_t next_id() { return next_id_.fetch_add(1); }

  void record(Span span);
  /// Adds `v` to the named sum (a counter, or seconds of a phase).
  void add(const std::string& key, double v);
  /// Appends samples to the named distribution.
  void samples(const std::string& key, const std::vector<double>& v);

  double sum(const std::string& key) const;
  std::vector<double> samples(const std::string& key) const;
  std::vector<Span> take_spans();

 private:
  const std::uint32_t run_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;  // guards the three containers below
  std::map<std::string, double> sums_;
  std::map<std::string, std::vector<double>> samples_;
  std::vector<Span> spans_;
};

/// A span over the enclosing scope.  Its duration is also added to the
/// probe's sum of the same name, which is how phase totals are read back.
class ScopedSpan {
 public:
  /// `parent` 0 means: the innermost span open on this thread.
  ScopedSpan(Probe* probe, const char* name, std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Probe* probe_;
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::uint32_t saved_current_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Step statistics of one decorated controller.  Ordinary steps keep the
/// most recent kWindow samples; online-IL retrain steps are kept apart, so
/// the ordinary-step percentiles never straddle a retrain.
class StepLog {
 public:
  static constexpr std::size_t kWindow = 4096;

  void ordinary(double ns);
  void retrain(double ns, std::uint64_t rows);
  /// Folds this log into the probe under `kind` and clears it.
  void flush(Probe& probe, const std::string& kind);

 private:
  double ordinary_s_ = 0.0;
  std::vector<double> window_ns_;
  std::size_t next_ = 0;
  std::vector<double> retrain_ns_;
  std::uint64_t retrain_rows_ = 0;
};

/// Times every step() of the controller it owns.  A step during which an
/// OnlineIlController's policy_updates() advanced is logged as a retrain.
class TracedDrmController : public oal::core::DrmController {
 public:
  TracedDrmController(std::unique_ptr<oal::core::DrmController> inner, Probe& probe,
                      std::string kind);

  std::string name() const override { return inner_->name(); }
  oal::soc::SocConfig step(const oal::soc::SnippetResult& result,
                           const oal::soc::SocConfig& executed) override;
  void observe_telemetry(const oal::soc::ThermalTelemetry& telemetry) override {
    inner_->observe_telemetry(telemetry);
  }
  std::optional<oal::soc::SocConfig> last_policy_decision() const override {
    return inner_->last_policy_decision();
  }
  void begin_run(const oal::soc::SocConfig& initial) override { inner_->begin_run(initial); }

  void flush() { log_.flush(*probe_, kind_); }

 private:
  std::unique_ptr<oal::core::DrmController> inner_;
  const oal::core::OnlineIlController* il_ = nullptr;  ///< inner_, when it is online IL
  std::size_t updates_ = 0;
  Probe* probe_;
  std::string kind_;
  StepLog log_;
};

class TracedGpuController : public oal::core::GpuController {
 public:
  TracedGpuController(std::unique_ptr<oal::core::GpuController> inner, Probe& probe,
                      std::string kind);

  std::string name() const override { return inner_->name(); }
  oal::gpu::GpuConfig step(const oal::gpu::FrameResult& result,
                           const oal::gpu::GpuConfig& current, std::size_t frame_index) override;
  void observe_telemetry(const oal::soc::ThermalTelemetry& telemetry) override {
    inner_->observe_telemetry(telemetry);
  }
  void begin_run(const oal::gpu::GpuConfig& initial) override { inner_->begin_run(initial); }
  std::size_t decision_evals() const override { return inner_->decision_evals(); }

  void flush() { log_.flush(*probe_, kind_); }

 private:
  std::unique_ptr<oal::core::GpuController> inner_;
  Probe* probe_;
  std::string kind_;
  StepLog log_;
};

/// Wraps a controller factory: its call becomes a span named `span_name`
/// and the controller it builds is decorated under `kind`.
oal::core::ControllerFactory traced(Probe& probe, oal::core::ControllerFactory inner,
                                    const char* span_name, std::string kind);
oal::core::GpuControllerFactory traced(Probe& probe, oal::core::GpuControllerFactory inner,
                                       const char* span_name, std::string kind);

/// Wraps a GpuRunner's thermal hooks so their time accumulates in `*hook_s`
/// (one arm's total; the caller folds it into the probe).
void time_hooks(oal::core::GpuRunnerHooks& hooks, const std::shared_ptr<double>& hook_s);

/// Wraps a scenario so its run is an "engine.scenario" span under `parent`
/// and the time from this call to the run's start is its queue wait.
oal::core::AnyScenario traced(Probe& probe, std::uint32_t parent, oal::core::AnyScenario inner);

/// The per-layer metrics of one traced lap, in BENCHMARK.json order.
/// `timed_s` is the lap's timed wall time, `workers` the engine's threads.
std::vector<std::pair<std::string, double>> layer_metrics(const Probe& probe, double timed_s,
                                                          std::size_t workers);

/// Writes spans as Chrome trace-event JSON (viewable in Perfetto).
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
