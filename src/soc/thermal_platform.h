// Thermally-constrained platform adapters (paper Section III-A, after Bhat
// et al.: "the power budget is used as a metric to throttle the frequency and
// number of operating cores").
//
// ThermalBudget is the one budgeter both control loops share: it advances a
// compact RC network from per-node power injections with temperature-
// dependent leakage feedback, periodically recomputes the power budget
// (transient_power_headroom over a configurable horizon, or
// max_sustainable_power for a steady-state budget), tracks peak junction and
// skin temperatures, and publishes the telemetry snapshot.  The steady
// fixed point is factored once per budget (thermal::FixedPointSolver), and
// advance() and both refreshes are allocation-free.
//
// Two thin adapters bind it to a runner's arbiter/observer/telemetry hooks
// and keep only what differs per platform — the ideal power model the
// arbiter consults, the throttle ladder, the power-to-node mapping and time
// step of the observer, and the nominal power shape:
//  * ThermalSocAdapter (DrmRunner): big cluster, little cluster and
//    DRAM+uncore on the PCB node, one step per executed snippet; ladder big
//    frequency, big cores, little frequency, little cores (floor: 1 LITTLE
//    core at minimum frequency).
//  * ThermalGpuAdapter (GpuRunner): GPU energy on the GPU node and the rest
//    of the producer side on the PCB node, one step per frame period; ladder
//    frequency, then slices (floor: 1 slice at minimum frequency).
//
// Any controller runs unmodified under a budget.  Budgeting consults only the
// platform's deterministic power model (the simulator stand-in for a
// power-meter feedback loop), never measurement noise, so runs stay bitwise
// reproducible.
#pragma once

#include <cstddef>

#include "gpu/gpu_model.h"
#include "soc/platform.h"
#include "soc/thermal_telemetry.h"
#include "thermal/fixed_point.h"
#include "thermal/power_budget.h"
#include "thermal/rc_network.h"

namespace oal::soc {

struct ThermalConstraintParams {
  thermal::PowerBudgetConfig limits;  ///< junction/skin limits + skin node
  /// Horizon for transient_power_headroom; <= 0 switches to the steady-state
  /// max_sustainable_power budget.
  double horizon_s = 10.0;
  /// Simulated-time cadence of budget recomputation.
  double budget_interval_s = 0.5;
  double ambient_c = 25.0;
  /// Starting temperatures (deg C) per RC node; empty = ambient everywhere.
  /// Preheating (e.g. a device already hot from prior load) makes short
  /// traces thermally binding.
  common::Vec initial_temperature_c;
  /// Temperature-dependent leakage injected on top of the platform's power
  /// (node order: big, little, gpu, pcb, skin).
  thermal::LeakageModel leakage{{0.35, 0.08, 0.25, 0.0, 0.0},
                                {0.025, 0.02, 0.025, 0.0, 0.0},
                                25.0};
};

/// Thermal constraints for the GPU frame loop (ENMPC under a skin budget):
/// the same fields with a GPU-heavy leakage default.
struct ThermalGpuConstraintParams : ThermalConstraintParams {
  ThermalGpuConstraintParams() {
    leakage = {{0.05, 0.03, 0.30, 0.0, 0.0}, {0.02, 0.02, 0.03, 0.0, 0.0}, 25.0};
  }
};

/// RC network + power budget shared by both adapters (node order of
/// thermal::RcThermalNetwork::mobile_soc: big, little, gpu, pcb, skin).
class ThermalBudget {
 public:
  /// `nominal_shape_w` is the per-node power shape the budget assumes until
  /// the first advance(); `junction_node` seeds the telemetry's hottest-die
  /// search.  Throws std::invalid_argument on per-node vectors whose size
  /// does not match the network.
  ThermalBudget(ThermalConstraintParams params, common::Vec nominal_shape_w,
                std::size_t junction_node);

  /// Advances the network by `dt_s` under `inject_w` plus leakage, records
  /// `inject_w` as the current power shape, and refreshes the budget on the
  /// configured cadence.
  void advance(const common::Vec& inject_w, double dt_s);

  double budget_w() const { return budget_w_; }
  double peak_junction_c() const { return peak_junction_c_; }
  double peak_skin_c() const { return peak_skin_c_; }
  const thermal::RcThermalNetwork& network() const { return net_; }

  /// Read-only snapshot of the current thermal state for a runner's
  /// telemetry channel (temperatures, limits, budget, last observed power).
  /// Side-effect free, so publishing it never perturbs a run.
  ThermalTelemetry telemetry() const;

 private:
  void refresh_budget();
  void track_peaks();

  ThermalConstraintParams params_;
  thermal::RcThermalNetwork net_;
  common::Vec shape_w_;  ///< last observed per-node power shape
  std::size_t junction_node_;
  thermal::FixedPointSolver solver_;    ///< steady budget: factored once
  thermal::TransientScratch transient_;  ///< transient budget workspace
  common::Vec power_w_;                  ///< advance() scratch: inject + leakage
  double budget_w_ = 0.0;
  double since_budget_s_ = 0.0;
  double peak_junction_c_ = 0.0;
  double peak_skin_c_ = 0.0;
};

/// One step down the firmware throttle ladder: big frequency first, then
/// big cores, then little frequency, then little cores.  Returns false at
/// the floor (1 LITTLE core at minimum frequency).  Shared by the budget
/// arbiter and by thermal-aware controllers that internalize it (they must
/// descend the *same* ladder or their proposals diverge from what the
/// arbiter would grant).
bool throttle_step(SocConfig& c);

/// DrmRunner-facing thermal budgeter.
class ThermalSocAdapter {
 public:
  explicit ThermalSocAdapter(BigLittlePlatform& platform, ThermalConstraintParams params = {});

  /// Clamps a proposed configuration to the current power budget (DrmRunner
  /// arbiter).  Counts a clamp when the returned config differs.
  SocConfig arbitrate(const SnippetDescriptor& s, const SocConfig& proposed);

  /// Advances the budget by the executed snippet's time under its power
  /// breakdown (DrmRunner observer).
  void observe(const SnippetDescriptor& s, const SocConfig& applied, const SnippetResult& r);

  const ThermalBudget& budget() const { return budget_; }
  std::size_t clamped_snippets() const { return clamped_; }
  ThermalTelemetry telemetry() const { return budget_.telemetry(); }

 private:
  BigLittlePlatform* platform_;
  ThermalBudget budget_;
  std::size_t clamped_ = 0;
};

/// One step down the GPU firmware throttle ladder: frequency first (fast,
/// cheap actuation), then slice gating.  Returns false at the floor (1 slice
/// at minimum frequency).  Shared by the budget arbiter and by the
/// budget-aware NMPC fallback (mirroring soc::throttle_step on the DRM
/// side): both must descend the *same* ladder or the controller's proposals
/// diverge from what the arbiter would grant.
bool gpu_throttle_step(gpu::GpuConfig& c);

/// GpuRunner-facing thermal budgeter.
class ThermalGpuAdapter {
 public:
  ThermalGpuAdapter(gpu::GpuPlatform& platform, double period_s,
                    ThermalGpuConstraintParams params = {});

  /// Clamps a proposed configuration to the current power budget (GpuRunner
  /// arbiter).  Counts a clamp when the returned config differs.
  gpu::GpuConfig arbitrate(const gpu::FrameDescriptor& f, const gpu::GpuConfig& proposed);

  /// Advances the budget by one frame period under the frame's measured
  /// energies (GpuRunner observer).
  void observe(const gpu::FrameDescriptor& f, const gpu::GpuConfig& applied,
               const gpu::FrameResult& r);

  const ThermalBudget& budget() const { return budget_; }
  std::size_t clamped_frames() const { return clamped_; }
  ThermalTelemetry telemetry() const { return budget_.telemetry(); }

 private:
  gpu::GpuPlatform* platform_;
  double period_s_;
  ThermalBudget budget_;
  std::size_t clamped_ = 0;
};

}  // namespace oal::soc
