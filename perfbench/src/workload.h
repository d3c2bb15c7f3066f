// The interface between the lap loop (main.cpp) and the three workloads.
//
// A run is a sequence of laps.  Each lap sets the workload up from nothing
// (set-up phase) and then drives its closed loop once (timed phase), so
// every lap simulates exactly the same thing: the lap outcomes must agree
// bit for bit, and for the default seed they must equal the pinned values.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Probe;

/// The seed the pinned outcomes were recorded with.
constexpr std::uint64_t kDefaultSeed = 1;

/// Derives a sub-seed from the workload seed: the default seed maps every
/// base seed to itself (the constants the paper-figure benches use), any
/// other seed moves each base seed to its own fresh stream.
inline std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed) {
  return base ^ (0x9e3779b97f4a7c15ULL * (seed - kDefaultSeed));
}

/// FNV-1a over 64-bit words (the benchmark's own copy, so a change to the
/// program's hashing never moves a pinned digest).
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/// IEEE-754 bits of a double and back (pinned ratios are stored as bits,
/// so the comparison is exact).
inline std::uint64_t to_bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}
inline double from_bits(std::uint64_t bits) {
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

/// Everything a lap simulated.  All fields are deterministic; a speed-only
/// change to the program leaves every one of them unchanged.
struct Outcome {
  std::uint64_t decisions = 0;        ///< decisions that completed and passed validation
  std::uint64_t oracle_searches = 0;  ///< cold Oracle searches during set-up
  std::uint64_t retrains = 0;         ///< online-IL policy updates
  std::uint64_t clamped = 0;          ///< decisions changed by a thermal budgeter
  std::uint64_t deadline_misses = 0;  ///< GPU frames that missed the FPS deadline
  double energy_ratio = 0.0;
  std::uint64_t digest = kFnvBasis;   ///< FNV-1a of the applied-config sequence
  std::vector<std::string> errors;    ///< failed decisions / runs, described
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Decisions one lap attempts (the denominator of the failure share).
  virtual std::uint64_t decisions_per_lap() const = 0;
  /// Engine worker threads of the timed phase (0 = runs on the caller).
  virtual std::size_t workers() const = 0;

  /// Builds this lap's state from nothing.  `probe` is null in untraced laps.
  virtual void setup(Probe* probe) = 0;
  /// Drives the closed loop once over the state setup() built.
  virtual Outcome run(Probe* probe) = 0;
  /// Frees the lap's state, so peak memory does not depend on how many
  /// laps ran.  Runs after run(), outside the measured phases.
  virtual void teardown() = 0;
  /// Seed-independent invariants checked once per process, outside the
  /// measured phases; each failure is appended to `errors`.
  virtual void check_invariants(std::vector<std::string>& errors) { (void)errors; }
  /// Outcome recorded for kDefaultSeed.
  virtual Outcome pinned() const = 0;
};

std::unique_ptr<Workload> make_online_il(std::uint64_t seed);
std::unique_ptr<Workload> make_fleet_thermal(std::uint64_t seed);
std::unique_ptr<Workload> make_gpu_enmpc(std::uint64_t seed);

}  // namespace perfbench
