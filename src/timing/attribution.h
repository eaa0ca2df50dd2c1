#ifndef RDMAJOIN_TIMING_ATTRIBUTION_H_
#define RDMAJOIN_TIMING_ATTRIBUTION_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "timing/phase_times.h"

namespace rdmajoin {

/// The four barrier-synchronized phases of the distributed join, in
/// execution order (the rows of the paper's stacked-bar figures).
enum class JoinPhase : uint8_t {
  kHistogram = 0,
  kNetworkPartition,
  kLocalPartition,
  kBuildProbe,
};

inline constexpr size_t kNumJoinPhases = 4;

/// Stable kebab-case name, e.g. "network-partition".
std::string_view JoinPhaseName(JoinPhase phase);

/// Wall-clock decomposition of one machine's time inside one phase. The four
/// components partition the *global* phase time exactly: for every machine,
/// compute + network + buffer_stall + barrier_wait equals the phase's
/// barrier-to-barrier duration. The decomposition follows the machine's
/// critical chain (the last-finishing partitioning thread during the network
/// pass), so overlapped transfers that never stall anyone attribute to
/// compute -- the paper's interleaving argument (Section 4.2.1) made
/// measurable.
struct PhaseAttribution {
  /// Time the machine's critical chain spent doing CPU work: partitioning,
  /// scanning, building/probing, memcpy for materialization, registration.
  double compute_seconds = 0;
  /// Time waiting on the network: blocked on an in-flight transfer
  /// (non-interleaved sends), the post-compute tail until the last
  /// inbound/outbound byte is delivered and serviced, control-plane
  /// histogram exchange, or shipped work-stealing partitions.
  double network_seconds = 0;
  /// Time partitioning threads spent stalled because every buffer credit of
  /// the destination slot was still in flight (Section 4.2.1 back-pressure).
  double buffer_stall_seconds = 0;
  /// Idle time between this machine finishing the phase and the slowest
  /// machine reaching the barrier.
  double barrier_wait_seconds = 0;
  /// Time lost to injected faults and their recovery: straggler slowdown
  /// beyond the nominal compute time, and send retry/timeout/backoff delays
  /// (src/fault/). Exactly 0 when no fault schedule is active.
  double fault_recovery_seconds = 0;

  double TotalSeconds() const {
    return compute_seconds + network_seconds + buffer_stall_seconds +
           barrier_wait_seconds + fault_recovery_seconds;
  }

  PhaseAttribution& operator+=(const PhaseAttribution& other) {
    compute_seconds += other.compute_seconds;
    network_seconds += other.network_seconds;
    buffer_stall_seconds += other.buffer_stall_seconds;
    barrier_wait_seconds += other.barrier_wait_seconds;
    fault_recovery_seconds += other.fault_recovery_seconds;
    return *this;
  }
};

/// Attribution of all four phases for one machine.
struct MachineAttribution {
  std::array<PhaseAttribution, kNumJoinPhases> phases;

  const PhaseAttribution& at(JoinPhase phase) const {
    return phases[static_cast<size_t>(phase)];
  }
  PhaseAttribution& at(JoinPhase phase) {
    return phases[static_cast<size_t>(phase)];
  }

  /// Sum over the four phases.
  PhaseAttribution Total() const;
};

/// One step of the critical-path machine chain: the machine that reached the
/// barrier last in one phase, i.e. the machine whose slowdown would have
/// lengthened the makespan.
struct CriticalPathStep {
  JoinPhase phase = JoinPhase::kHistogram;
  uint32_t machine = 0;
  /// Barrier-to-barrier duration of the phase (the global phase time).
  double phase_seconds = 0;
  /// The critical machine's decomposition of that duration.
  PhaseAttribution breakdown;
};

/// Full attribution of one replayed run: per machine and phase, plus the
/// critical-path chain. Produced by ReplayTrace (ReplayReport::attribution).
struct AttributionReport {
  /// machines[m].phases[p]: machine m's decomposition of phase p.
  std::vector<MachineAttribution> machines;
  /// Per phase, the machine that defined the barrier (argmax phase time).
  std::array<uint32_t, kNumJoinPhases> critical_machine{};
  /// Global (barrier-synchronized) phase times the attribution decomposes.
  PhaseTimes phases;

  /// The machine chain that carried the makespan, one step per phase.
  std::vector<CriticalPathStep> CriticalPath() const;

  /// Sum of the critical machines' per-phase decompositions. Its
  /// TotalSeconds() reproduces the replayed makespan exactly (the invariant
  /// tests/attribution_test.cc pins down).
  PhaseAttribution CriticalPathBreakdown() const;

  /// The replayed makespan (sum of the global phase times).
  double MakespanSeconds() const { return phases.TotalSeconds(); }
};

/// Fills in barrier waits and the critical-machine chain from the
/// per-machine phase times: for every machine and phase, barrier_wait is
/// raised so the four components sum to the global phase time. Called by
/// ReplayTrace after the per-phase decompositions are recorded.
void FinalizeAttribution(const std::vector<PhaseTimes>& machine_phases,
                         const PhaseTimes& phases, AttributionReport* attribution);

/// Multi-line human-readable attribution report: one block per phase with
/// the critical machine's breakdown, plus the critical-path summary. Used by
/// FormatRunReport and tools/rdmajoin_analyze.
std::string FormatAttribution(const AttributionReport& attribution);

/// Residuals of the replay against a prediction (typically the analytical
/// model's Estimate() mapped onto PhaseTimes): residual = measured -
/// predicted, per phase and total. Both tools and fig09's bench JSON report
/// these, mirroring the paper's Figure 9 model-verification methodology.
struct ModelResidual {
  PhaseTimes measured;
  PhaseTimes predicted;
  double histogram_residual_seconds = 0;
  double network_partition_residual_seconds = 0;
  double local_partition_residual_seconds = 0;
  double build_probe_residual_seconds = 0;
  double total_residual_seconds = 0;
  /// |measured - predicted| / predicted, of the totals (0 when predicted 0).
  double relative_error = 0;
};

ModelResidual ResidualAgainst(const PhaseTimes& measured,
                              const PhaseTimes& predicted);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_ATTRIBUTION_H_
