#ifndef RDMAJOIN_TIMING_TRACE_H_
#define RDMAJOIN_TIMING_TRACE_H_

#include <cstdint>
#include <vector>

namespace rdmajoin {

/// One buffer transmission posted by a partitioning thread during the
/// network partitioning pass. `compute_bytes_before` anchors the send on the
/// thread's compute timeline: it is the number of input bytes the thread had
/// partitioned when the buffer filled up.
struct SendRecord {
  uint32_t dst_machine = 0;
  /// Credit slot for double buffering: the first-pass partition id. Each
  /// (thread, slot) owns `buffers_per_partition` buffers used in turn
  /// (Section 4.2.1).
  uint32_t slot = 0;
  /// Actual bytes on the wire (payload plus any header).
  uint64_t wire_bytes = 0;
  uint64_t compute_bytes_before = 0;
  /// Machine whose port the bytes leave from. kIssuerIsSource (the default)
  /// means the issuing thread's machine (push transports); RDMA READ pulls
  /// record the remote staging machine here.
  static constexpr uint32_t kIssuerIsSource = UINT32_MAX;
  uint32_t src_machine = kIssuerIsSource;
  /// Execution-layer recovery cost attached by the transport's retry path
  /// (src/fault/): completed attempts beyond the first, and the virtual
  /// seconds of timeout + backoff spent before the successful attempt. The
  /// replay charges the delay to the fault_recovery attribution bucket.
  uint32_t retries = 0;
  double retry_delay_seconds = 0;
};

/// The network-pass activity of one partitioning thread.
struct ThreadNetTrace {
  /// Total actual input bytes the thread partitioned in the network pass.
  uint64_t compute_bytes = 0;
  /// Sends in posting order; compute_bytes_before is non-decreasing.
  std::vector<SendRecord> sends;
};

/// One build/probe work unit: a cache-sized partition (or, after skew
/// splitting, a probe range of one).
struct BuildProbeTask {
  double build_bytes = 0;  // Inner-relation bytes hashed (0 for probe splits).
  double probe_bytes = 0;  // Outer-relation bytes probed.
  /// Bytes of the hash table's inner partition. Probe-split chunks share
  /// their parent's table (build_bytes = 0); if such a task migrates to
  /// another machine, the table data ships with it and is rebuilt there.
  double table_bytes = 0;
};

/// Everything the timing replay needs to know about one machine's execution.
/// All byte quantities are actual (scaled); the replay converts to virtual
/// full-scale bytes via RunTrace::scale_up.
///
/// Field ownership. The fields come in two groups, and an operator's run
/// writes and replays them on two threads (OverlappedReplay,
/// timing/replay.h):
///   - network pass: histogram_bytes, histogram_exchange_seconds,
///     net_threads, recv_bytes, recv_messages, setup_registration_seconds
///     and per_send_registration_seconds. Shuffle / Exchange write them
///     before the helper thread starts; from then on they are read-only,
///     and ReplayNetworkPass reads them (all but the recv_* counts) on the
///     helper thread.
///   - local phases: local_pass_bytes, sort_bytes, merge_tasks, tasks,
///     stolen_in_bytes and materialized_bytes. The operator's phases 2-3
///     write them on the calling thread while the helper runs; only
///     FinishReplay reads them, after the helper has been joined.
/// Distinct fields are distinct memory locations, so the two threads never
/// touch the same bytes. RunTrace::scale_up and the machines vector are set
/// by Shuffle and not changed afterwards.
struct MachineTrace {
  /// Input bytes scanned during the histogram phase.
  uint64_t histogram_bytes = 0;
  /// Virtual seconds spent exchanging machine-level histograms over the
  /// control plane (Section 4.1); charged to the histogram phase.
  double histogram_exchange_seconds = 0;
  /// One entry per partitioning thread.
  std::vector<ThreadNetTrace> net_threads;
  /// Bytes arriving via two-sided messages, copied by the receiver core.
  uint64_t recv_bytes = 0;
  uint64_t recv_messages = 0;
  /// Total bytes this machine moves across all local partitioning passes
  /// (its assigned share of R + S, once per charged pass).
  uint64_t local_pass_bytes = 0;
  /// Bytes this machine sorts locally (sort-merge operator); charged at the
  /// cost model's sort rate into the local phase.
  uint64_t sort_bytes = 0;
  /// Merge-join work units (bytes of the two sorted runs per range); charged
  /// at the merge rate into the build/probe phase via LPT scheduling.
  std::vector<double> merge_tasks;
  /// Build/probe work units after skew splitting (and, if enabled, after
  /// inter-machine work stealing rebalanced them).
  std::vector<BuildProbeTask> tasks;
  /// Actual bytes of partition data shipped to this machine by work
  /// stealing; the transfer delays the start of its stolen tasks.
  uint64_t stolen_in_bytes = 0;
  /// Output tuples materialized on this machine (actual bytes); written to
  /// result buffers at memcpy speed during the probe (Section 7 discusses
  /// materialization as part of the downstream pipeline).
  uint64_t materialized_bytes = 0;
  /// Registration work performed at the start of the network pass (e.g.
  /// one-sided destination regions), in virtual seconds.
  double setup_registration_seconds = 0;
  /// Registration + deregistration charged per send when buffers are
  /// registered on the fly instead of pooled (virtual seconds per send).
  double per_send_registration_seconds = 0;
};

/// Complete execution trace of one distributed join run.
struct RunTrace {
  /// Virtual bytes = actual bytes * scale_up.
  double scale_up = 1.0;
  std::vector<MachineTrace> machines;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_TRACE_H_
