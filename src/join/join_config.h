#ifndef RDMAJOIN_JOIN_JOIN_CONFIG_H_
#define RDMAJOIN_JOIN_JOIN_CONFIG_H_

#include <cstdint>

#include "util/status.h"

namespace rdmajoin {

class FaultInjector;
class MetricsRegistry;
class ProtocolValidator;
class SpanRecorder;

/// What the join does when a runtime fault (src/fault/) defeats the
/// transport's bounded retry, or when retries are not wanted at all.
enum class FaultPolicy {
  /// Abort the pass with a clean Status error on the first failed send --
  /// never report partial results as success.
  kAbort,
  /// Recover: re-post timed-out or error-completed sends (after cycling the
  /// queue pair back to ready) up to max_send_retries times with exponential
  /// backoff; abort only when the retry budget is exhausted. Stragglers are
  /// additionally absorbed by the existing skew-split / work-stealing path.
  kRecover,
};

/// How first-pass partitions are assigned to machines (Section 4.1).
enum class AssignmentPolicy {
  /// Static: partition p goes to machine p mod NM.
  kRoundRobin,
  /// Dynamic: partitions are sorted by element count in decreasing order and
  /// dealt round-robin, so the largest partitions land on distinct machines
  /// (the paper's skew configuration, Section 6.5).
  kSkewAware,
};

/// Largest JoinConfig::network_radix_bits. A network-pass credit slot is a
/// first-pass partition id, so every traced slot is below
/// 2^kMaxNetworkRadixBits (timing/trace_io.h checks this on read).
inline constexpr uint32_t kMaxNetworkRadixBits = 20;

/// Algorithm parameters of the distributed radix hash join. Byte quantities
/// are full-scale (paper units); the executor derives actual sizes through
/// `scale_up`.
struct JoinConfig {
  /// b1: the network pass fans out into 2^network_radix_bits partitions.
  /// The paper uses 10 (and another 10 in the local pass, Section 6.4.3).
  uint32_t network_radix_bits = 10;
  /// Target size of the final cache-resident partitions (full-scale bytes).
  uint64_t cache_partition_bytes = 32 * 1024;
  AssignmentPolicy assignment = AssignmentPolicy::kRoundRobin;
  /// Probe ranges larger than this factor times the average task size are
  /// split across threads (Section 4.3); 0 disables splitting.
  double skew_split_factor = 2.0;
  /// Size of one RDMA-enabled buffer, full-scale bytes (64 KB, Section 6.2).
  uint64_t rdma_buffer_bytes = 64 * 1024;
  /// RDMA buffers per (thread, remote partition); >= 2 enables interleaving
  /// of computation and communication (Section 4.2.1).
  uint32_t buffers_per_partition = 2;
  /// Two-sided receives pre-posted per incoming link.
  uint32_t recv_buffers_per_link = 8;
  /// Draw send buffers from a preregistered pool (the paper's design) or
  /// register each buffer on the fly (ablation: bench/abl_registration).
  bool preregister_buffers = true;
  /// Virtual bytes = actual bytes * scale_up. The workload generator is fed
  /// paper_tuples / scale_up tuples; the timing replay reports full-scale
  /// seconds. RDMA buffer and cache-partition actual sizes scale identically
  /// so buffer-fill dynamics match the full-scale run.
  double scale_up = 1.0;
  /// Local (non-network) partitioning passes charged in virtual time; the
  /// paper's two-pass configuration charges 1. If the scaled execution
  /// needs more passes than this, the executed passes are charged instead.
  uint32_t num_local_passes = 1;
  /// Maximum radix bits per local partitioning pass: 2^bits simultaneous
  /// output streams must not exceed the TLB/cache-line budget (Section 3.1,
  /// radix clustering). The paper's configuration uses 10.
  uint32_t local_bits_per_pass = 10;
  /// Materialize the result: a join writes one <join_key, inner_rid> tuple
  /// per match on the machine that made it (and collects the matching
  /// <inner_rid, outer_rid> pairs), the aggregation one <group_key, sum>
  /// tuple per group; the output writes (16 bytes per tuple at memcpy speed)
  /// are charged to the build/probe phase. The paper's evaluated setting
  /// leaves the result in the operator pipeline (Section 7) -- off by
  /// default.
  bool materialize_results = false;
  /// Inter-machine work stealing in the build/probe phase: the extension the
  /// paper proposes for skewed workloads (Sections 6.5, 8). Whole tasks
  /// (a hash table plus its probe range) migrate from overloaded machines to
  /// underloaded ones; the shipped partition data is charged against the
  /// receiving machine's port bandwidth.
  bool enable_work_stealing = false;
  /// Optional verbs-contract checker (rdma/validator.h). When set, every
  /// RDMA device, queue pair, completion queue, and buffer pool the executor
  /// creates reports protocol violations into it; completion queues are
  /// additionally bounded so overruns become detectable. Must outlive the
  /// run. Null (the default) disables checking.
  ProtocolValidator* validator = nullptr;
  /// Optional observability registry (util/metrics.h). When set, every RDMA
  /// device records work-request, registration and buffer-pool metrics under
  /// "rdma.dev<m>.", the timing replay records per-host fabric utilization
  /// under "fabric." and per-machine phase gauges under "join.". Must
  /// outlive the run. Null (the default) disables metrics.
  MetricsRegistry* metrics = nullptr;
  /// Causal span tracing (timing/span_trace.h). On by default: the timing
  /// replay records a lifecycle span per posted send and per-flow fabric
  /// rate segments into a byte-bounded flight recorder, published as
  /// ReplayReport::spans. Recording is passive and never changes replayed
  /// times; set false to switch the recorder off entirely.
  bool enable_spans = true;
  /// Optional external span recorder. When set (and enabled), the replay
  /// records into it instead of creating its own, so execution-layer verbs
  /// counts and replay-time spans land in one dataset. Must outlive the run;
  /// overrides enable_spans.
  SpanRecorder* span_recorder = nullptr;
  /// Optional deterministic fault injector (src/fault/). When set and
  /// active, the execution layer injects the scheduled QP faults into the
  /// transport send path and the timing replay applies the scheduled link /
  /// straggler / credit windows. Must outlive the run. Null (the default)
  /// or an empty schedule leaves every output byte-identical to a run
  /// without the injector.
  const FaultInjector* fault_injector = nullptr;
  /// Reaction to runtime faults; see FaultPolicy.
  FaultPolicy fault_policy = FaultPolicy::kAbort;
  /// kRecover: send attempts beyond the first before giving up.
  uint32_t max_send_retries = 4;
  /// kRecover: backoff before retry i is retry_backoff_seconds * 2^i of
  /// virtual time, charged to the fault_recovery attribution bucket.
  double retry_backoff_seconds = 2e-6;
  /// Virtual seconds a sender waits for a missing completion before
  /// declaring the send lost (timeout path of dropped messages).
  double send_timeout_seconds = 1e-4;

  Status Validate() const;

  /// Actual in-simulation payload capacity of one RDMA buffer (the wire
  /// header is allocated on top); at least one tuple fits.
  uint64_t ActualRdmaBufferBytes(uint32_t tuple_bytes) const;
  /// Actual target size of final partitions (>= one tuple).
  uint64_t ActualCachePartitionBytes(uint32_t tuple_bytes) const;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_JOIN_JOIN_CONFIG_H_
