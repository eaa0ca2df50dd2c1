#ifndef RDMAJOIN_TIMING_SPAN_TRACE_H_
#define RDMAJOIN_TIMING_SPAN_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rdma/verbs.h"
#include "sim/fabric.h"
#include "util/statusor.h"

namespace rdmajoin {

struct JsonValue;

/// Sizing of the span flight recorder. The recorder is always-on by default
/// with a fixed byte budget split between the two rings (spans and flow-rate
/// segments); when a ring wraps, the oldest entries are overwritten
/// deterministically and counted as dropped.
struct SpanConfig {
  bool enabled = true;
  /// Combined byte budget of the span and segment rings. The default keeps
  /// the newest 32,768 spans and 87,381 segments, which bounds memory for
  /// arbitrarily large replays (a fig05a-sized run already wraps the span
  /// ring).
  uint64_t max_bytes = 8 * 1024 * 1024;
};

/// Lifecycle stages of one work-request span, in causal order. Push
/// transports read them as posted -> credit acquired -> fabric admitted ->
/// delivered -> completion polled; RDMA READ pulls map the same slots onto
/// READ issued -> staged -> drained (the span's `pull` flag says which).
enum class SpanStage : uint8_t {
  /// The partitioning thread reached the send on its compute timeline.
  kPosted = 0,
  /// A double-buffering credit for the send's slot was available (equals
  /// kPosted when the thread never stalled).
  kCreditAcquired = 1,
  /// The message entered the fabric (after the per-send post overhead).
  kFabricAdmitted = 2,
  /// The last byte arrived at the destination (fabric completion).
  kDelivered = 3,
  /// The sender observed the completion and recycled the credit (includes
  /// receive-ring backpressure on two-sided transports).
  kCompleted = 4,
};
inline constexpr int kNumSpanStages = 5;
/// Sentinel for a stage that has not been recorded.
inline constexpr double kSpanUnset = -1.0;

/// One work request's lifecycle. Times are full-scale virtual seconds on the
/// replay clock; kSpanUnset marks stages not reached (e.g. a span evicted
/// from the ring mid-flight, or a snapshot taken mid-replay).
struct WrSpan {
  /// 1-based recorder-assigned id; 0 marks an empty ring slot. Ids are also
  /// the causal flow-edge ids in the Chrome trace export.
  uint64_t id = 0;
  uint32_t machine = 0;  ///< Issuing machine.
  uint32_t thread = 0;   ///< Issuing partitioning thread (machine-local).
  uint32_t slot = 0;     ///< Double-buffering credit slot (partition id).
  uint32_t src = 0;      ///< Machine whose egress port the bytes leave.
  uint32_t dst = 0;      ///< Destination machine.
  double wire_bytes = 0;  ///< Virtual (full-scale) bytes on the wire.
  /// Fabric flow id (LinkFabric message id); joins to FlowSegment::flow.
  uint64_t flow = 0;
  /// True for RDMA READ pulls (the issuer is the destination).
  bool pull = false;
  double stage[kNumSpanStages] = {kSpanUnset, kSpanUnset, kSpanUnset,
                                  kSpanUnset, kSpanUnset};
  /// Receiver-core service window (two-sided transports only).
  double recv_start = kSpanUnset;
  double recv_end = kSpanUnset;
  /// Fault-recovery annotation (src/fault/): completed send attempts beyond
  /// the first and the timeout + backoff seconds they cost. Both stay 0 on
  /// fault-free runs and are then omitted from the JSON export.
  uint32_t retries = 0;
  double retry_delay_seconds = 0;

  bool complete() const {
    for (double t : stage) {
      if (t == kSpanUnset) return false;
    }
    return true;
  }
  /// Posted -> completed; kSpanUnset if either end is missing.
  double duration() const {
    if (stage[0] == kSpanUnset || stage[kNumSpanStages - 1] == kSpanUnset) {
      return kSpanUnset;
    }
    return stage[kNumSpanStages - 1] - stage[0];
  }
  /// Seconds spent in the stage interval *ending* at `s` (0 for kPosted):
  /// credit wait, post overhead, fabric transit, completion wait. The four
  /// intervals sum to duration() by construction.
  double StageSeconds(SpanStage s) const {
    const int i = static_cast<int>(s);
    if (i == 0) return 0;
    if (stage[i] == kSpanUnset || stage[i - 1] == kSpanUnset) return kSpanUnset;
    return stage[i] - stage[i - 1];
  }
};

const char* SpanStageName(SpanStage stage);

/// One maximal constant-rate interval of a fabric flow, as the fabric reports
/// it (see FlowTelemetry): a flow's segments enumerate exactly its rate
/// changes *and* its constraint transitions (a reshare can switch the
/// binding constraint while the rate stays numerically identical -- e.g.
/// egress and ingress shares crossing over).
struct FlowSegment {
  uint64_t flow = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  double t0 = 0;
  double t1 = 0;
  double rate = 0;  ///< bytes/second
  /// The fair-share constraint binding over [t0, t1) and the host owning it
  /// (sim/rate_sharing.h). kNone on datasets read from schema v1 documents.
  RateConstraint bound = RateConstraint::kNone;
  uint32_t bound_host = 0;
};

/// Per-thread replay totals, recorded once at the end of the network pass;
/// lets span queries cross-validate against the PR 3 attribution (a
/// machine's buffer-stall seconds are its lead thread's credit stalls).
struct ThreadMark {
  uint32_t machine = 0;
  uint32_t thread = 0;
  double finish_seconds = 0;
  double compute_seconds = 0;
  double credit_stall_seconds = 0;
  double flow_stall_seconds = 0;
  /// Virtual seconds of this thread's timeline spent in fault recovery
  /// (straggler slowdown excess plus transport retry delays); 0 and omitted
  /// from the JSON in fault-free runs.
  double fault_recovery_seconds = 0;
};

/// Ordinal work-request counts from the execution layer (which is eager and
/// has no clock): per-opcode posted / delivered / polled, indexed by
/// WorkCompletion::Op, plus buffer-pool credit transitions.
struct ExecDeviceCounts {
  uint32_t device = 0;
  uint64_t posted[4] = {0, 0, 0, 0};
  uint64_t completed[4] = {0, 0, 0, 0};
  uint64_t failed_completions = 0;
  uint64_t polled[4] = {0, 0, 0, 0};
  uint64_t buffers_acquired = 0;
  uint64_t buffers_released = 0;
};

/// A self-contained snapshot of everything the recorder captured; the unit
/// of JSON export and of the query engine (timing/span_query.h).
struct SpanDataset {
  /// Surviving spans in id order (drops leave gaps at the low end).
  std::vector<WrSpan> spans;
  /// Flow-rate segments ordered by (t0, src, dst). An evicted segment is a
  /// whole interval, so every surviving one is complete.
  std::vector<FlowSegment> segments;
  /// Per-thread totals in (machine, thread) order.
  std::vector<ThreadMark> threads;
  /// Execution-layer counts in device order.
  std::vector<ExecDeviceCounts> devices;
  /// Cluster size of the replay that recorded the dataset; 0 when unknown
  /// (hand-built datasets, documents without the field).
  uint32_t machines = 0;
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t segments_recorded = 0;
  uint64_t segments_dropped = 0;
  /// Stage updates that arrived after their span was evicted.
  uint64_t late_stage_updates = 0;
};

/// The causal span flight recorder. One instance observes one replay (plus,
/// optionally, the execution layer's devices): the timing replay begins a
/// span per posted send and marks its stages as virtual time advances, the
/// fabric reports per-flow rate segments through the FlowTelemetry
/// interface, and the verbs layer reports ordinal post/poll/credit counts
/// through RdmaEventSink.
///
/// Recording is O(1) per event into fixed-capacity rings sized by
/// SpanConfig::max_bytes -- overhead is bounded no matter how long the
/// replay runs. Eviction is deterministic (oldest id first) and counted;
/// the first overflow emits one RDMAJOIN_LOG warning per recorder. A caller
/// that knows how many spans it will open (ExpectSpans) lets the span ring
/// write only the spans it keeps. The recorder is passive: it never feeds
/// back into the simulation, so enabling or disabling it cannot change any
/// replayed time.
class SpanRecorder : public FlowTelemetry, public RdmaEventSink {
 public:
  explicit SpanRecorder(const SpanConfig& config = SpanConfig());

  bool enabled() const { return config_.enabled; }
  const SpanConfig& config() const { return config_; }
  size_t span_capacity() const { return span_capacity_; }
  size_t segment_capacity() const { return segment_capacity_; }

  /// Promises that at least `n` more spans begin before the next Snapshot().
  /// Spans the ring would overwrite before then -- ids up to
  /// next id + n - 1 - span_capacity() -- are counted but never written, and
  /// their updates are no-ops until an overwrite would have evicted them
  /// (MarkStage then counts late, as for any evicted span). Every snapshot
  /// is byte-identical to one taken without the promise; Snapshot() aborts
  /// if a promised span has not begun. The replay promises its send count.
  void ExpectSpans(uint64_t n);
  /// Opens a span for a posted send; returns its id (0 when disabled).
  uint64_t BeginSpan(uint32_t machine, uint32_t thread, uint32_t slot,
                     uint32_t src, uint32_t dst, double wire_bytes, bool pull,
                     double posted_time);
  /// Records `stage` at `time`; ignored (and counted late) if the span was
  /// already evicted.
  void MarkStage(uint64_t id, SpanStage stage, double time);
  /// Attaches the fabric flow id carrying this span's bytes.
  void SetFlow(uint64_t id, uint64_t flow);
  /// Records the receiver-core service window (two-sided transports).
  void SetReceiverService(uint64_t id, double start, double end);
  /// Annotates the span with its transport-layer retry cost (src/fault/).
  void SetFaultInfo(uint64_t id, uint32_t retries, double retry_delay_seconds);
  /// Records one thread's end-of-pass totals.
  void AddThreadMark(const ThreadMark& mark);
  /// Records the cluster size of an observed replay (the largest, when one
  /// recorder observes several), so a machine that only receives -- and so
  /// has no thread mark -- is still in range for ValidateSpanDataset.
  void NoteMachines(uint32_t machines);

  // FlowTelemetry:
  void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst, double t0,
                     double t1, double rate, RateConstraint bound,
                     uint32_t bound_host) override;

  // RdmaEventSink:
  void OnWrPosted(uint32_t device, WorkCompletion::Op op) override;
  void OnWrCompleted(uint32_t device, WorkCompletion::Op op,
                     bool success) override;
  void OnCompletionPolled(uint32_t device, WorkCompletion::Op op) override;
  void OnBufferCredit(uint32_t device, bool acquired) override;

  uint64_t spans_recorded() const { return spans_recorded_; }
  uint64_t spans_dropped() const { return spans_dropped_; }
  uint64_t segments_recorded() const { return segments_recorded_; }
  uint64_t segments_dropped() const { return segments_dropped_; }
  uint64_t late_stage_updates() const { return late_stage_updates_; }

  /// Materializes the current contents (spans sorted by id, segments by
  /// (t0, src, dst)). Aborts, in every build mode, before every span
  /// promised by ExpectSpans has begun.
  SpanDataset Snapshot() const;

 private:
  /// The ring slot owning `id`, or nullptr if the id was never recorded,
  /// was skipped under a promise, or has been evicted.
  WrSpan* Find(uint64_t id);
  void WarnOnFirstDrop(const char* what);

  SpanConfig config_;
  size_t span_capacity_ = 0;
  size_t segment_capacity_ = 0;
  uint64_t next_id_ = 1;
  /// Lowest id the span ring may hold: lower ids were skipped or cleared
  /// under a promise, since they are overwritten before the snapshot.
  uint64_t keep_from_ = 1;
  /// Last id promised by ExpectSpans (0: none).
  uint64_t promised_last_ = 0;
  /// Span ring: id occupies slot (id - keep_from_) % span_capacity_; an
  /// overwrite evicts the previous occupant (exactly span_capacity_ ids
  /// older).
  std::vector<WrSpan> spans_;
  /// Segment FIFO ring, in the order the fabric reported the segments.
  std::vector<FlowSegment> segments_;
  size_t segment_next_ = 0;
  std::vector<ThreadMark> threads_;
  uint32_t machines_ = 0;
  /// Keyed by device id for deterministic snapshot order.
  std::map<uint32_t, ExecDeviceCounts> devices_;
  uint64_t spans_recorded_ = 0;
  uint64_t spans_dropped_ = 0;
  uint64_t segments_recorded_ = 0;
  uint64_t segments_dropped_ = 0;
  uint64_t late_stage_updates_ = 0;
  bool warned_overflow_ = false;
};

/// Serializes a dataset as one deterministic JSON document (shortest
/// round-trip numbers, kSpanUnset stages as -1). Schema version 2 -- each
/// segment gains "bound" (a RateConstraintName) and "bound_host" -- is
/// emitted only when at least one segment carries a constraint label;
/// datasets without labels (read from v1, or with no segments) serialize as
/// the exact schema-version-1 bytes, keeping constraint-free outputs
/// byte-identical across the schema bump.
std::string SpanDatasetToJson(const SpanDataset& dataset);
/// Checks a dataset's cross-field shape, the way ValidateTrace checks a
/// trace. The machine count is `machines` when set, else
/// max(threads.machine) + 1; with neither the range checks are skipped.
/// Rejected: more spans or segments dropped than recorded; span ids that do
/// not strictly ascend; a thread mark, or a span whose machine, src
/// or dst is out of range, or whose src == dst; a segment whose src or dst
/// is out of range, or src == dst; a stage or receive time that is neither
/// finite and >= 0 nor kSpanUnset; non-finite or negative wire bytes, retry
/// delays, segment times and rates; a segment with t1 <= t0; a labelled
/// segment whose bound_host is neither its src nor its dst. Errors name the
/// span or segment and the field.
Status ValidateSpanDataset(const SpanDataset& dataset);
/// Rebuilds a dataset from a parsed document and validates it
/// (ValidateSpanDataset). Accepts schema versions 1 (segments get
/// RateConstraint::kNone) and 2.
StatusOr<SpanDataset> SpanDatasetFromJson(const JsonValue& root);
/// ParseJson + SpanDatasetFromJson.
StatusOr<SpanDataset> ParseSpanDatasetJson(const std::string& text);

/// Writes/reads SpanDatasetToJson to/from a file.
Status WriteSpanDatasetFile(const std::string& path, const SpanDataset& dataset);
StatusOr<SpanDataset> ReadSpanDatasetFile(const std::string& path);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_SPAN_TRACE_H_
