#ifndef RDMAJOIN_RDMA_VERBS_H_
#define RDMAJOIN_RDMA_VERBS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/memory_space.h"
#include "rdma/validator.h"
#include "util/ring_queue.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdmajoin {

class Counter;
class Gauge;
class MetricsRegistry;

/// A verbs-style RDMA interface executing against simulated machine memory.
///
/// The join algorithm is written against this API exactly as it would be
/// against libibverbs: memory must be registered into memory regions before
/// the "HCA" may touch it, work requests are posted to queue pairs, and
/// completions are polled from completion queues. Data transfer is performed
/// eagerly (the simulation separates the data path from virtual time), but
/// all protection checks (lkey/rkey validation, bounds, posted receives) are
/// enforced, and registration costs are accounted so buffer-management
/// policies can be compared (Section 3.2.1).
///
/// Protocol violations are additionally reported to an optional
/// ProtocolValidator (rdma/validator.h) attached to the device, which either
/// fails the offending call (strict mode) or suppresses the operation and
/// records it for tools/rdmajoin_check (report mode).

class RdmaDevice;
class QueuePair;

/// A registered (pinned) region of a machine's memory.
struct MemoryRegion {
  uint32_t lkey = 0;
  uint32_t rkey = 0;
  uint8_t* addr = nullptr;
  uint64_t length = 0;
  uint32_t device_id = 0;
};

/// Completion of a posted work request.
struct WorkCompletion {
  enum class Op { kSend, kRecv, kWrite, kRead };
  Op op = Op::kSend;
  uint64_t wr_id = 0;
  /// Bytes transferred.
  uint64_t byte_len = 0;
  /// For kRecv: the region the message landed in.
  uint32_t recv_lkey = 0;
  bool success = true;
};

/// Observer of execution-layer RDMA events: work requests posted, completions
/// delivered, completions polled, buffer-pool credits acquired/released. The
/// execution layer is eager and owns no virtual clock, so events are ordinal
/// (counts, not timestamps) -- the replay layer in src/timing owns time.
/// Implemented by the span recorder (timing/span_trace.h); attached with
/// RdmaDevice::set_event_sink (Post* and buffer-pool events) and
/// CompletionQueue::set_event_sink (poll events).
class RdmaEventSink {
 public:
  virtual ~RdmaEventSink() = default;
  /// A work request of `op` was posted on `device` (counted even when the
  /// post is refused or fails validation, mirroring the posted metrics).
  virtual void OnWrPosted(uint32_t device, WorkCompletion::Op op) = 0;
  /// A completion was delivered to a CQ owned by `device` (overflow-dropped
  /// completions are not reported).
  virtual void OnWrCompleted(uint32_t device, WorkCompletion::Op op,
                             bool success) = 0;
  /// A completion was handed to the application by Poll/PollOne.
  virtual void OnCompletionPolled(uint32_t device, WorkCompletion::Op op) = 0;
  /// A registered buffer was acquired from (`acquired`) or released back to
  /// (`!acquired`) a pool drawing on `device`.
  virtual void OnBufferCredit(uint32_t device, bool acquired) = 0;
};

/// FIFO of work completions, held in a growable ring. Shared by any number
/// of queue pairs. A capacity of 0 (the default) means unbounded; with a
/// capacity set, completions arriving at a full queue are dropped and
/// reported as cq-overflow to the device's validator -- the simulated
/// equivalent of an IBV_EVENT_CQ_ERR overrun.
class CompletionQueue {
 public:
  explicit CompletionQueue(size_t capacity = 0) : capacity_(capacity) {}

  /// Polls up to `max` completions into `out`; returns the number polled.
  size_t Poll(size_t max, std::vector<WorkCompletion>* out);
  /// Returns true and sets `*out` if a completion was available.
  bool PollOne(WorkCompletion* out);
  size_t depth() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t capacity) { capacity_ = capacity; }
  /// Completions dropped because the queue was full.
  uint64_t overflow_drops() const { return overflow_drops_; }

  /// Attaches an event sink notified on every Poll/PollOne; `device_id`
  /// labels the events (the CQ's owning device). Pass nullptr to detach.
  void set_event_sink(RdmaEventSink* sink, uint32_t device_id) {
    event_sink_ = sink;
    sink_device_ = device_id;
  }

 private:
  friend class QueuePair;
  friend class RdmaDevice;

  /// Appends `wc` unless the queue is full; reports overflow to `validator`
  /// (may be null) and returns false when the completion was dropped.
  bool Push(const WorkCompletion& wc, ProtocolValidator* validator);

  size_t capacity_;
  uint64_t overflow_drops_ = 0;
  RdmaEventSink* event_sink_ = nullptr;
  uint32_t sink_device_ = 0;
  RingQueue<WorkCompletion> entries_;
};

/// Metric handles for one device, created by RdmaDevice::EnableMetrics. The
/// pointed-to metrics live in the attached MetricsRegistry; the pointers are
/// shared with QueuePair (work-request accounting) and RegisteredBufferPool
/// (occupancy high-water via the gauge's max()).
struct DeviceMetrics {
  Counter* send_posted;
  Counter* recv_posted;
  Counter* write_posted;
  Counter* read_posted;
  Counter* send_completed;
  Counter* recv_completed;
  Counter* write_completed;
  Counter* read_completed;
  /// Completions delivered with success == false (report-mode violations).
  Counter* failed_completions;
  Counter* regions_registered;
  Counter* bytes_registered;
  Gauge* live_regions;
  /// Buffers currently acquired from pools drawing on this device.
  Gauge* pool_outstanding;
};

/// Cumulative statistics of one device, including the virtual time spent on
/// memory registration (the hidden cost the buffer pool amortizes).
struct DeviceStats {
  uint64_t regions_registered = 0;
  uint64_t regions_deregistered = 0;
  uint64_t bytes_registered = 0;
  double registration_seconds = 0.0;
  double deregistration_seconds = 0.0;
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t writes_posted = 0;
  uint64_t bytes_written = 0;
  uint64_t recvs_posted = 0;
};

/// One RDMA-capable NIC, bound to one simulated machine's memory space.
class RdmaDevice {
 public:
  /// `memory` may be null, in which case pinning is not enforced (useful in
  /// unit tests); `costs` drives the registration cost accounting.
  /// `pin_scale` converts actual (in-simulation) region sizes into the
  /// full-scale bytes tracked by the memory space (the executor's scale_up).
  RdmaDevice(uint32_t device_id, MemorySpace* memory, const CostModel& costs,
             double pin_scale = 1.0);
  RdmaDevice(const RdmaDevice&) = delete;
  RdmaDevice& operator=(const RdmaDevice&) = delete;
  ~RdmaDevice();

  uint32_t id() const { return device_id_; }

  /// Attaches a protocol validator observing this device, its queue pairs
  /// and any buffer pools drawing from it. Must outlive the device.
  void set_validator(ProtocolValidator* validator) { validator_ = validator; }
  ProtocolValidator* validator() const { return validator_; }

  /// Attaches an execution-event observer (posted work requests, delivered
  /// completions, buffer-pool credits). Must outlive the device; pass
  /// nullptr to detach.
  void set_event_sink(RdmaEventSink* sink) { event_sink_ = sink; }
  RdmaEventSink* event_sink() const { return event_sink_; }

  /// Attaches observability instrumentation reporting into `registry` under
  /// `<prefix>.` (e.g. `rdma.dev0.send_posted`, `.bytes_registered`,
  /// `.pool_outstanding`). `registry` must outlive the device.
  void EnableMetrics(MetricsRegistry* registry, const std::string& prefix);
  /// Metric handles, or nullptr when metrics are disabled.
  const DeviceMetrics* metrics() const {
    return metrics_enabled_ ? &metrics_ : nullptr;
  }

  /// Registers `[addr, addr+length)` for RDMA access. Pins the pages in the
  /// machine's memory space and charges the registration cost.
  StatusOr<MemoryRegion> RegisterMemory(uint8_t* addr, uint64_t length);

  /// Deregisters a region, unpinning its pages.
  Status DeregisterMemory(const MemoryRegion& mr);

  /// Looks up a live region by local key; nullptr if the key is unknown,
  /// is an rkey, or names a deregistered region. The pointer stays valid
  /// until the next RegisterMemory.
  const MemoryRegion* FindByLkey(uint32_t lkey) const;
  /// Looks up a live region by remote key; nullptr if the key is unknown,
  /// is an lkey, or names a deregistered region. Same lifetime as above.
  const MemoryRegion* FindByRkey(uint32_t rkey) const;

  /// Regions currently registered (not yet deregistered).
  size_t live_regions() const { return live_regions_; }

  const DeviceStats& stats() const { return stats_; }
  DeviceStats* mutable_stats() { return &stats_; }

 private:
  friend class QueuePair;
  uint64_t PinBytes(uint64_t length) const {
    return static_cast<uint64_t>(static_cast<double>(length) * pin_scale_);
  }

  uint32_t device_id_;
  MemorySpace* memory_;
  CostModel costs_;
  double pin_scale_;
  /// The live region at `index` of regions_, or nullptr.
  const MemoryRegion* LiveRegion(uint64_t index) const {
    if (index >= regions_.size() || regions_[index].length == 0) return nullptr;
    return &regions_[index];
  }

  ProtocolValidator* validator_ = nullptr;
  RdmaEventSink* event_sink_ = nullptr;
  /// Every region ever registered, indexed by its keys: region i has lkey
  /// 2i+1 and rkey 2i+2, so a lookup is one parity test and one bounds
  /// check. Keys are never reused; a deregistered region keeps its slot
  /// with length 0, which no live region has.
  std::vector<MemoryRegion> regions_;
  size_t live_regions_ = 0;
  DeviceStats stats_;
  DeviceMetrics metrics_{};
  bool metrics_enabled_ = false;
};

/// A reliable connection between two devices. Supports two-sided SEND/RECV
/// (channel semantics) and one-sided WRITE/READ (memory semantics).
///
/// Error delivery depends on the local device's validator: with none
/// attached (or in strict mode) a protocol violation fails the Post* call
/// with an error Status; in report mode the post returns OK, the transfer
/// is suppressed, and a failed WorkCompletion is delivered instead -- the
/// way a real HCA surfaces protection errors.
class QueuePair {
 public:
  /// Lifecycle per verbs semantics, collapsed to the two states the join
  /// exercises: kReady (RTS) accepts work requests; kError refuses every
  /// post (reported as qp-not-ready) until Recover() cycles the queue pair
  /// back (the simulated RESET -> INIT -> RTR -> RTS transition).
  enum class State : uint8_t { kReady, kError };

  /// Connects `local` to `remote`. `send_cq`/`recv_cq` receive this side's
  /// completions; the peer constructs its own QueuePair and the two are
  /// paired with Connect().
  QueuePair(RdmaDevice* local, CompletionQueue* send_cq, CompletionQueue* recv_cq);

  /// Pairs two queue pairs (one per side). Both must be unconnected.
  static Status Connect(QueuePair* a, QueuePair* b);

  /// Posts a receive buffer (`lkey` must identify a local region, and
  /// `offset + max_len` must lie within it). Incoming SENDs consume posted
  /// receives in FIFO order.
  Status PostRecv(uint64_t wr_id, uint32_t lkey, uint64_t offset, uint64_t max_len);

  /// Two-sided send of `[offset, offset+len)` of local region `lkey` into the
  /// peer's next posted receive buffer. Fails if the peer has no receive
  /// posted (receiver-not-ready) or the buffer is too small.
  Status PostSend(uint64_t wr_id, uint32_t lkey, uint64_t offset, uint64_t len);

  /// One-sided write into the peer region identified by `rkey`.
  Status PostWrite(uint64_t wr_id, uint32_t local_lkey, uint64_t local_offset,
                   uint32_t rkey, uint64_t remote_offset, uint64_t len);

  /// One-sided read from the peer region identified by `rkey`.
  Status PostRead(uint64_t wr_id, uint32_t local_lkey, uint64_t local_offset,
                  uint32_t rkey, uint64_t remote_offset, uint64_t len);

  bool connected() const { return peer_ != nullptr; }
  size_t posted_recvs() const { return recv_queue_.size(); }
  RdmaDevice* device() const { return local_; }

  State state() const { return state_; }
  /// Transitions to the error state; every subsequent post fails with
  /// qp-not-ready until Recover(). A completion error injected by
  /// InjectSendFaults transitions automatically, per verbs semantics.
  void SetError() { state_ = State::kError; }
  /// Returns the queue pair to the ready state. Pending receives survive
  /// (the simulation does not flush them; the transport's recovery path
  /// reposts what it consumed).
  void Recover() { state_ = State::kReady; }

  /// Fault injection (src/fault/): the next `count` PostSend calls that pass
  /// validation fail. With `drop` false each delivers an error work
  /// completion and moves the queue pair to the error state; with `drop`
  /// true the message is silently lost -- no completion is ever delivered
  /// and the state is unchanged (the sender must time out).
  void InjectSendFaults(uint32_t count, bool drop) {
    fail_next_sends_ = count;
    fail_drop_ = drop;
  }
  uint32_t pending_send_faults() const { return fail_next_sends_; }

 private:
  struct PostedRecv {
    uint64_t wr_id;
    uint32_t lkey;
    uint64_t offset;
    uint64_t max_len;
  };

  /// Validates that [offset, offset+len) lies inside the region.
  static Status CheckBounds(const MemoryRegion* mr, uint64_t offset, uint64_t len,
                            const char* what);

  /// Routes a violated work request through the local validator: no
  /// validator or strict -> returns `error`; report mode -> records the
  /// violation, delivers a failed completion of `op` to `cq`, returns OK.
  Status FailWr(ProtocolViolation violation, const Status& error,
                WorkCompletion::Op op, uint64_t wr_id, CompletionQueue* cq);

  /// Refuses the post when the queue pair is in the error state (reported
  /// as qp-not-ready through FailWr); OK otherwise.
  Status CheckReady(WorkCompletion::Op op, uint64_t wr_id, CompletionQueue* cq,
                    bool* refused);

  RdmaDevice* local_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QueuePair* peer_ = nullptr;
  State state_ = State::kReady;
  uint32_t fail_next_sends_ = 0;
  bool fail_drop_ = false;
  RingQueue<PostedRecv> recv_queue_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_RDMA_VERBS_H_
