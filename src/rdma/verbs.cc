#include "rdma/verbs.h"

#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "util/metrics.h"

namespace rdmajoin {

namespace {

/// Counts a completion that was actually delivered to one of `dev`'s CQs (a
/// completion dropped on overflow is not counted), in the device metrics and
/// toward the device's event sink.
void CountCompletion(const RdmaDevice* dev, const WorkCompletion& wc) {
  if (const DeviceMetrics* m = dev->metrics()) {
    switch (wc.op) {
      case WorkCompletion::Op::kSend:
        m->send_completed->Increment();
        break;
      case WorkCompletion::Op::kRecv:
        m->recv_completed->Increment();
        break;
      case WorkCompletion::Op::kWrite:
        m->write_completed->Increment();
        break;
      case WorkCompletion::Op::kRead:
        m->read_completed->Increment();
        break;
    }
    if (!wc.success) m->failed_completions->Increment();
  }
  if (RdmaEventSink* sink = dev->event_sink()) {
    sink->OnWrCompleted(dev->id(), wc.op, wc.success);
  }
}

/// Counts a posted work request (counted even when validation later refuses
/// it, matching the `*_posted` metric semantics).
void CountPosted(const RdmaDevice* dev, WorkCompletion::Op op) {
  if (const DeviceMetrics* m = dev->metrics()) {
    switch (op) {
      case WorkCompletion::Op::kSend:
        m->send_posted->Increment();
        break;
      case WorkCompletion::Op::kRecv:
        m->recv_posted->Increment();
        break;
      case WorkCompletion::Op::kWrite:
        m->write_posted->Increment();
        break;
      case WorkCompletion::Op::kRead:
        m->read_posted->Increment();
        break;
    }
  }
  if (RdmaEventSink* sink = dev->event_sink()) {
    sink->OnWrPosted(dev->id(), op);
  }
}

/// Distinguishes a key that was deregistered (use-after-free of the region)
/// from one that never existed; both violate the same contract clause.
std::string DescribeKey(const RdmaDevice* device, ProtocolValidator* validator,
                        uint32_t key, const char* what) {
  std::string desc = std::string(what) + ": key " + std::to_string(key);
  if (validator != nullptr && validator->WasDeregistered(device->id(), key)) {
    desc += " was deregistered";
  } else {
    desc += " was never registered";
  }
  desc += " (device " + std::to_string(device->id()) + ")";
  return desc;
}

}  // namespace

size_t CompletionQueue::Poll(size_t max, std::vector<WorkCompletion>* out) {
  size_t n = 0;
  while (n < max && !entries_.empty()) {
    if (event_sink_ != nullptr) {
      event_sink_->OnCompletionPolled(sink_device_, entries_.front().op);
    }
    out->push_back(entries_.front());
    entries_.pop_front();
    ++n;
  }
  return n;
}

bool CompletionQueue::PollOne(WorkCompletion* out) {
  if (entries_.empty()) return false;
  if (event_sink_ != nullptr) {
    event_sink_->OnCompletionPolled(sink_device_, entries_.front().op);
  }
  *out = entries_.front();
  entries_.pop_front();
  return true;
}

bool CompletionQueue::Push(const WorkCompletion& wc, ProtocolValidator* validator) {
  if (capacity_ != 0 && entries_.size() >= capacity_) {
    ++overflow_drops_;
    if (validator != nullptr) {
      validator->Record(ProtocolViolation::kCqOverflow,
                        "completion queue full (capacity " +
                            std::to_string(capacity_) + "), wr_id " +
                            std::to_string(wc.wr_id) + " dropped");
    }
    return false;
  }
  entries_.push_back(wc);
  return true;
}

RdmaDevice::RdmaDevice(uint32_t device_id, MemorySpace* memory, const CostModel& costs,
                       double pin_scale)
    : device_id_(device_id), memory_(memory), costs_(costs), pin_scale_(pin_scale) {}

void RdmaDevice::EnableMetrics(MetricsRegistry* registry,
                               const std::string& prefix) {
  metrics_.send_posted = registry->GetCounter(prefix + ".send_posted");
  metrics_.recv_posted = registry->GetCounter(prefix + ".recv_posted");
  metrics_.write_posted = registry->GetCounter(prefix + ".write_posted");
  metrics_.read_posted = registry->GetCounter(prefix + ".read_posted");
  metrics_.send_completed = registry->GetCounter(prefix + ".send_completed");
  metrics_.recv_completed = registry->GetCounter(prefix + ".recv_completed");
  metrics_.write_completed = registry->GetCounter(prefix + ".write_completed");
  metrics_.read_completed = registry->GetCounter(prefix + ".read_completed");
  metrics_.failed_completions =
      registry->GetCounter(prefix + ".failed_completions");
  metrics_.regions_registered =
      registry->GetCounter(prefix + ".regions_registered");
  metrics_.bytes_registered = registry->GetCounter(prefix + ".bytes_registered");
  metrics_.live_regions = registry->GetGauge(prefix + ".live_regions");
  metrics_.pool_outstanding = registry->GetGauge(prefix + ".pool_outstanding");
  metrics_enabled_ = true;
}

RdmaDevice::~RdmaDevice() {
  // Regions leaked by the caller are unpinned so the memory space stays
  // consistent across tests, but each one is a protocol violation: the
  // contract requires deregistration before the device goes away. The table
  // is in registration order, so the leaks are reported in ascending lkey
  // order, as the byte-identical validator reports require.
  for (const MemoryRegion& mr : regions_) {
    if (mr.length == 0) continue;
    if (validator_ != nullptr) {
      validator_->Record(ProtocolViolation::kRegionLeak,
                         "device " + std::to_string(device_id_) + ": lkey " +
                             std::to_string(mr.lkey) + " (" +
                             std::to_string(mr.length) +
                             " bytes) still registered at teardown");
    }
    if (memory_ != nullptr) memory_->Unpin(PinBytes(mr.length));
  }
}

StatusOr<MemoryRegion> RdmaDevice::RegisterMemory(uint8_t* addr, uint64_t length) {
  if (addr == nullptr || length == 0) {
    return Status::InvalidArgument("cannot register an empty memory region");
  }
  // Region i takes keys 2i+1 and 2i+2; both must fit in 32 bits.
  if (regions_.size() >= (uint64_t{1} << 31) - 1) {
    return Status::ResourceExhausted("memory key space exhausted on device " +
                                     std::to_string(device_id_));
  }
  if (memory_ != nullptr) {
    RDMAJOIN_RETURN_IF_ERROR(memory_->Pin(PinBytes(length)));
  }
  MemoryRegion mr;
  mr.lkey = static_cast<uint32_t>(2 * regions_.size() + 1);
  mr.rkey = mr.lkey + 1;
  mr.addr = addr;
  mr.length = length;
  mr.device_id = device_id_;
  regions_.push_back(mr);
  ++live_regions_;
  ++stats_.regions_registered;
  stats_.bytes_registered += length;
  stats_.registration_seconds += costs_.RegistrationSeconds(length);
  if (metrics_enabled_) {
    metrics_.regions_registered->Increment();
    metrics_.bytes_registered->Add(static_cast<double>(length));
    metrics_.live_regions->Set(static_cast<double>(live_regions_));
  }
  if (validator_ != nullptr) validator_->OnRegister(device_id_, mr.lkey, mr.rkey);
  return mr;
}

Status RdmaDevice::DeregisterMemory(const MemoryRegion& mr) {
  if (FindByLkey(mr.lkey) == nullptr) {
    Status error =
        Status::NotFound("memory region not registered with this device");
    if (validator_ == nullptr) return error;
    // Deregistering a dead (or foreign) region is itself a lifetime bug.
    validator_->Record(ProtocolViolation::kUseAfterDeregister,
                       DescribeKey(this, validator_, mr.lkey, "DeregisterMemory"));
    return validator_->strict() ? error : Status::OK();
  }
  MemoryRegion& region = regions_[mr.lkey / 2];
  if (memory_ != nullptr) memory_->Unpin(PinBytes(region.length));
  stats_.deregistration_seconds += costs_.DeregistrationSeconds(region.length);
  ++stats_.regions_deregistered;
  if (validator_ != nullptr) {
    validator_->OnDeregister(device_id_, region.lkey, region.rkey);
  }
  // The slot stays, so its keys are never issued again.
  region.addr = nullptr;
  region.length = 0;
  --live_regions_;
  if (metrics_enabled_) {
    metrics_.live_regions->Set(static_cast<double>(live_regions_));
  }
  return Status::OK();
}

const MemoryRegion* RdmaDevice::FindByLkey(uint32_t lkey) const {
  // lkeys are odd: lkey 2i+1 indexes region i.
  return lkey % 2 == 1 ? LiveRegion(lkey / 2) : nullptr;
}

const MemoryRegion* RdmaDevice::FindByRkey(uint32_t rkey) const {
  // rkeys are even and nonzero: rkey 2i+2 indexes region i.
  return rkey % 2 == 0 && rkey != 0 ? LiveRegion(rkey / 2 - 1) : nullptr;
}

QueuePair::QueuePair(RdmaDevice* local, CompletionQueue* send_cq,
                     CompletionQueue* recv_cq)
    : local_(local), send_cq_(send_cq), recv_cq_(recv_cq) {
  assert(local != nullptr && send_cq != nullptr && recv_cq != nullptr);
}

Status QueuePair::Connect(QueuePair* a, QueuePair* b) {
  if (a == nullptr || b == nullptr) {
    return Status::InvalidArgument("null queue pair");
  }
  if (a->peer_ != nullptr || b->peer_ != nullptr) {
    return Status::FailedPrecondition("queue pair already connected");
  }
  if (a == b) return Status::InvalidArgument("cannot connect a queue pair to itself");
  a->peer_ = b;
  b->peer_ = a;
  return Status::OK();
}

Status QueuePair::CheckBounds(const MemoryRegion* mr, uint64_t offset, uint64_t len,
                              const char* what) {
  if (mr == nullptr) {
    return Status::InvalidArgument(std::string(what) + ": unknown memory key");
  }
  if (offset + len > mr->length || offset + len < offset) {
    return Status::OutOfRange(std::string(what) + ": access outside memory region");
  }
  return Status::OK();
}

Status QueuePair::FailWr(ProtocolViolation violation, const Status& error,
                         WorkCompletion::Op op, uint64_t wr_id,
                         CompletionQueue* cq) {
  ProtocolValidator* validator = local_->validator();
  if (validator == nullptr) return error;
  validator->Record(violation, error.message());
  if (validator->strict()) return error;
  // Report mode: the post "succeeds" and the violation surfaces as a failed
  // completion, the way a real HCA delivers protection errors.
  const WorkCompletion wc{op, wr_id, 0, 0, /*success=*/false};
  if (cq->Push(wc, validator)) CountCompletion(local_, wc);
  return Status::OK();
}

Status QueuePair::CheckReady(WorkCompletion::Op op, uint64_t wr_id,
                             CompletionQueue* cq, bool* refused) {
  if (state_ != State::kError) {
    *refused = false;
    return Status::OK();
  }
  *refused = true;
  return FailWr(ProtocolViolation::kQpNotReady,
                Status::FailedPrecondition(
                    "queue pair in error state (device " +
                    std::to_string(local_->id()) + "); Recover() it first"),
                op, wr_id, cq);
}

Status QueuePair::PostRecv(uint64_t wr_id, uint32_t lkey, uint64_t offset,
                           uint64_t max_len) {
  CountPosted(local_, WorkCompletion::Op::kRecv);
  bool refused = false;
  Status ready = CheckReady(WorkCompletion::Op::kRecv, wr_id, recv_cq_, &refused);
  if (refused) return ready;
  ProtocolValidator* validator = local_->validator();
  const MemoryRegion* mr = local_->FindByLkey(lkey);
  if (mr == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(local_, validator, lkey, "PostRecv"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kRecv, wr_id, recv_cq_);
  }
  Status bounds = CheckBounds(mr, offset, max_len, "PostRecv");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kRecv, wr_id, recv_cq_);
  }
  recv_queue_.push_back(PostedRecv{wr_id, lkey, offset, max_len});
  ++local_->stats_.recvs_posted;
  return Status::OK();
}

Status QueuePair::PostSend(uint64_t wr_id, uint32_t lkey, uint64_t offset,
                           uint64_t len) {
  if (peer_ == nullptr) return Status::FailedPrecondition("queue pair not connected");
  CountPosted(local_, WorkCompletion::Op::kSend);
  bool refused = false;
  Status ready = CheckReady(WorkCompletion::Op::kSend, wr_id, send_cq_, &refused);
  if (refused) return ready;
  ProtocolValidator* validator = local_->validator();
  const MemoryRegion* src = local_->FindByLkey(lkey);
  if (src == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(local_, validator, lkey, "PostSend src"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kSend, wr_id, send_cq_);
  }
  Status bounds = CheckBounds(src, offset, len, "PostSend src");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kSend, wr_id, send_cq_);
  }
  if (peer_->recv_queue_.empty()) {
    return FailWr(ProtocolViolation::kReceiverNotReady,
                  Status::ResourceExhausted("receiver not ready: no posted receive"),
                  WorkCompletion::Op::kSend, wr_id, send_cq_);
  }
  PostedRecv rx = peer_->recv_queue_.front();
  const MemoryRegion* dst = peer_->local_->FindByLkey(rx.lkey);
  if (dst == nullptr) {
    // The receive buffer's region was deregistered after the recv was
    // posted; the posted receive is consumed, as on real hardware.
    peer_->recv_queue_.pop_front();
    Status error = Status::InvalidArgument(
        DescribeKey(peer_->local_, validator, rx.lkey, "PostSend dst"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kSend, wr_id, send_cq_);
  }
  if (len > rx.max_len) {
    return FailWr(ProtocolViolation::kOutOfBounds,
                  Status::OutOfRange("message larger than posted receive buffer"),
                  WorkCompletion::Op::kSend, wr_id, send_cq_);
  }
  if (fail_next_sends_ > 0) {
    // Injected transport fault (src/fault/): the work request was valid, so
    // this is not a protocol violation. The peer's posted receive is not
    // consumed -- the message never arrived.
    --fail_next_sends_;
    if (fail_drop_) {
      // Lost in the fabric: no completion is ever delivered; the sender's
      // timeout path is the only way to learn about it.
      return Status::OK();
    }
    // Fatal error completion; the queue pair transitions to the error state
    // per verbs semantics and must be recovered before further posts.
    state_ = State::kError;
    const WorkCompletion wc{WorkCompletion::Op::kSend, wr_id, 0, 0,
                            /*success=*/false};
    if (send_cq_->Push(wc, local_->validator())) CountCompletion(local_, wc);
    return Status::OK();
  }
  peer_->recv_queue_.pop_front();
  std::memcpy(dst->addr + rx.offset, src->addr + offset, len);

  ++local_->stats_.messages_sent;
  local_->stats_.bytes_sent += len;
  const WorkCompletion send_wc{WorkCompletion::Op::kSend, wr_id, len, 0, true};
  if (send_cq_->Push(send_wc, validator)) {
    CountCompletion(local_, send_wc);
  }
  const WorkCompletion recv_wc{WorkCompletion::Op::kRecv, rx.wr_id, len, rx.lkey,
                               true};
  if (peer_->recv_cq_->Push(recv_wc, peer_->local_->validator())) {
    CountCompletion(peer_->local_, recv_wc);
  }
  return Status::OK();
}

Status QueuePair::PostWrite(uint64_t wr_id, uint32_t local_lkey, uint64_t local_offset,
                            uint32_t rkey, uint64_t remote_offset, uint64_t len) {
  if (peer_ == nullptr) return Status::FailedPrecondition("queue pair not connected");
  CountPosted(local_, WorkCompletion::Op::kWrite);
  bool refused = false;
  Status ready = CheckReady(WorkCompletion::Op::kWrite, wr_id, send_cq_, &refused);
  if (refused) return ready;
  ProtocolValidator* validator = local_->validator();
  const MemoryRegion* src = local_->FindByLkey(local_lkey);
  if (src == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(local_, validator, local_lkey, "PostWrite src"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kWrite, wr_id, send_cq_);
  }
  Status bounds = CheckBounds(src, local_offset, len, "PostWrite src");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kWrite, wr_id, send_cq_);
  }
  const MemoryRegion* dst = peer_->local_->FindByRkey(rkey);
  if (dst == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(peer_->local_, validator, rkey, "PostWrite dst"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kWrite, wr_id, send_cq_);
  }
  bounds = CheckBounds(dst, remote_offset, len, "PostWrite dst");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kWrite, wr_id, send_cq_);
  }
  std::memcpy(dst->addr + remote_offset, src->addr + local_offset, len);
  ++local_->stats_.writes_posted;
  local_->stats_.bytes_written += len;
  ++local_->stats_.messages_sent;
  local_->stats_.bytes_sent += len;
  const WorkCompletion wc{WorkCompletion::Op::kWrite, wr_id, len, 0, true};
  if (send_cq_->Push(wc, validator)) CountCompletion(local_, wc);
  return Status::OK();
}

Status QueuePair::PostRead(uint64_t wr_id, uint32_t local_lkey, uint64_t local_offset,
                           uint32_t rkey, uint64_t remote_offset, uint64_t len) {
  if (peer_ == nullptr) return Status::FailedPrecondition("queue pair not connected");
  CountPosted(local_, WorkCompletion::Op::kRead);
  bool refused = false;
  Status ready = CheckReady(WorkCompletion::Op::kRead, wr_id, send_cq_, &refused);
  if (refused) return ready;
  ProtocolValidator* validator = local_->validator();
  const MemoryRegion* dst = local_->FindByLkey(local_lkey);
  if (dst == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(local_, validator, local_lkey, "PostRead dst"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kRead, wr_id, send_cq_);
  }
  Status bounds = CheckBounds(dst, local_offset, len, "PostRead dst");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kRead, wr_id, send_cq_);
  }
  const MemoryRegion* src = peer_->local_->FindByRkey(rkey);
  if (src == nullptr) {
    Status error = Status::InvalidArgument(
        DescribeKey(peer_->local_, validator, rkey, "PostRead src"));
    return FailWr(ProtocolViolation::kUseAfterDeregister, error,
                  WorkCompletion::Op::kRead, wr_id, send_cq_);
  }
  bounds = CheckBounds(src, remote_offset, len, "PostRead src");
  if (!bounds.ok()) {
    return FailWr(ProtocolViolation::kOutOfBounds, bounds,
                  WorkCompletion::Op::kRead, wr_id, send_cq_);
  }
  std::memcpy(dst->addr + local_offset, src->addr + remote_offset, len);
  const WorkCompletion wc{WorkCompletion::Op::kRead, wr_id, len, 0, true};
  if (send_cq_->Push(wc, validator)) CountCompletion(local_, wc);
  return Status::OK();
}

}  // namespace rdmajoin
