#include "rdma/buffer_pool.h"

#include <cassert>
#include <string>

#include "util/metrics.h"

namespace rdmajoin {

RegisteredBufferPool::RegisteredBufferPool(RdmaDevice* device, uint64_t buffer_bytes,
                                           Policy policy)
    : device_(device), buffer_bytes_(buffer_bytes), policy_(policy) {
  assert(device != nullptr);
  assert(buffer_bytes > 0);
}

RegisteredBufferPool::~RegisteredBufferPool() {
  ProtocolValidator* validator = device_->validator();
  if (validator != nullptr && outstanding_ > 0) {
    validator->Record(ProtocolViolation::kBufferLeak,
                      std::to_string(outstanding_) +
                          " buffer(s) still outstanding at pool teardown (device " +
                          std::to_string(device_->id()) + ")");
  }
  for (auto& buf : all_) {
    if (buf->data != nullptr) {
      // Best-effort: deregistration failures are impossible for regions this
      // pool registered itself.
      // lint: discard-ok(destructor teardown of regions this pool registered)
      (void)device_->DeregisterMemory(buf->mr);
    }
  }
}

StatusOr<RegisteredBuffer*> RegisteredBufferPool::CreateBuffer() {
  RegisteredBuffer* buf;
  if (shells_.empty()) {
    all_.push_back(std::make_unique<RegisteredBuffer>());
    buf = all_.back().get();
    buf->owner_ = this;
  } else {
    buf = shells_.back();
    shells_.pop_back();
  }
  buf->data = std::make_unique<uint8_t[]>(buffer_bytes_);
  auto mr = device_->RegisterMemory(buf->data.get(), buffer_bytes_);
  if (!mr.ok()) {
    buf->data.reset();
    shells_.push_back(buf);
    return mr.status();
  }
  buf->mr = *mr;
  ++buffers_created_;
  return buf;
}

Status RegisteredBufferPool::Preallocate(size_t count) {
  if (policy_ != Policy::kPooled) {
    return Status::FailedPrecondition(
        "Preallocate is only meaningful for the pooled policy");
  }
  for (size_t i = 0; i < count; ++i) {
    auto buf = CreateBuffer();
    if (!buf.ok()) return buf.status();
    free_.push_back(*buf);
  }
  return Status::OK();
}

StatusOr<RegisteredBuffer*> RegisteredBufferPool::Acquire() {
  RegisteredBuffer* buf;
  if (!free_.empty()) {
    buf = free_.back();
    free_.pop_back();
  } else {
    auto created = CreateBuffer();
    if (!created.ok()) return created.status();
    buf = *created;
  }
  ++acquisitions_;
  buf->used = 0;
  buf->outstanding_ = true;
  ++outstanding_;
  UpdateOccupancy();
  NotifyCredit(/*acquired=*/true);
  return buf;
}

void RegisteredBufferPool::NotifyCredit(bool acquired) {
  if (RdmaEventSink* sink = device_->event_sink()) {
    sink->OnBufferCredit(device_->id(), acquired);
  }
}

void RegisteredBufferPool::UpdateOccupancy() {
  // The gauge's max() is the occupancy high-water mark across every pool
  // drawing on the device.
  if (const DeviceMetrics* m = device_->metrics()) {
    m->pool_outstanding->Set(static_cast<double>(outstanding_));
  }
}

Status RegisteredBufferPool::Release(RegisteredBuffer* buf) {
  if (buf == nullptr) {
    return Status::InvalidArgument("Release of a null buffer");
  }
  if (buf->owner_ != this || !buf->outstanding_) {
    // Double release (or a buffer this pool never handed out). Pushing it
    // onto the free list anyway would hand the same buffer to two owners,
    // so the release is refused in every mode.
    Status error = Status::FailedPrecondition(
        "buffer released while not outstanding (double release?)");
    ProtocolValidator* validator = device_->validator();
    if (validator == nullptr) return error;
    validator->Record(ProtocolViolation::kDoubleRelease, error.message());
    return validator->strict() ? error : Status::OK();
  }
  buf->outstanding_ = false;
  --outstanding_;
  buf->used = 0;
  UpdateOccupancy();
  NotifyCredit(/*acquired=*/false);
  if (policy_ == Policy::kPooled) {
    free_.push_back(buf);
    return Status::OK();
  }
  // Register-on-demand: tear the buffer down to its shell.
  // lint: discard-ok(pool registered this region itself; failure impossible)
  (void)device_->DeregisterMemory(buf->mr);
  buf->data.reset();
  shells_.push_back(buf);
  return Status::OK();
}

}  // namespace rdmajoin
