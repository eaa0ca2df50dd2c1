#ifndef RDMAJOIN_RDMA_BUFFER_POOL_H_
#define RDMAJOIN_RDMA_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "rdma/verbs.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdmajoin {

class RegisteredBufferPool;

/// A fixed-size buffer backed by a registered memory region.
struct RegisteredBuffer {
  std::unique_ptr<uint8_t[]> data;
  MemoryRegion mr;
  /// Bytes currently filled by the user (not managed by the pool).
  uint64_t used = 0;

  uint8_t* bytes() { return data.get(); }
  uint64_t capacity() const { return mr.length; }

 private:
  friend class RegisteredBufferPool;
  /// The pool that created this buffer (null if no pool did) and whether it
  /// is acquired from that pool right now. Release checks both, so it needs
  /// no set of outstanding buffers.
  const RegisteredBufferPool* owner_ = nullptr;
  bool outstanding_ = false;
};

/// A pool of preallocated, preregistered RDMA buffers.
///
/// Section 3.2.1: "To reduce the overall registration cost ... an algorithm
/// should reuse existing RDMA-enabled buffers as often as possible and avoid
/// registering new memory regions on the fly." The pool implements exactly
/// that policy; the kRegisterOnDemand policy exists to quantify what it saves
/// (bench/abl_registration).
///
/// The pool enforces the acquire/release contract: a buffer must be released
/// exactly once per acquisition, and every buffer must be back in the pool
/// when it is destroyed. Breaches are reported to the device's
/// ProtocolValidator (double-release, buffer-leak) and, with or without a
/// validator, never corrupt the free list.
///
/// The pool owns every buffer it ever created until it is destroyed. Under
/// kRegisterOnDemand a released buffer keeps its shell (data freed, region
/// deregistered) and the next acquisition registers fresh memory into it,
/// so a stale pointer to a released buffer never dangles.
class RegisteredBufferPool {
 public:
  enum class Policy {
    /// Buffers are registered once and recycled (the paper's design).
    kPooled,
    /// Every acquisition registers a fresh region and every release
    /// deregisters it (the anti-pattern the paper warns against).
    kRegisterOnDemand,
  };

  /// Buffers are `buffer_bytes` long and registered with `device`.
  RegisteredBufferPool(RdmaDevice* device, uint64_t buffer_bytes,
                       Policy policy = Policy::kPooled);
  RegisteredBufferPool(const RegisteredBufferPool&) = delete;
  RegisteredBufferPool& operator=(const RegisteredBufferPool&) = delete;
  ~RegisteredBufferPool();

  /// Preallocates and registers `count` buffers (pooled policy only).
  Status Preallocate(size_t count);

  /// Returns a registered buffer, growing the pool if it is empty.
  StatusOr<RegisteredBuffer*> Acquire();

  /// Returns `buf` to the pool (or deregisters it under kRegisterOnDemand).
  /// Releasing a buffer that is not outstanding is a protocol violation:
  /// the buffer is left untouched and FailedPrecondition is returned (OK in
  /// a validator's report mode, after recording the violation).
  Status Release(RegisteredBuffer* buf);

  uint64_t buffer_bytes() const { return buffer_bytes_; }
  Policy policy() const { return policy_; }

  /// Total buffers ever created (== registrations performed).
  uint64_t buffers_created() const { return buffers_created_; }
  /// Total Acquire calls.
  uint64_t acquisitions() const { return acquisitions_; }
  /// Acquisitions served without a new registration.
  uint64_t reuses() const { return acquisitions_ - buffers_created_; }
  size_t free_buffers() const { return free_.size(); }
  size_t outstanding() const { return outstanding_; }

 private:
  /// Allocates and registers a buffer, in a released shell if one is left.
  StatusOr<RegisteredBuffer*> CreateBuffer();
  /// Pushes the current outstanding count into the device's occupancy gauge
  /// (no-op when metrics are disabled).
  void UpdateOccupancy();
  /// Reports a credit transition to the device's event sink (no-op without
  /// one attached).
  void NotifyCredit(bool acquired);

  RdmaDevice* device_;
  uint64_t buffer_bytes_;
  Policy policy_;
  std::vector<std::unique_ptr<RegisteredBuffer>> all_;
  /// kPooled: registered buffers ready to be acquired.
  std::vector<RegisteredBuffer*> free_;
  /// kRegisterOnDemand: released buffers without data or region.
  std::vector<RegisteredBuffer*> shells_;
  /// Buffers currently acquired and not yet released.
  size_t outstanding_ = 0;
  uint64_t buffers_created_ = 0;
  uint64_t acquisitions_ = 0;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_RDMA_BUFFER_POOL_H_
