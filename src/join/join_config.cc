#include "join/join_config.h"

#include <algorithm>
#include <string>

#include "transport/wire_format.h"

namespace rdmajoin {

Status JoinConfig::Validate() const {
  if (network_radix_bits == 0 || network_radix_bits > kMaxNetworkRadixBits) {
    return Status::InvalidArgument("network_radix_bits must be in [1, " +
                                   std::to_string(kMaxNetworkRadixBits) + "]");
  }
  if (cache_partition_bytes == 0) {
    return Status::InvalidArgument("cache_partition_bytes must be positive");
  }
  if (rdma_buffer_bytes == 0) {
    return Status::InvalidArgument("rdma_buffer_bytes must be positive");
  }
  if (buffers_per_partition == 0) {
    return Status::InvalidArgument("buffers_per_partition must be >= 1");
  }
  if (recv_buffers_per_link == 0) {
    return Status::InvalidArgument("recv_buffers_per_link must be >= 1");
  }
  if (scale_up < 1.0) {
    return Status::InvalidArgument("scale_up must be >= 1");
  }
  if (skew_split_factor < 0) {
    return Status::InvalidArgument("skew_split_factor must be >= 0");
  }
  if (local_bits_per_pass == 0 || local_bits_per_pass > 20) {
    return Status::InvalidArgument("local_bits_per_pass must be in [1, 20]");
  }
  if (retry_backoff_seconds < 0) {
    return Status::InvalidArgument("retry_backoff_seconds must be >= 0");
  }
  if (send_timeout_seconds <= 0) {
    return Status::InvalidArgument("send_timeout_seconds must be positive");
  }
  return Status::OK();
}

uint64_t JoinConfig::ActualRdmaBufferBytes(uint32_t tuple_bytes) const {
  // Payload capacity of one buffer. The 16-byte wire header is allocated on
  // top of this and excluded from the virtual traffic accounting: at full
  // scale it is 16 B per 64 KB and would otherwise be inflated by scale_up.
  const uint64_t scaled = static_cast<uint64_t>(
      static_cast<double>(rdma_buffer_bytes) / scale_up);
  return std::max<uint64_t>(scaled, tuple_bytes);
}

uint64_t JoinConfig::ActualCachePartitionBytes(uint32_t tuple_bytes) const {
  const uint64_t scaled = static_cast<uint64_t>(
      static_cast<double>(cache_partition_bytes) / scale_up);
  return std::max<uint64_t>(scaled, tuple_bytes);
}

}  // namespace rdmajoin
