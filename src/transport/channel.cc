#include "transport/channel.h"

#include <cassert>
#include <cstring>
#include <string>

#include "fault/injector.h"
#include "timing/span_trace.h"
#include "transport/wire_format.h"
#include "util/metrics.h"
#include "util/units.h"

namespace rdmajoin {

// The channel implementations live in the rdmajoin namespace (not an
// unnamed one) so the friend declarations in TransportNetwork apply.

/// Two-sided SEND/RECV channel (the paper's evaluated configuration).
/// Every Ship posts the filled registered buffer; the message lands in the
/// destination's receive ring, where the (simulated) receiver core copies it
/// into partition storage and reposts the receive buffer.
class RdmaChannelImpl : public Channel {
 public:
  RdmaChannelImpl(TransportNetwork* net, uint32_t src) : net_(net), src_(src) {}

  uint64_t payload_offset() const override { return kWireHeaderBytes; }

  StatusOr<uint64_t> Ship(uint32_t dst, uint32_t partition, uint32_t relation,
                          RegisteredBuffer* buf, ShipReport* report) override;

 private:
  /// One send attempt: post the WR and drain the sender-side completion.
  /// `*completed` is false when no completion arrived (dropped message),
  /// `*succeeded` is false when the completion carried an error status.
  Status TrySend(QueuePair* qp, CompletionQueue* cq, RegisteredBuffer* buf,
                 uint64_t wire_bytes, bool* completed, bool* succeeded);

  TransportNetwork* net_;
  uint32_t src_;
  /// Zero-based ordinal of the next send attempt on this channel; the fault
  /// schedule keys QP faults off it, so retries consume ordinals too.
  uint64_t sends_attempted_ = 0;
};

/// One-sided WRITE channel (memory semantics, Section 4.2.2): the sender
/// writes directly into a large preregistered staging region on the
/// destination machine, at offsets derived from the histogram exchange. The
/// remote CPU is never involved.
class RdmaMemoryImpl : public Channel {
 public:
  RdmaMemoryImpl(TransportNetwork* net, uint32_t src) : net_(net), src_(src) {}

  // The buffer layout is uniform across transports (header space up front);
  // one-sided writes simply skip the header on the wire.
  uint64_t payload_offset() const override { return kWireHeaderBytes; }

  StatusOr<uint64_t> Ship(uint32_t dst, uint32_t partition, uint32_t relation,
                          RegisteredBuffer* buf, ShipReport* report) override;

 private:
  TransportNetwork* net_;
  uint32_t src_;
};

/// Placeholder channel for the RDMA READ (pull) transport: the exchange
/// pulls through TransportNetwork::device() queue pairs directly, so pushing
/// through Ship is a contract violation.
class PullChannelStub : public Channel {
 public:
  uint64_t payload_offset() const override { return kWireHeaderBytes; }
  StatusOr<uint64_t> Ship(uint32_t, uint32_t, uint32_t, RegisteredBuffer*,
                          ShipReport*) override {
    return Status::FailedPrecondition(
        "the RDMA READ transport is receiver-driven; Ship is unavailable");
  }
};

/// TCP/IPoIB channel: the payload is copied through an intermediate "socket
/// buffer" (the kernel copy the paper's Figure 5b discussion highlights)
/// before reaching the destination.
class TcpChannelImpl : public Channel {
 public:
  TcpChannelImpl(TransportNetwork* net, uint32_t src, uint64_t buffer_bytes)
      : net_(net), src_(src), socket_buffer_(new uint8_t[buffer_bytes]) {}

  uint64_t payload_offset() const override { return kWireHeaderBytes; }

  StatusOr<uint64_t> Ship(uint32_t dst, uint32_t partition, uint32_t relation,
                          RegisteredBuffer* buf, ShipReport* report) override;

 private:
  TransportNetwork* net_;
  uint32_t src_;
  std::unique_ptr<uint8_t[]> socket_buffer_;
};

Status RdmaChannelImpl::TrySend(QueuePair* qp, CompletionQueue* cq,
                                RegisteredBuffer* buf, uint64_t wire_bytes,
                                bool* completed, bool* succeeded) {
  *completed = false;
  *succeeded = false;
  // Arm the scheduled fault (if any) for this attempt before posting, so the
  // queue pair fails the work request with verbs semantics: an error
  // completion flips the QP to the error state, a drop never completes.
  const FaultInjector* inj = net_->config_.fault_injector;
  if (inj != nullptr && inj->active()) {
    switch (inj->QuerySendFault(src_, sends_attempted_)) {
      case FaultInjector::SendFault::kNone:
        break;
      case FaultInjector::SendFault::kCompletionError:
        qp->InjectSendFaults(1, /*drop=*/false);
        break;
      case FaultInjector::SendFault::kDrop:
        qp->InjectSendFaults(1, /*drop=*/true);
        break;
    }
  }
  ++sends_attempted_;
  RDMAJOIN_RETURN_IF_ERROR(qp->PostSend(/*wr_id=*/0, buf->mr.lkey,
                                        /*offset=*/0, wire_bytes));
  // Drain the sender-side completion (instantaneous in the data-path
  // simulation; the virtual completion time comes from the timing replay).
  WorkCompletion send_wc;
  *completed = cq->PollOne(&send_wc);
  *succeeded = *completed && send_wc.success;
  return Status::OK();
}

StatusOr<uint64_t> RdmaChannelImpl::Ship(uint32_t dst, uint32_t partition,
                                         uint32_t relation, RegisteredBuffer* buf,
                                         ShipReport* report) {
  if (dst == src_) return Status::InvalidArgument("Ship to self");
  auto& link = net_->link(src_, dst);
  // Finalize the wire header in front of the payload.
  WireHeader header;
  header.partition = partition;
  header.relation = relation;
  header.payload_bytes = buf->used;
  WriteWireHeader(buf->bytes(), header);
  const uint64_t wire_bytes = kWireHeaderBytes + buf->used;

  const JoinConfig& cfg = net_->config_;
  MetricsRegistry* metrics = cfg.metrics;
  uint32_t retries = 0;
  double delay_seconds = 0;
  for (;;) {
    bool completed = false;
    bool succeeded = false;
    RDMAJOIN_RETURN_IF_ERROR(TrySend(link.src_qp.get(), link.src_send_cq.get(),
                                     buf, wire_bytes, &completed, &succeeded));
    if (succeeded) break;
    // The attempt failed: either an error completion arrived (the QP is now
    // in the error state) or the message was swallowed and the sender timed
    // out waiting. Either way the receive ring slot was NOT consumed, so a
    // re-post is credit-safe; on abort the caller keeps ownership of `buf`.
    if (metrics != nullptr) {
      metrics->GetCounter(completed ? "fault.send_errors" : "fault.send_timeouts")
          ->Increment();
    }
    if (!completed) delay_seconds += cfg.send_timeout_seconds;
    const bool abort = cfg.fault_policy == FaultPolicy::kAbort ||
                       retries >= cfg.max_send_retries;
    if (abort) {
      if (metrics != nullptr) metrics->GetCounter("fault.send_aborts")->Increment();
      return Status::Unavailable(
          (completed ? "send failed with an error completion"
                     : "send timed out (no completion)") +
          std::string(" on link ") + std::to_string(src_) + "->" +
          std::to_string(dst) + " after " + std::to_string(retries) +
          " retr" + (retries == 1 ? "y" : "ies"));
    }
    // Recover: cycle an errored queue pair back to ready and re-post after
    // exponential backoff (2^i * retry_backoff_seconds of virtual time).
    if (link.src_qp->state() == QueuePair::State::kError) {
      link.src_qp->Recover();
      if (metrics != nullptr) metrics->GetCounter("fault.qp_recoveries")->Increment();
    }
    delay_seconds +=
        cfg.retry_backoff_seconds * static_cast<double>(uint64_t{1} << retries);
    ++retries;
    if (metrics != nullptr) metrics->GetCounter("fault.send_retries")->Increment();
  }
  if (report != nullptr) {
    report->retries = retries;
    report->delay_seconds = delay_seconds;
  }

  // Receiver side: poll the receive completion, copy the payload out of the
  // ring into partition storage, and repost the receive buffer.
  WorkCompletion recv_wc;
  if (!link.dst_recv_cq->PollOne(&recv_wc) || !recv_wc.success) {
    return Status::Internal("missing receive completion");
  }
  const uint64_t ring_slot = recv_wc.wr_id;
  const uint8_t* msg = link.recv_ring.get() + ring_slot * net_->buffer_bytes_;
  const WireHeader rx = ReadWireHeader(msg);
  if (rx.payload_bytes != buf->used) {
    return Status::Internal("wire header payload size mismatch");
  }
  RDMAJOIN_RETURN_IF_ERROR(net_->sinks_[dst]->Deliver(
      rx.partition, rx.relation, msg + kWireHeaderBytes, rx.payload_bytes));
  net_->stats_.recv_bytes[dst] += rx.payload_bytes;
  ++net_->stats_.recv_messages[dst];
  RDMAJOIN_RETURN_IF_ERROR(link.dst_qp->PostRecv(ring_slot, link.recv_mr.lkey,
                                                 ring_slot * net_->buffer_bytes_,
                                                 net_->buffer_bytes_));
  // The virtual traffic accounting excludes the header (negligible at full
  // scale; see JoinConfig::ActualRdmaBufferBytes).
  (void)wire_bytes;
  return buf->used;
}

StatusOr<uint64_t> RdmaMemoryImpl::Ship(uint32_t dst, uint32_t partition,
                                        uint32_t relation, RegisteredBuffer* buf,
                                        ShipReport* /*report*/) {
  if (dst == src_) return Status::InvalidArgument("Ship to self");
  auto& staging = net_->staging_[dst];
  uint64_t& cursor = staging.cursor[src_];
  if (cursor + buf->used > staging.base[src_ + 1]) {
    return Status::Internal("one-sided staging region overflow: histogram mismatch");
  }
  auto& link = net_->link(src_, dst);
  RDMAJOIN_RETURN_IF_ERROR(link.src_qp->PostWrite(/*wr_id=*/0, buf->mr.lkey,
                                                  /*local_offset=*/kWireHeaderBytes,
                                                  staging.mr.rkey, cursor, buf->used));
  WorkCompletion wc;
  if (!link.src_send_cq->PollOne(&wc) || !wc.success) {
    return Status::Internal("missing write completion");
  }
  // The data now sits in its destination region; hand it to the partition
  // store. (The real system would leave it in place; the copy here is a
  // data-path convenience with no virtual-time cost, since memory semantics
  // involve no receiver work.)
  RDMAJOIN_RETURN_IF_ERROR(net_->sinks_[dst]->Deliver(
      partition, relation, staging.data.get() + cursor, buf->used));
  cursor += buf->used;
  return buf->used;
}

StatusOr<uint64_t> TcpChannelImpl::Ship(uint32_t dst, uint32_t partition,
                                        uint32_t relation, RegisteredBuffer* buf,
                                        ShipReport* /*report*/) {
  if (dst == src_) return Status::InvalidArgument("Ship to self");
  // Kernel copy into the socket buffer, then delivery on the remote side
  // (which again copies, accounted as receive bytes).
  const uint64_t wire_bytes = kWireHeaderBytes + buf->used;
  WireHeader header;
  header.partition = partition;
  header.relation = relation;
  header.payload_bytes = buf->used;
  WriteWireHeader(buf->bytes(), header);
  std::memcpy(socket_buffer_.get(), buf->bytes(), wire_bytes);
  const WireHeader rx = ReadWireHeader(socket_buffer_.get());
  RDMAJOIN_RETURN_IF_ERROR(net_->sinks_[dst]->Deliver(
      rx.partition, rx.relation, socket_buffer_.get() + kWireHeaderBytes,
      rx.payload_bytes));
  net_->stats_.recv_bytes[dst] += rx.payload_bytes;
  ++net_->stats_.recv_messages[dst];
  return buf->used;
}

TransportNetwork::~TransportNetwork() {
  // Deregister staging regions before devices go away.
  for (size_t m = 0; m < staging_.size(); ++m) {
    if (staging_[m].data != nullptr) {
      // lint: discard-ok(destructor teardown; validator reports any leak)
      (void)devices_[m]->DeregisterMemory(staging_[m].mr);
    }
  }
  for (auto& l : links_) {
    if (l.recv_ring != nullptr && l.dst_qp != nullptr) {
      // lint: discard-ok(destructor teardown; validator reports any leak)
      (void)l.dst_qp->device()->DeregisterMemory(l.recv_mr);
    }
  }
  links_.clear();
  staging_.clear();
  for (size_t m = 0; m < memories_.size(); ++m) {
    if (memories_[m] != nullptr && reserved_bytes_[m] > 0) {
      memories_[m]->Release(reserved_bytes_[m]);
    }
  }
}

StatusOr<std::unique_ptr<TransportNetwork>> TransportNetwork::Create(
    const ClusterConfig& cluster, const JoinConfig& config, uint32_t tuple_bytes,
    const std::vector<std::vector<uint64_t>>& incoming_bytes,
    std::vector<PartitionSink*> sinks, std::vector<MemorySpace*> memories) {
  auto net = std::unique_ptr<TransportNetwork>(new TransportNetwork());
  RDMAJOIN_RETURN_IF_ERROR(net->Init(cluster, config, tuple_bytes, incoming_bytes,
                                     std::move(sinks), std::move(memories)));
  return net;
}

Status TransportNetwork::Init(const ClusterConfig& cluster, const JoinConfig& config,
                              uint32_t tuple_bytes,
                              const std::vector<std::vector<uint64_t>>& incoming_bytes,
                              std::vector<PartitionSink*> sinks,
                              std::vector<MemorySpace*> memories) {
  cluster_ = cluster;
  config_ = config;
  // Full buffer size: payload capacity plus header space.
  buffer_bytes_ = config.ActualRdmaBufferBytes(tuple_bytes) + kWireHeaderBytes;
  sinks_ = std::move(sinks);
  memories_ = std::move(memories);
  const uint32_t nm = cluster.num_machines;
  if (sinks_.size() != nm || memories_.size() != nm) {
    return Status::InvalidArgument("need one sink and one memory space per machine");
  }
  stats_.setup_registration_seconds.assign(nm, 0.0);
  stats_.recv_bytes.assign(nm, 0);
  stats_.recv_messages.assign(nm, 0);
  reserved_bytes_.assign(nm, 0);

  devices_.reserve(nm);
  for (uint32_t m = 0; m < nm; ++m) {
    devices_.push_back(std::make_unique<RdmaDevice>(m, memories_[m], cluster.costs,
                                                    config.scale_up));
    devices_.back()->set_validator(config.validator);
    devices_.back()->set_event_sink(config.span_recorder);
    if (config.metrics != nullptr) {
      devices_.back()->EnableMetrics(config.metrics,
                                     "rdma.dev" + std::to_string(m));
    }
  }

  auto reserve = [&](uint32_t m, uint64_t actual_bytes) -> Status {
    if (memories_[m] == nullptr) return Status::OK();
    const uint64_t virt = static_cast<uint64_t>(
        static_cast<double>(actual_bytes) * config_.scale_up);
    RDMAJOIN_RETURN_IF_ERROR(memories_[m]->Reserve(virt));
    reserved_bytes_[m] += virt;
    return Status::OK();
  };

  // Queue pairs for every ordered machine pair (RDMA transports only).
  const bool uses_verbs = cluster.transport != TransportKind::kTcp;
  links_.resize(static_cast<size_t>(nm) * nm);
  if (uses_verbs) {
    for (uint32_t s = 0; s < nm; ++s) {
      for (uint32_t d = 0; d < nm; ++d) {
        if (s == d) continue;
        Link& l = link(s, d);
        // With a validator attached the CQs are bounded like real hardware
        // CQs, so an undrained queue surfaces as a cq-overflow violation.
        // The data path drains one completion per Ship, so a depth of ring
        // size + slack never overflows in a conforming run.
        const size_t cq_capacity =
            config.validator == nullptr
                ? 0
                : static_cast<size_t>(config.recv_buffers_per_link) + 2;
        l.src_send_cq = std::make_unique<CompletionQueue>(cq_capacity);
        l.src_recv_cq = std::make_unique<CompletionQueue>(cq_capacity);
        l.dst_send_cq = std::make_unique<CompletionQueue>(cq_capacity);
        l.dst_recv_cq = std::make_unique<CompletionQueue>(cq_capacity);
        if (config.span_recorder != nullptr) {
          l.src_send_cq->set_event_sink(config.span_recorder, s);
          l.src_recv_cq->set_event_sink(config.span_recorder, s);
          l.dst_send_cq->set_event_sink(config.span_recorder, d);
          l.dst_recv_cq->set_event_sink(config.span_recorder, d);
        }
        l.src_qp = std::make_unique<QueuePair>(devices_[s].get(), l.src_send_cq.get(),
                                               l.src_recv_cq.get());
        l.dst_qp = std::make_unique<QueuePair>(devices_[d].get(), l.dst_send_cq.get(),
                                               l.dst_recv_cq.get());
        RDMAJOIN_RETURN_IF_ERROR(QueuePair::Connect(l.src_qp.get(), l.dst_qp.get()));
      }
    }
  }

  switch (cluster.transport) {
    case TransportKind::kRdmaChannel: {
      // Receive rings: recv_buffers_per_link small registered buffers per
      // incoming link (Section 4.2.2, limited-memory configuration).
      for (uint32_t s = 0; s < nm; ++s) {
        for (uint32_t d = 0; d < nm; ++d) {
          if (s == d) continue;
          Link& l = link(s, d);
          l.recv_depth = config_.recv_buffers_per_link;
          const uint64_t ring_bytes = l.recv_depth * buffer_bytes_;
          RDMAJOIN_RETURN_IF_ERROR(reserve(d, ring_bytes));
          l.recv_ring = std::make_unique<uint8_t[]>(ring_bytes);
          auto mr = devices_[d]->RegisterMemory(l.recv_ring.get(), ring_bytes);
          RDMAJOIN_RETURN_IF_ERROR(mr.status());
          l.recv_mr = *mr;
          for (uint32_t i = 0; i < l.recv_depth; ++i) {
            RDMAJOIN_RETURN_IF_ERROR(l.dst_qp->PostRecv(
                i, l.recv_mr.lkey, i * buffer_bytes_, buffer_bytes_));
          }
        }
      }
      for (uint32_t m = 0; m < nm; ++m) {
        channels_.push_back(std::make_unique<RdmaChannelImpl>(this, m));
      }
      break;
    }
    case TransportKind::kRdmaMemory: {
      // One large staging region per destination, sized from the histogram
      // exchange, registered up front. The registration of these large
      // regions is what memory semantics pay for skipping the receiver.
      if (incoming_bytes.size() != nm) {
        return Status::InvalidArgument(
            "one-sided transport needs expected incoming sizes per machine");
      }
      staging_.resize(nm);
      for (uint32_t d = 0; d < nm; ++d) {
        StagingRegion& sr = staging_[d];
        sr.base.assign(nm + 1, 0);
        for (uint32_t s = 0; s < nm; ++s) {
          sr.base[s + 1] = sr.base[s] + (s == d ? 0 : incoming_bytes[d][s]);
        }
        sr.capacity = sr.base[nm];
        sr.cursor = sr.base;
        sr.cursor.resize(nm);
        if (sr.capacity == 0) continue;
        RDMAJOIN_RETURN_IF_ERROR(reserve(d, sr.capacity));
        sr.data = std::make_unique<uint8_t[]>(sr.capacity);
        auto mr = devices_[d]->RegisterMemory(sr.data.get(), sr.capacity);
        RDMAJOIN_RETURN_IF_ERROR(mr.status());
        sr.mr = *mr;
        const uint64_t virt_bytes = static_cast<uint64_t>(
            static_cast<double>(sr.capacity) * config_.scale_up);
        stats_.setup_registration_seconds[d] +=
            cluster.costs.RegistrationSeconds(virt_bytes);
      }
      // All senders write through the destination's staging rkey; the
      // queue pairs above provide the one-sided path.
      for (uint32_t m = 0; m < nm; ++m) {
        channels_.push_back(std::make_unique<RdmaMemoryImpl>(this, m));
      }
      break;
    }
    case TransportKind::kRdmaRead: {
      // The pull path drives the queue pairs directly from the exchange;
      // only the connected QP mesh built above is needed.
      for (uint32_t m = 0; m < nm; ++m) {
        channels_.push_back(std::make_unique<PullChannelStub>());
      }
      break;
    }
    case TransportKind::kTcp: {
      for (uint32_t m = 0; m < nm; ++m) {
        channels_.push_back(
            std::make_unique<TcpChannelImpl>(this, m, buffer_bytes_ * 2));
      }
      break;
    }
  }
  return Status::OK();
}

}  // namespace rdmajoin
