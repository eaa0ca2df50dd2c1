#include "join/exchange.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "join/histogram.h"
#include "rdma/buffer_pool.h"
#include "transport/wire_format.h"

namespace rdmajoin {

namespace {

/// Runs `fn` when the scope exits, on success and error paths alike. Used to
/// guarantee staging regions are deregistered before their device goes away.
template <typename Fn>
class ScopeExit {
 public:
  explicit ScopeExit(Fn fn) : fn_(std::move(fn)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { fn_(); }

 private:
  Fn fn_;
};

Status HistogramMismatch(uint32_t partition, uint32_t relation,
                         const std::string& what) {
  return Status::Internal("partition " + std::to_string(partition) + " relation " +
                          std::to_string(relation) + ": " + what +
                          ": histogram mismatch");
}

/// The per-tuple loop of one partitioning thread over chunk tuples
/// [lo, hi): partitions each tuple with the concrete `part` and copies it
/// to the next free slot of its partition's window. `refill(p, i)` runs
/// before a write into an exhausted window and `filled(p, i)` after a write
/// exhausts one, `i` being the tuple at hand. kWidth == 0 means the
/// chunk's runtime tuple width.
template <uint32_t kWidth, typename Part, typename Refill, typename Filled>
Status ScanTuples(const Relation& chunk, uint64_t lo, uint64_t hi, const Part& part,
                  WriteWindow* windows, Refill& refill, Filled& filled) {
  const uint32_t width = kWidth != 0 ? kWidth : chunk.tuple_bytes();
  const uint8_t* t = chunk.TupleAt(lo);
  for (uint64_t i = lo; i < hi; ++i, t += width) {
    uint64_t key;
    std::memcpy(&key, t + kKeyOffset, sizeof(key));
    const uint32_t p = part.PartitionOf(key);
    WriteWindow& w = windows[p];
    if (w.next == w.end) RDMAJOIN_RETURN_IF_ERROR(refill(p, i));
    std::memcpy(w.next, t, width);
    w.next += width;
    if (w.next == w.end) RDMAJOIN_RETURN_IF_ERROR(filled(p, i));
  }
  return Status::OK();
}

/// ScanTuples over the partitioner's concrete type, with a 16 B fast path.
template <typename Refill, typename Filled>
Status Scan(const Partitioner& partitioner, const Relation& chunk, uint64_t lo,
            uint64_t hi, WriteWindow* windows, Refill& refill, Filled& filled) {
  return VisitPartitioner(partitioner, [&](const auto& part) {
    if (chunk.tuple_bytes() == kNarrowTupleBytes) {
      return ScanTuples<kNarrowTupleBytes>(chunk, lo, hi, part, windows, refill,
                                           filled);
    }
    return ScanTuples<0>(chunk, lo, hi, part, windows, refill, filled);
  });
}

}  // namespace

PartitionStore::PartitionStore(uint32_t tuple_bytes, uint32_t num_partitions,
                               uint32_t num_relations)
    : tuple_bytes_(tuple_bytes),
      num_relations_(num_relations),
      slots_(static_cast<size_t>(num_partitions) * num_relations,
             Slot{Relation(tuple_bytes), 0}),
      prepared_(num_partitions, false) {}

void PartitionStore::Prepare(uint32_t partition,
                             const std::vector<uint64_t>& tuples_per_relation) {
  assert(tuples_per_relation.size() == num_relations_);
  for (uint32_t r = 0; r < num_relations_; ++r) {
    Slot& slot = At(partition, r);
    slot.rel = Relation(tuple_bytes_);
    slot.rel.Reserve(tuples_per_relation[r]);
    slot.expected = tuples_per_relation[r];
  }
  prepared_[partition] = true;
}

Status PartitionStore::Deliver(uint32_t partition, uint32_t relation,
                               const uint8_t* tuples, uint64_t bytes) {
  if (partition >= prepared_.size() || !prepared_[partition] ||
      relation >= num_relations_) {
    return HistogramMismatch(partition, relation,
                             "delivery to a slot this machine does not own");
  }
  if (bytes % tuple_bytes_ != 0) {
    return HistogramMismatch(partition, relation,
                             "delivery of " + std::to_string(bytes) +
                                 " bytes is not a whole number of tuples");
  }
  Slot& slot = At(partition, relation);
  const uint64_t n = bytes / tuple_bytes_;
  if (n > slot.expected - slot.rel.num_tuples()) {
    return HistogramMismatch(partition, relation,
                             "delivery past the global count of " +
                                 std::to_string(slot.expected) + " tuples");
  }
  if (n > 0) std::memcpy(slot.rel.ExtendUninitialized(n), tuples, bytes);
  return Status::OK();
}

WriteWindow PartitionStore::OpenWindow(uint32_t partition, uint32_t relation) {
  Slot& slot = At(partition, relation);
  const uint64_t room = slot.expected - slot.rel.num_tuples();
  uint8_t* first = slot.rel.ExtendUninitialized(room);
  return {first, first + room * tuple_bytes_};
}

void PartitionStore::CloseWindow(uint32_t partition, uint32_t relation,
                                 const WriteWindow& window) {
  Relation& rel = At(partition, relation).rel;
  rel.Truncate(static_cast<uint64_t>(window.next - rel.data()) / tuple_bytes_);
}

Status PartitionStore::CheckFilled() const {
  for (uint32_t p = 0; p < prepared_.size(); ++p) {
    if (!prepared_[p]) continue;
    for (uint32_t r = 0; r < num_relations_; ++r) {
      const Slot& slot = At(p, r);
      if (slot.rel.num_tuples() != slot.expected) {
        return HistogramMismatch(p, r,
                                 "holds " + std::to_string(slot.rel.num_tuples()) +
                                     " of its " + std::to_string(slot.expected) +
                                     " tuples after the pass");
      }
    }
  }
  return Status::OK();
}

Relation& PartitionStore::Rel(uint32_t partition, uint32_t relation) {
  assert(partition < prepared_.size());
  assert(prepared_[partition] && "slot of an unassigned partition");
  assert(relation < num_relations_);
  return At(partition, relation).rel;
}

ScopedReservation::~ScopedReservation() {
  if (space_ != nullptr && bytes_ > 0) space_->Release(bytes_);
}

Status ScopedReservation::Add(uint64_t bytes) {
  RDMAJOIN_RETURN_IF_ERROR(space_->Reserve(bytes));
  bytes_ += bytes;
  return Status::OK();
}

Exchange::Exchange(const ClusterConfig& cluster, const JoinConfig& config,
                   const Partitioner* partitioner, std::vector<uint32_t> assignment,
                   std::vector<std::vector<uint64_t>> global_counts,
                   std::vector<std::vector<std::vector<uint64_t>>> machine_counts)
    : cluster_(cluster),
      config_(config),
      partitioner_(partitioner),
      assignment_(std::move(assignment)),
      global_counts_(std::move(global_counts)),
      machine_counts_(std::move(machine_counts)) {}

StatusOr<Exchange::Result> Exchange::Run(
    const std::vector<const DistributedRelation*>& inputs,
    std::vector<MemorySpace*> memories, std::vector<ScopedReservation*> reservations,
    RunTrace* trace) {
  const uint32_t nm = cluster_.num_machines;
  const uint32_t parts = partitioner_->num_partitions();
  const uint32_t num_relations = static_cast<uint32_t>(inputs.size());
  if (num_relations == 0) return Status::InvalidArgument("no input relations");
  if (assignment_.size() != parts || global_counts_.size() != num_relations) {
    return Status::InvalidArgument("assignment/global count shape mismatch");
  }
  if (memories.size() != nm || reservations.size() != nm) {
    return Status::InvalidArgument(
        "one memory space and one reservation per machine required");
  }
  if (trace == nullptr || trace->machines.size() != nm) {
    return Status::InvalidArgument("trace must carry one MachineTrace per machine");
  }
  const uint32_t tuple_bytes = inputs[0]->tuple_bytes();
  for (const auto* rel : inputs) {
    if (rel->chunks.size() != nm) {
      return Status::InvalidArgument("inputs must be fragmented over all machines");
    }
    if (rel->tuple_bytes() != tuple_bytes) {
      return Status::InvalidArgument("inputs must share one tuple width");
    }
  }
  // The one-sided transports size their staging from per-machine
  // histograms; scan the inputs for them only if the caller has none.
  if (machine_counts_.empty() && (cluster_.transport == TransportKind::kRdmaMemory ||
                                  cluster_.transport == TransportKind::kRdmaRead)) {
    for (const auto* rel : inputs) {
      machine_counts_.push_back(ComputeHistogramsWith(*rel, *partitioner_).per_machine);
    }
  }
  if (!machine_counts_.empty()) {
    bool shaped = machine_counts_.size() == num_relations;
    for (const auto& per_machine : machine_counts_) {
      shaped = shaped && per_machine.size() == nm;
      for (const auto& counts : per_machine) shaped = shaped && counts.size() == parts;
    }
    if (!shaped) return Status::InvalidArgument("per-machine count shape mismatch");
  }
  const double scale = config_.scale_up;
  auto virt = [scale](uint64_t actual) {
    return static_cast<uint64_t>(static_cast<double>(actual) * scale);
  };

  Result result;
  // ---- Partition stores, sized from the (exchanged) global histogram. ----
  for (uint32_t m = 0; m < nm; ++m) {
    result.stores.push_back(
        std::make_unique<PartitionStore>(tuple_bytes, parts, num_relations));
  }
  for (uint32_t p = 0; p < parts; ++p) {
    const uint32_t m = assignment_[p];
    std::vector<uint64_t> counts(num_relations);
    uint64_t total = 0;
    for (uint32_t r = 0; r < num_relations; ++r) {
      counts[r] = global_counts_[r][p];
      total += counts[r];
    }
    result.stores[m]->Prepare(p, counts);
    RDMAJOIN_RETURN_IF_ERROR(reservations[m]->Add(virt(total * tuple_bytes)));
  }

  // Expected incoming volume per (dst, src) sizes the one-sided WRITE
  // staging regions; it comes from per-machine histograms of the inputs.
  std::vector<std::vector<uint64_t>> incoming_bytes;
  if (cluster_.transport == TransportKind::kRdmaMemory) {
    incoming_bytes.assign(nm, std::vector<uint64_t>(nm, 0));
    for (const auto& per_machine : machine_counts_) {
      for (uint32_t src = 0; src < nm; ++src) {
        for (uint32_t p = 0; p < parts; ++p) {
          const uint32_t dst = assignment_[p];
          if (dst != src) incoming_bytes[dst][src] += per_machine[src][p] * tuple_bytes;
        }
      }
    }
  }

  std::vector<PartitionSink*> sinks;
  for (auto& store : result.stores) sinks.push_back(store.get());
  auto network = TransportNetwork::Create(cluster_, config_, tuple_bytes,
                                          incoming_bytes, sinks, memories);
  RDMAJOIN_RETURN_IF_ERROR(network.status());
  TransportNetwork& net = **network;
  RDMAJOIN_RETURN_IF_ERROR(cluster_.transport == TransportKind::kRdmaRead
                               ? RunPull(inputs, reservations, net, trace, &result)
                               : RunPush(inputs, reservations, net, trace, &result));
  // Every slot was sized from the global histogram; one that is not full
  // now was promised tuples that never came.
  for (const auto& store : result.stores) {
    RDMAJOIN_RETURN_IF_ERROR(store->CheckFilled());
  }

  // Bookkeeping for the replay and the caller.
  for (uint32_t m = 0; m < nm; ++m) {
    trace->machines[m].recv_bytes = net.stats().recv_bytes[m];
    trace->machines[m].recv_messages = net.stats().recv_messages[m];
    for (const auto& tt : trace->machines[m].net_threads) {
      for (const auto& send : tt.sends) {
        result.virtual_wire_bytes += static_cast<double>(send.wire_bytes) * scale;
      }
      result.messages_sent += tt.sends.size();
    }
    result.max_setup_registration_seconds =
        std::max(result.max_setup_registration_seconds,
                 trace->machines[m].setup_registration_seconds);
  }
  return result;
}

Status Exchange::RunPush(const std::vector<const DistributedRelation*>& inputs,
                         std::vector<ScopedReservation*> reservations,
                         TransportNetwork& net, RunTrace* trace, Result* result) {
  const uint32_t nm = cluster_.num_machines;
  const uint32_t parts = partitioner_->num_partitions();
  const uint32_t num_relations = static_cast<uint32_t>(inputs.size());
  const uint32_t tuple_bytes = inputs[0]->tuple_bytes();
  const double scale = config_.scale_up;
  auto virt = [scale](uint64_t actual) {
    return static_cast<uint64_t>(static_cast<double>(actual) * scale);
  };

  // ---- The pass itself (Section 4.2.1). ----
  const uint64_t payload_capacity = config_.ActualRdmaBufferBytes(tuple_bytes);
  const uint64_t buffer_bytes = payload_capacity + kWireHeaderBytes;
  // A buffer ships as soon as it cannot take another tuple.
  const uint64_t buffer_tuples = payload_capacity / tuple_bytes;
  const uint64_t buffer_tuple_bytes = buffer_tuples * tuple_bytes;
  const uint32_t threads = cluster_.PartitioningThreads();
  uint32_t remote_parts_max = 0;
  for (uint32_t m = 0; m < nm; ++m) {
    uint32_t remote = 0;
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] != m) ++remote;
    }
    remote_parts_max = std::max(remote_parts_max, remote);
  }
  const double per_send_reg_seconds =
      config_.preregister_buffers
          ? 0.0
          : cluster_.costs.RegistrationSeconds(virt(payload_capacity)) +
                cluster_.costs.DeregistrationSeconds(virt(payload_capacity));

  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = trace->machines[m];
    mt.setup_registration_seconds = net.stats().setup_registration_seconds[m];
    mt.per_send_registration_seconds = per_send_reg_seconds;
    mt.net_threads.resize(threads);

    // RDMA-buffer budget: buffers_per_partition buffers per thread and
    // remote partition (Figure 2).
    if (nm > 1 && remote_parts_max > 0) {
      RDMAJOIN_RETURN_IF_ERROR(reservations[m]->Add(
          static_cast<uint64_t>(threads) * remote_parts_max *
          config_.buffers_per_partition * virt(payload_capacity)));
    }

    RegisteredBufferPool pool(net.device(m), buffer_bytes,
                              config_.preregister_buffers
                                  ? RegisteredBufferPool::Policy::kPooled
                                  : RegisteredBufferPool::Policy::kRegisterOnDemand);
    Channel* channel = net.channel(m);
    const uint64_t payload_offset = channel->payload_offset();

    // windows[rel][p]: a local partition's window is its store slot, open
    // for this machine's whole scan (Ship never targets the sender, so no
    // delivery lands there meanwhile); a remote partition's window is the
    // RDMA buffer it is filling, empty when it holds none.
    PartitionStore& store = *result->stores[m];
    std::vector<std::vector<WriteWindow>> windows(num_relations,
                                                  std::vector<WriteWindow>(parts));
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] != m) continue;
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        windows[rel][p] = store.OpenWindow(p, rel);
      }
    }

    for (uint32_t t = 0; t < threads; ++t) {
      ThreadNetTrace& tt = mt.net_threads[t];
      std::vector<RegisteredBuffer*> slot(parts, nullptr);
      // A mid-pass abort (Ship or Acquire error below) must hand every buffer
      // still held in `slot` back to the pool exactly once, or the pool's
      // teardown reports them as buffer leaks. Successful paths null their
      // slot entries first, so this is a no-op for them.
      ScopeExit release_slots([&slot, &pool] {
        for (RegisteredBuffer*& b : slot) {
          if (b != nullptr) {
            // lint: discard-ok(cleanup on scope exit; leak shows up in teardown report)
            (void)pool.Release(b);
            b = nullptr;
          }
        }
      });

      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        WriteWindow* window = windows[rel].data();
        auto ship_slot = [&](uint32_t p) -> Status {
          RegisteredBuffer* buf = slot[p];
          if (buf == nullptr) return Status::OK();
          buf->used = static_cast<uint64_t>(window[p].next -
                                            (buf->bytes() + payload_offset));
          slot[p] = nullptr;
          window[p] = WriteWindow{};
          ShipReport ship_report;
          auto wire = channel->Ship(assignment_[p], p, rel, buf, &ship_report);
          if (!wire.ok()) {
            // The payload never reached the destination; give the buffer's
            // credit back before propagating the (clean) abort status.
            // lint: discard-ok(credit return on abort path; original status propagates)
            (void)pool.Release(buf);
            return wire.status();
          }
          SendRecord send{assignment_[p], p, *wire, tt.compute_bytes};
          send.retries = ship_report.retries;
          send.retry_delay_seconds = ship_report.delay_seconds;
          tt.sends.push_back(send);
          return pool.Release(buf);
        };

        const Relation& chunk = inputs[rel]->chunks[m];
        const uint64_t n = chunk.num_tuples();
        const uint64_t lo = n * t / threads;
        const uint64_t hi = n * (t + 1) / threads;
        const uint64_t compute_base = tt.compute_bytes;
        // The slice ships at most one buffer per buffer_tuples tuples plus
        // one flush per partition, so its sends never reallocate the trace.
        // The next relation's reserve reallocates once, which copies these
        // sends but drops their unused reserve; reserving for every relation
        // up front would keep that slack for the whole run.
        tt.sends.reserve(tt.sends.size() + (hi - lo) / buffer_tuples + parts);
        auto refill = [&](uint32_t p, uint64_t) -> Status {
          if (assignment_[p] == m) {
            return HistogramMismatch(p, rel, "more local tuples than the global count");
          }
          auto buf = pool.Acquire();
          RDMAJOIN_RETURN_IF_ERROR(buf.status());
          slot[p] = *buf;
          uint8_t* first = (*buf)->bytes() + payload_offset;
          window[p] = {first, first + buffer_tuple_bytes};
          return Status::OK();
        };
        auto filled = [&](uint32_t p, uint64_t i) -> Status {
          if (assignment_[p] == m) return Status::OK();  // Slot exactly full.
          tt.compute_bytes = compute_base + (i + 1 - lo) * tuple_bytes;
          return ship_slot(p);
        };
        RDMAJOIN_RETURN_IF_ERROR(
            Scan(*partitioner_, chunk, lo, hi, window, refill, filled));
        tt.compute_bytes = compute_base + (hi - lo) * tuple_bytes;
        // Flush partially filled buffers before switching relations.
        for (uint32_t p = 0; p < parts; ++p) {
          RDMAJOIN_RETURN_IF_ERROR(ship_slot(p));
        }
      }
    }
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] != m) continue;
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        store.CloseWindow(p, rel, windows[rel][p]);
      }
    }
    result->pool_buffers_created += pool.buffers_created();
    result->pool_acquisitions += pool.acquisitions();
  }
  return Status::OK();
}

Status Exchange::RunPull(const std::vector<const DistributedRelation*>& inputs,
                         std::vector<ScopedReservation*> reservations,
                         TransportNetwork& net, RunTrace* trace, Result* result) {
  const uint32_t nm = cluster_.num_machines;
  const uint32_t parts = partitioner_->num_partitions();
  const uint32_t num_relations = static_cast<uint32_t>(inputs.size());
  const uint32_t tuple_bytes = inputs[0]->tuple_bytes();
  const double scale = config_.scale_up;
  auto virt = [scale](uint64_t actual) {
    return static_cast<uint64_t>(static_cast<double>(actual) * scale);
  };
  const uint32_t threads = cluster_.PartitioningThreads();

  // ---- Stage 1: partition into registered local staging regions. ----
  // stage[m] holds machine m's tuples for remote partitions back to back:
  // region p * num_relations + rel is the tuple range [stage_offsets[m][idx],
  // stage_offsets[m][idx + 1]), sized from machine m's own histogram.
  const size_t regions = static_cast<size_t>(parts) * num_relations;
  std::vector<Relation> stage(nm, Relation(tuple_bytes));
  std::vector<std::vector<uint64_t>> stage_offsets(nm);
  std::vector<std::vector<MemoryRegion>> stage_mrs(nm);
  // Every exit path -- including errors below, which used to leak the pinned
  // staging regions into device teardown -- deregisters whatever was
  // registered. Runs before `net` is destroyed (it outlives this call).
  ScopeExit deregister_staging([&stage_mrs, &net] {
    for (uint32_t m = 0; m < stage_mrs.size(); ++m) {
      for (const MemoryRegion& mr : stage_mrs[m]) {
        // lint: discard-ok(scope-exit teardown; validator reports any leak)
        if (mr.length > 0) (void)net.device(m)->DeregisterMemory(mr);
      }
    }
  });
  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = trace->machines[m];
    mt.net_threads.resize(threads);
    std::vector<uint64_t>& offsets = stage_offsets[m];
    offsets.assign(regions + 1, 0);
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] == m) continue;
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        offsets[p * num_relations + rel + 1] = machine_counts_[rel][m][p];
      }
    }
    for (size_t idx = 0; idx < regions; ++idx) offsets[idx + 1] += offsets[idx];
    stage[m].ExtendUninitialized(offsets[regions]);

    // Every window is fixed-size: local ones are store slots, remote ones
    // staging regions.
    PartitionStore& store = *result->stores[m];
    std::vector<std::vector<WriteWindow>> windows(num_relations,
                                                  std::vector<WriteWindow>(parts));
    for (uint32_t p = 0; p < parts; ++p) {
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        const size_t idx = static_cast<size_t>(p) * num_relations + rel;
        windows[rel][p] = assignment_[p] == m
                              ? store.OpenWindow(p, rel)
                              : WriteWindow{stage[m].TupleAt(offsets[idx]),
                                            stage[m].TupleAt(offsets[idx + 1])};
      }
    }
    for (uint32_t t = 0; t < threads; ++t) {
      ThreadNetTrace& tt = mt.net_threads[t];
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        const Relation& chunk = inputs[rel]->chunks[m];
        const uint64_t n = chunk.num_tuples();
        const uint64_t lo = n * t / threads;
        const uint64_t hi = n * (t + 1) / threads;
        auto refill = [&](uint32_t p, uint64_t) -> Status {
          return HistogramMismatch(p, rel, "more tuples than the histogram count");
        };
        auto filled = [](uint32_t, uint64_t) { return Status::OK(); };
        RDMAJOIN_RETURN_IF_ERROR(
            Scan(*partitioner_, chunk, lo, hi, windows[rel].data(), refill, filled));
        tt.compute_bytes += (hi - lo) * tuple_bytes;
      }
    }
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] != m) continue;
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        store.CloseWindow(p, rel, windows[rel][p]);
      }
    }
    RDMAJOIN_RETURN_IF_ERROR(reservations[m]->Add(virt(stage[m].size_bytes())));
    // Register every non-empty staging region with the machine's device; the
    // pull design pays its registration cost on the sender side, where the
    // one-sided WRITE design pays it on the receiver.
    stage_mrs[m].resize(regions);
    for (size_t idx = 0; idx < regions; ++idx) {
      const uint64_t region_bytes = (offsets[idx + 1] - offsets[idx]) * tuple_bytes;
      if (region_bytes == 0) continue;
      auto mr = net.device(m)->RegisterMemory(stage[m].TupleAt(offsets[idx]),
                                              region_bytes);
      RDMAJOIN_RETURN_IF_ERROR(mr.status());
      stage_mrs[m][idx] = *mr;
      mt.setup_registration_seconds +=
          cluster_.costs.RegistrationSeconds(virt(region_bytes));
    }
  }

  // ---- Stage 2: every destination pulls its partitions in chunks. ----
  const uint64_t payload_capacity = config_.ActualRdmaBufferBytes(tuple_bytes);
  const uint64_t chunk_bytes =
      std::max<uint64_t>(payload_capacity / tuple_bytes, 1) * tuple_bytes;
  for (uint32_t d = 0; d < nm; ++d) {
    MachineTrace& mt = trace->machines[d];
    RegisteredBufferPool pool(net.device(d), chunk_bytes,
                              config_.preregister_buffers
                                  ? RegisteredBufferPool::Policy::kPooled
                                  : RegisteredBufferPool::Policy::kRegisterOnDemand);
    uint32_t next_thread = 0;
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment_[p] != d) continue;
      // Assigned partitions are dealt round-robin to the pulling threads.
      ThreadNetTrace& tt = mt.net_threads[next_thread];
      next_thread = (next_thread + 1) % threads;
      for (uint32_t rel = 0; rel < num_relations; ++rel) {
        for (uint32_t s = 0; s < nm; ++s) {
          if (s == d) continue;
          const size_t idx = static_cast<size_t>(p) * num_relations + rel;
          const uint64_t region_bytes =
              (stage_offsets[s][idx + 1] - stage_offsets[s][idx]) * tuple_bytes;
          if (region_bytes == 0) continue;
          const MemoryRegion& mr = stage_mrs[s][idx];
          for (uint64_t off = 0; off < region_bytes; off += chunk_bytes) {
            const uint64_t len = std::min(chunk_bytes, region_bytes - off);
            auto buf = pool.Acquire();
            RDMAJOIN_RETURN_IF_ERROR(buf.status());
            const Status read_posted = net.reader_qp(d, s)->PostRead(
                /*wr_id=*/0, (*buf)->mr.lkey, /*local_offset=*/0, mr.rkey, off,
                len);
            if (!read_posted.ok()) {
              // Same contract as the missing-completion path below: the
              // chunk buffer goes back to the pool before the abort.
              // lint: discard-ok(buffer return on abort path; original status propagates)
              (void)pool.Release(*buf);
              return read_posted;
            }
            WorkCompletion wc;
            if (!net.reader_cq(d, s)->PollOne(&wc) || !wc.success) {
              // lint: discard-ok(buffer return on abort path; Internal status propagates)
              (void)pool.Release(*buf);
              return Status::Internal("missing read completion");
            }
            const Status delivered =
                result->stores[d]->Deliver(p, rel, (*buf)->bytes(), len);
            if (!delivered.ok()) {
              // lint: discard-ok(buffer return on abort path; original status propagates)
              (void)pool.Release(*buf);
              return delivered;
            }
            RDMAJOIN_RETURN_IF_ERROR(pool.Release(*buf));
            SendRecord read;
            read.dst_machine = d;
            read.slot = p;
            read.wire_bytes = len;
            read.compute_bytes_before = tt.compute_bytes;
            read.src_machine = s;
            tt.sends.push_back(read);
          }
        }
      }
    }
    result->pool_buffers_created += pool.buffers_created();
    result->pool_acquisitions += pool.acquisitions();
  }
  return Status::OK();
}

}  // namespace rdmajoin
