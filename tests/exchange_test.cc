#include "join/exchange.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "cluster/presets.h"
#include "join/assignment.h"
#include "join/histogram.h"
#include "join/local_partition.h"
#include "join/partitioner.h"
#include "util/bit_ops.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

// ---------- Multi-pass radix scatter ----------

TEST(MultiPassScatter, EquivalentToSinglePass) {
  Relation in(16);
  Random rng(11);
  for (int i = 0; i < 20000; ++i) in.Append(rng.Next() & 0xFFFFF, i);
  auto single = RadixScatter(in, 2, 6);
  uint32_t passes = 0;
  uint64_t moved = 0;
  auto multi = RadixScatterMultiPass(in, 2, 6, /*bits_per_pass=*/2, &passes, &moved);
  EXPECT_EQ(passes, 3u);
  EXPECT_EQ(moved, 3 * in.size_bytes());
  ASSERT_EQ(single.size(), multi.size());
  for (size_t p = 0; p < single.size(); ++p) {
    ASSERT_EQ(single[p].num_tuples(), multi[p].num_tuples()) << "partition " << p;
    // Multisets must match; multi-pass may reorder within a partition, so
    // compare key/rid sums.
    uint64_t ks = 0, km = 0, rs = 0, rm = 0;
    for (uint64_t i = 0; i < single[p].num_tuples(); ++i) {
      ks += single[p].Key(i);
      rs += single[p].Rid(i);
      km += multi[p].Key(i);
      rm += multi[p].Rid(i);
    }
    EXPECT_EQ(ks, km);
    EXPECT_EQ(rs, rm);
  }
}

TEST(MultiPassScatter, SinglePassWhenBitsFit) {
  Relation in(16);
  for (int i = 0; i < 256; ++i) in.Append(i, i);
  uint32_t passes = 0;
  auto parts = RadixScatterMultiPass(in, 0, 4, 10, &passes);
  EXPECT_EQ(passes, 1u);
  EXPECT_EQ(parts.size(), 16u);
  for (const auto& p : parts) EXPECT_EQ(p.num_tuples(), 16u);
}

TEST(MultiPassScatter, ZeroBitsIsIdentity) {
  Relation in(16);
  in.Append(5, 7);
  uint32_t passes = 9;
  auto parts = RadixScatterMultiPass(in, 0, 0, 4, &passes);
  EXPECT_EQ(passes, 0u);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].num_tuples(), 1u);
}

TEST(MultiPassScatter, UnevenPassWidths) {
  Relation in(16);
  Random rng(13);
  for (int i = 0; i < 4096; ++i) in.Append(rng.Next() & 0x7F, i);
  auto single = RadixScatter(in, 0, 7);
  auto multi = RadixScatterMultiPass(in, 0, 7, /*bits_per_pass=*/3);
  ASSERT_EQ(single.size(), multi.size());
  for (size_t p = 0; p < single.size(); ++p) {
    EXPECT_EQ(single[p].num_tuples(), multi[p].num_tuples()) << p;
  }
}

TEST(MultiPassScatter, SlicesAreByteIdenticalToStableReference) {
  for (uint32_t width : {16u, 32u, 64u}) {
    Relation in(width);
    Random rng(29);
    for (int i = 0; i < 5000; ++i) in.Append(rng.Next(), i);
    // Reference: each partition's tuples in input order.
    std::vector<Relation> want(128, Relation(width));
    for (uint64_t i = 0; i < in.num_tuples(); ++i) {
      want[RadixBits(in.Key(i), 2, 7)].AppendRaw(in.TupleAt(i), 1);
    }
    std::vector<std::vector<Relation>> candidates;
    candidates.push_back(RadixScatter(in, 2, 7));
    for (uint32_t bits_per_pass : {1u, 3u, 10u}) {
      candidates.push_back(RadixScatterMultiPass(in, 2, 7, bits_per_pass));
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      ASSERT_EQ(candidates[c].size(), want.size());
      for (size_t p = 0; p < want.size(); ++p) {
        const Relation& got = candidates[c][p];
        ASSERT_EQ(got.num_tuples(), want[p].num_tuples())
            << width << " B, candidate " << c << ", partition " << p;
        if (got.empty()) continue;
        EXPECT_EQ(std::memcmp(got.data(), want[p].data(), got.size_bytes()), 0)
            << width << " B, candidate " << c << ", partition " << p;
      }
    }
  }
}

// ---------- PartitionStore ----------

TEST(PartitionStore, PreparesAndRoutesRelations) {
  PartitionStore store(16, 8, 2);
  store.Prepare(3, {10, 20});
  EXPECT_TRUE(store.IsPrepared(3));
  EXPECT_FALSE(store.IsPrepared(2));
  Relation tuples(16);
  tuples.Append(3, 99);
  ASSERT_TRUE(store.Deliver(3, 0, tuples.data(), 16).ok());
  ASSERT_TRUE(store.Deliver(3, 1, tuples.data(), 16).ok());
  ASSERT_TRUE(store.Deliver(3, 1, tuples.data(), 16).ok());
  EXPECT_EQ(store.Rel(3, 0).num_tuples(), 1u);
  EXPECT_EQ(store.Rel(3, 1).num_tuples(), 2u);
  EXPECT_EQ(store.Rel(3, 1).Rid(0), 99u);
}

bool IsHistogramMismatch(const Status& status) {
  return status.code() == StatusCode::kInternal &&
         status.message().find("histogram mismatch") != std::string::npos;
}

TEST(PartitionStore, RejectsDeliveriesWithoutRoom) {
  PartitionStore store(16, 8, 2);
  store.Prepare(3, {2, 1});
  Relation tuples(16);
  tuples.Append(3, 1);
  tuples.Append(3, 2);
  // The (partition, relation) pair and the size come off the wire.
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(9, 0, tuples.data(), 16)));
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(2, 0, tuples.data(), 16)));
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(3, 2, tuples.data(), 16)));
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(3, 0, tuples.data(), 8)));
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(3, 1, tuples.data(), 32)));
  EXPECT_EQ(store.Rel(3, 1).num_tuples(), 0u);
  // Under-filled slots are a mismatch too, until they hold their count.
  ASSERT_TRUE(store.Deliver(3, 0, tuples.data(), 32).ok());
  EXPECT_TRUE(IsHistogramMismatch(store.CheckFilled()));
  ASSERT_TRUE(store.Deliver(3, 1, tuples.data(), 16).ok());
  EXPECT_TRUE(store.CheckFilled().ok());
  EXPECT_TRUE(IsHistogramMismatch(store.Deliver(3, 0, tuples.data(), 16)));
  EXPECT_EQ(store.Rel(3, 0).Rid(1), 2u);
}

// ---------- Exchange ----------

class ExchangeTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(ExchangeTest, RoutesEveryTupleToItsAssignedMachine) {
  const uint32_t nm = 3;
  WorkloadSpec spec;
  spec.inner_tuples = 9000;
  spec.outer_tuples = 18000;
  auto w = GenerateWorkload(spec, nm);
  ASSERT_TRUE(w.ok());

  ClusterConfig cluster = FdrCluster(nm);
  cluster.transport = GetParam();
  JoinConfig config;
  config.network_radix_bits = 4;
  config.scale_up = 64.0;
  RadixPartitioner partitioner(4);
  RelationHistograms hist_r = ComputeHistograms(w->inner, 4);
  RelationHistograms hist_s = ComputeHistograms(w->outer, 4);
  auto assignment = RoundRobinAssignment(16, nm);
  Exchange exchange(cluster, config, &partitioner, assignment,
                    {hist_r.global, hist_s.global});

  RunTrace trace;
  trace.scale_up = config.scale_up;
  trace.machines.resize(nm);
  std::vector<MemorySpace> memories(nm, MemorySpace(1ull << 40));
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  std::vector<MemorySpace*> mptrs;
  std::vector<ScopedReservation*> rptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    mptrs.push_back(&memories[m]);
    rptrs.push_back(reservations[m].get());
  }
  auto result = exchange.Run({&w->inner, &w->outer}, mptrs, rptrs, &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every partition landed complete on its machine, keys route correctly.
  uint64_t total_r = 0, total_s = 0;
  for (uint32_t p = 0; p < 16; ++p) {
    const uint32_t m = assignment[p];
    const Relation& r = result->stores[m]->Rel(p, 0);
    const Relation& s = result->stores[m]->Rel(p, 1);
    EXPECT_EQ(r.num_tuples(), hist_r.global[p]);
    EXPECT_EQ(s.num_tuples(), hist_s.global[p]);
    total_r += r.num_tuples();
    total_s += s.num_tuples();
    for (uint64_t i = 0; i < r.num_tuples(); ++i) {
      EXPECT_EQ(partitioner.PartitionOf(r.Key(i)), p);
    }
  }
  EXPECT_EQ(total_r, spec.inner_tuples);
  EXPECT_EQ(total_s, spec.outer_tuples);
  // Trace sanity: per-thread compute bytes cover the whole input.
  uint64_t compute = 0;
  for (const auto& mt : trace.machines) {
    for (const auto& tt : mt.net_threads) compute += tt.compute_bytes;
  }
  EXPECT_EQ(compute, (spec.inner_tuples + spec.outer_tuples) * 16);
  EXPECT_GT(result->messages_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Transports, ExchangeTest,
                         ::testing::Values(TransportKind::kRdmaChannel,
                                           TransportKind::kRdmaMemory,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           switch (info.param) {
                             case TransportKind::kRdmaChannel:
                               return "Channel";
                             case TransportKind::kRdmaMemory:
                               return "Memory";
                             case TransportKind::kTcp:
                               return "Tcp";
                             case TransportKind::kRdmaRead:
                               return "Read";
                           }
                           return "Unknown";
                         });

// A global count that disagrees with the inputs -- one tuple too many or
// too few for one partition -- must fail the pass cleanly on every
// transport, whether the surplus tuple is a local write or a delivery.
class HistogramMismatchTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(HistogramMismatchTest, GlobalCountOffByOneIsAnError) {
  const uint32_t nm = 3;
  WorkloadSpec spec;
  spec.inner_tuples = 3000;
  spec.outer_tuples = 6000;
  auto w = GenerateWorkload(spec, nm);
  ASSERT_TRUE(w.ok());
  ClusterConfig cluster = FdrCluster(nm);
  cluster.transport = GetParam();
  JoinConfig config;
  config.network_radix_bits = 4;
  config.scale_up = 64.0;
  RadixPartitioner partitioner(4);
  const RelationHistograms hist_r = ComputeHistograms(w->inner, 4);
  const RelationHistograms hist_s = ComputeHistograms(w->outer, 4);
  const auto assignment = RoundRobinAssignment(16, nm);
  // Partition 3 lives on machine 0, which scans first (the surplus arrives
  // as a delivery); partition 5 on machine 2, which scans last (the surplus
  // is a local write).
  for (uint32_t partition : {3u, 5u}) {
    for (int delta : {+1, -1}) {
      SCOPED_TRACE(::testing::Message() << "partition " << partition << ", delta "
                                        << delta);
      std::vector<uint64_t> counts_s = hist_s.global;
      counts_s[partition] += delta;
      Exchange exchange(cluster, config, &partitioner, assignment,
                        {hist_r.global, counts_s});
      RunTrace trace;
      trace.scale_up = config.scale_up;
      trace.machines.resize(nm);
      std::vector<MemorySpace> memories(nm, MemorySpace(1ull << 40));
      std::vector<std::unique_ptr<ScopedReservation>> reservations;
      std::vector<MemorySpace*> mptrs;
      std::vector<ScopedReservation*> rptrs;
      for (uint32_t m = 0; m < nm; ++m) {
        reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
        mptrs.push_back(&memories[m]);
        rptrs.push_back(reservations[m].get());
      }
      auto result = exchange.Run({&w->inner, &w->outer}, mptrs, rptrs, &trace);
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(IsHistogramMismatch(result.status())) << result.status().ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, HistogramMismatchTest,
                         ::testing::Values(TransportKind::kRdmaChannel,
                                           TransportKind::kRdmaMemory,
                                           TransportKind::kTcp,
                                           TransportKind::kRdmaRead),
                         [](const auto& info) {
                           switch (info.param) {
                             case TransportKind::kRdmaChannel:
                               return "Channel";
                             case TransportKind::kRdmaMemory:
                               return "Memory";
                             case TransportKind::kTcp:
                               return "Tcp";
                             case TransportKind::kRdmaRead:
                               return "Read";
                           }
                           return "Unknown";
                         });

TEST(Exchange, RangePartitionerKeepsRangesContiguous) {
  const uint32_t nm = 2;
  WorkloadSpec spec;
  spec.inner_tuples = 4000;
  spec.outer_tuples = 4000;
  auto w = GenerateWorkload(spec, nm);
  ASSERT_TRUE(w.ok());
  RangePartitioner partitioner({1000, 2000, 3000});
  GenericHistograms hist_r = ComputeHistogramsWith(w->inner, partitioner);
  GenericHistograms hist_s = ComputeHistogramsWith(w->outer, partitioner);
  auto assignment = RoundRobinAssignment(4, nm);
  JoinConfig config;
  config.scale_up = 16.0;
  ClusterConfig cluster = FdrCluster(nm);
  Exchange exchange(cluster, config, &partitioner, assignment,
                    {hist_r.global, hist_s.global});
  RunTrace trace;
  trace.scale_up = config.scale_up;
  trace.machines.resize(nm);
  std::vector<MemorySpace> memories(nm, MemorySpace(1ull << 40));
  std::vector<std::unique_ptr<ScopedReservation>> res;
  std::vector<MemorySpace*> mptrs;
  std::vector<ScopedReservation*> rptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    res.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    mptrs.push_back(&memories[m]);
    rptrs.push_back(res[m].get());
  }
  auto result = exchange.Run({&w->inner, &w->outer}, mptrs, rptrs, &trace);
  ASSERT_TRUE(result.ok());
  // Range p holds exactly the keys in [splitter[p-1], splitter[p]).
  const uint64_t bounds[] = {0, 1000, 2000, 3000, 4000};
  for (uint32_t p = 0; p < 4; ++p) {
    const Relation& r = result->stores[assignment[p]]->Rel(p, 0);
    EXPECT_EQ(r.num_tuples(), bounds[p + 1] - bounds[p]);
    for (uint64_t i = 0; i < r.num_tuples(); ++i) {
      EXPECT_GE(r.Key(i), bounds[p]);
      EXPECT_LT(r.Key(i), bounds[p + 1]);
    }
  }
}

TEST(Exchange, ValidatesInputShapes) {
  ClusterConfig cluster = FdrCluster(2);
  JoinConfig config;
  RadixPartitioner partitioner(3);
  Exchange bad_assignment(cluster, config, &partitioner, {0, 1},  // 2 != 8
                          {std::vector<uint64_t>(8, 0)});
  RunTrace trace;
  trace.machines.resize(2);
  WorkloadSpec spec;
  spec.inner_tuples = 100;
  spec.outer_tuples = 100;
  auto w = GenerateWorkload(spec, 2);
  std::vector<MemorySpace> memories(2, MemorySpace(1ull << 30));
  ScopedReservation r0(&memories[0]), r1(&memories[1]);
  auto result = bad_assignment.Run({&w->inner}, {&memories[0], &memories[1]},
                                   {&r0, &r1}, &trace);
  EXPECT_FALSE(result.ok());
}

// Regression: wrong-size memory/reservation/trace vectors used to be indexed
// out of bounds instead of rejected.
TEST(Exchange, RejectsMismatchedMemoryReservationAndTraceShapes) {
  for (TransportKind transport :
       {TransportKind::kRdmaChannel, TransportKind::kRdmaRead}) {
    ClusterConfig cluster = FdrCluster(2);
    cluster.transport = transport;
    JoinConfig config;
    config.network_radix_bits = 3;
    RadixPartitioner partitioner(3);
    auto assignment = RoundRobinAssignment(8, 2);
    WorkloadSpec spec;
    spec.inner_tuples = 100;
    spec.outer_tuples = 100;
    auto w = GenerateWorkload(spec, 2);
    ASSERT_TRUE(w.ok());
    RelationHistograms hist = ComputeHistograms(w->inner, 3);
    Exchange exchange(cluster, config, &partitioner, assignment, {hist.global});
    std::vector<MemorySpace> memories(2, MemorySpace(1ull << 30));
    ScopedReservation r0(&memories[0]), r1(&memories[1]);
    RunTrace trace;
    trace.machines.resize(2);

    // One memory space for two machines.
    auto short_mem =
        exchange.Run({&w->inner}, {&memories[0]}, {&r0, &r1}, &trace);
    ASSERT_FALSE(short_mem.ok());
    EXPECT_EQ(short_mem.status().code(), StatusCode::kInvalidArgument);

    // One reservation for two machines.
    auto short_res = exchange.Run({&w->inner}, {&memories[0], &memories[1]},
                                  {&r0}, &trace);
    ASSERT_FALSE(short_res.ok());
    EXPECT_EQ(short_res.status().code(), StatusCode::kInvalidArgument);

    // Trace sized for the wrong machine count.
    RunTrace short_trace;
    short_trace.machines.resize(1);
    auto bad_trace = exchange.Run({&w->inner}, {&memories[0], &memories[1]},
                                  {&r0, &r1}, &short_trace);
    ASSERT_FALSE(bad_trace.ok());
    EXPECT_EQ(bad_trace.status().code(), StatusCode::kInvalidArgument);
  }
}

// The per-machine histograms a caller hands over (as Shuffle does) size the
// one-sided transports' staging exactly as Run's own scan of the inputs
// would: same stores, same sends, same registration charges.
TEST(Exchange, GivenMachineCountsMatchItsOwnScan) {
  for (TransportKind transport :
       {TransportKind::kRdmaMemory, TransportKind::kRdmaRead}) {
    SCOPED_TRACE(static_cast<int>(transport));
    const uint32_t nm = 3;
    WorkloadSpec spec;
    spec.inner_tuples = 3000;
    spec.outer_tuples = 6000;
    auto w = GenerateWorkload(spec, nm);
    ASSERT_TRUE(w.ok());
    ClusterConfig cluster = FdrCluster(nm);
    cluster.transport = transport;
    JoinConfig config;
    config.network_radix_bits = 4;
    config.scale_up = 64.0;
    RadixPartitioner partitioner(4);
    const GenericHistograms hist_r = ComputeHistogramsWith(w->inner, partitioner);
    const GenericHistograms hist_s = ComputeHistogramsWith(w->outer, partitioner);
    const auto assignment = RoundRobinAssignment(16, nm);

    auto run = [&](Exchange& exchange, RunTrace* trace) {
      trace->machines.resize(nm);
      std::vector<MemorySpace> memories(nm, MemorySpace(1ull << 40));
      std::vector<std::unique_ptr<ScopedReservation>> reservations;
      std::vector<MemorySpace*> mptrs;
      std::vector<ScopedReservation*> rptrs;
      for (uint32_t m = 0; m < nm; ++m) {
        reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
        mptrs.push_back(&memories[m]);
        rptrs.push_back(reservations[m].get());
      }
      return exchange.Run({&w->inner, &w->outer}, mptrs, rptrs, trace);
    };
    Exchange scanning(cluster, config, &partitioner, assignment,
                      {hist_r.global, hist_s.global});
    Exchange given(cluster, config, &partitioner, assignment,
                   {hist_r.global, hist_s.global},
                   {hist_r.per_machine, hist_s.per_machine});
    RunTrace scan_trace, given_trace;
    auto scanned = run(scanning, &scan_trace);
    auto handed = run(given, &given_trace);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    ASSERT_TRUE(handed.ok()) << handed.status().ToString();
    EXPECT_EQ(handed->messages_sent, scanned->messages_sent);
    EXPECT_EQ(handed->virtual_wire_bytes, scanned->virtual_wire_bytes);
    for (uint32_t m = 0; m < nm; ++m) {
      EXPECT_EQ(given_trace.machines[m].setup_registration_seconds,
                scan_trace.machines[m].setup_registration_seconds);
      EXPECT_EQ(given_trace.machines[m].recv_bytes, scan_trace.machines[m].recv_bytes);
    }
    for (uint32_t p = 0; p < 16; ++p) {
      for (uint32_t rel = 0; rel < 2; ++rel) {
        const Relation& a = handed->stores[assignment[p]]->Rel(p, rel);
        const Relation& b = scanned->stores[assignment[p]]->Rel(p, rel);
        ASSERT_EQ(a.size_bytes(), b.size_bytes());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
      }
    }

    // Counts for the wrong number of machines are rejected, not indexed.
    Exchange misshapen(cluster, config, &partitioner, assignment,
                       {hist_r.global, hist_s.global},
                       {hist_r.per_machine, {hist_s.per_machine[0]}});
    RunTrace bad_trace;
    auto bad = run(misshapen, &bad_trace);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace rdmajoin
