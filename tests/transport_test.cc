#include "transport/channel.h"

#include <gtest/gtest.h>

#include <map>

#include "cluster/presets.h"
#include "transport/wire_format.h"

namespace rdmajoin {
namespace {

/// Records every delivery for inspection.
class RecordingSink : public PartitionSink {
 public:
  struct Delivery {
    uint32_t partition;
    uint32_t relation;
    std::vector<uint8_t> bytes;
  };
  Status Deliver(uint32_t partition, uint32_t relation, const uint8_t* tuples,
                 uint64_t bytes) override {
    deliveries.push_back({partition, relation, {tuples, tuples + bytes}});
    return Status::OK();
  }
  std::vector<Delivery> deliveries;
};

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  static constexpr uint32_t kMachines = 3;
  static constexpr uint32_t kTupleBytes = 16;

  void SetUp() override {
    cluster_ = FdrCluster(kMachines);
    cluster_.transport = GetParam();
    config_.scale_up = 1.0;
    config_.rdma_buffer_bytes = 256;  // Small buffers for the test.
    sinks_.resize(kMachines);
    std::vector<PartitionSink*> sink_ptrs;
    std::vector<MemorySpace*> mem_ptrs(kMachines, nullptr);
    for (auto& s : sinks_) sink_ptrs.push_back(&s);
    // Expected incoming volume (only used by the one-sided transport): allow
    // 4 KiB from every source.
    std::vector<std::vector<uint64_t>> incoming(kMachines,
                                                std::vector<uint64_t>(kMachines, 4096));
    auto net = TransportNetwork::Create(cluster_, config_, kTupleBytes, incoming,
                                        sink_ptrs, mem_ptrs);
    ASSERT_TRUE(net.ok()) << net.status().ToString();
    net_ = std::move(*net);
  }

  /// Fills a registered buffer with `n` tuples of recognizable content.
  RegisteredBuffer* FillBuffer(RegisteredBufferPool* pool, uint64_t n,
                               uint8_t fill) {
    auto buf = pool->Acquire();
    EXPECT_TRUE(buf.ok());
    RegisteredBuffer* b = *buf;
    const uint64_t offset = net_->channel(0)->payload_offset();
    for (uint64_t i = 0; i < n * kTupleBytes; ++i) {
      b->bytes()[offset + i] = static_cast<uint8_t>(fill + i);
    }
    b->used = n * kTupleBytes;
    return b;
  }

  ClusterConfig cluster_;
  JoinConfig config_;
  std::vector<RecordingSink> sinks_;
  std::unique_ptr<TransportNetwork> net_;
};

TEST_P(TransportTest, ShipDeliversPayloadToDestinationSink) {
  RegisteredBufferPool pool(net_->device(0), 256 + kWireHeaderBytes);
  RegisteredBuffer* buf = FillBuffer(&pool, 4, 0x10);
  auto wire = net_->channel(0)->Ship(/*dst=*/1, /*partition=*/7, /*relation=*/1, buf);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(*wire, 4u * kTupleBytes);
  ASSERT_EQ(sinks_[1].deliveries.size(), 1u);
  const auto& d = sinks_[1].deliveries[0];
  EXPECT_EQ(d.partition, 7u);
  EXPECT_EQ(d.relation, 1u);
  ASSERT_EQ(d.bytes.size(), 4u * kTupleBytes);
  for (uint64_t i = 0; i < d.bytes.size(); ++i) {
    EXPECT_EQ(d.bytes[i], static_cast<uint8_t>(0x10 + i));
  }
  EXPECT_TRUE(sinks_[0].deliveries.empty());
  EXPECT_TRUE(sinks_[2].deliveries.empty());
}

TEST_P(TransportTest, ShipToSelfIsRejected) {
  RegisteredBufferPool pool(net_->device(0), 256 + kWireHeaderBytes);
  RegisteredBuffer* buf = FillBuffer(&pool, 1, 0);
  EXPECT_FALSE(net_->channel(0)->Ship(0, 0, 0, buf).ok());
}

TEST_P(TransportTest, ManyBuffersArriveInOrderPerLink) {
  RegisteredBufferPool pool(net_->device(2), 256 + kWireHeaderBytes);
  for (int k = 0; k < 20; ++k) {
    auto buf = pool.Acquire();
    RegisteredBuffer* b = *buf;
    const uint64_t offset = net_->channel(2)->payload_offset();
    b->bytes()[offset] = static_cast<uint8_t>(k);
    for (uint64_t i = 1; i < kTupleBytes; ++i) b->bytes()[offset + i] = 0;
    b->used = kTupleBytes;
    auto wire = net_->channel(2)->Ship(0, k % 4, 0, b);
    ASSERT_TRUE(wire.ok());
    ASSERT_TRUE(pool.Release(b).ok());
  }
  ASSERT_EQ(sinks_[0].deliveries.size(), 20u);
  for (int k = 0; k < 20; ++k) {
    EXPECT_EQ(sinks_[0].deliveries[k].bytes[0], static_cast<uint8_t>(k));
    EXPECT_EQ(sinks_[0].deliveries[k].partition, static_cast<uint32_t>(k % 4));
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportTest,
                         ::testing::Values(TransportKind::kRdmaChannel,
                                           TransportKind::kRdmaMemory,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           switch (info.param) {
                             case TransportKind::kRdmaChannel:
                               return "RdmaChannel";
                             case TransportKind::kRdmaMemory:
                               return "RdmaMemory";
                             case TransportKind::kTcp:
                               return "Tcp";
                             case TransportKind::kRdmaRead:
                               return "Read";
                           }
                           return "Unknown";
                         });

TEST(TransportNetwork, TwoSidedTracksReceiverBytes) {
  ClusterConfig cluster = FdrCluster(2);
  JoinConfig config;
  config.rdma_buffer_bytes = 1024;
  RecordingSink sink_a, sink_b;
  auto net = TransportNetwork::Create(cluster, config, 16, {}, {&sink_a, &sink_b},
                                      {nullptr, nullptr});
  ASSERT_TRUE(net.ok());
  RegisteredBufferPool pool((*net)->device(0), 1024 + kWireHeaderBytes);
  auto buf = pool.Acquire();
  (*buf)->used = 160;
  auto wire = (*net)->channel(0)->Ship(1, 3, 0, *buf);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ((*net)->stats().recv_bytes[1], 160u);
  EXPECT_EQ((*net)->stats().recv_messages[1], 1u);
  EXPECT_EQ((*net)->stats().recv_bytes[0], 0u);
}

TEST(TransportNetwork, OneSidedChargesSetupRegistration) {
  ClusterConfig cluster = FdrCluster(2);
  cluster.transport = TransportKind::kRdmaMemory;
  JoinConfig config;
  config.scale_up = 4.0;
  RecordingSink sink_a, sink_b;
  std::vector<std::vector<uint64_t>> incoming{{0, 1 << 20}, {1 << 20, 0}};
  auto net = TransportNetwork::Create(cluster, config, 16, incoming,
                                      {&sink_a, &sink_b}, {nullptr, nullptr});
  ASSERT_TRUE(net.ok());
  // Registration time for a 4 MiB (virtual) region under the default model.
  const double expected = cluster.costs.RegistrationSeconds(4ull << 20);
  EXPECT_NEAR((*net)->stats().setup_registration_seconds[0], expected, 1e-12);
  // No receiver copies for one-sided.
  RegisteredBufferPool pool((*net)->device(0), 1024);
  auto buf = pool.Acquire();
  (*buf)->used = 160;
  // One-sided buffers still reserve header space in the layout.
  ASSERT_TRUE((*net)->channel(0)->Ship(1, 0, 0, *buf).ok());
  EXPECT_EQ((*net)->stats().recv_bytes[1], 0u);
}

TEST(TransportNetwork, OneSidedOverflowingHistogramIsCaught) {
  ClusterConfig cluster = FdrCluster(2);
  cluster.transport = TransportKind::kRdmaMemory;
  JoinConfig config;
  RecordingSink sink_a, sink_b;
  std::vector<std::vector<uint64_t>> incoming{{0, 32}, {32, 0}};
  auto net = TransportNetwork::Create(cluster, config, 16, incoming,
                                      {&sink_a, &sink_b}, {nullptr, nullptr});
  ASSERT_TRUE(net.ok());
  RegisteredBufferPool pool((*net)->device(0), 1024);
  auto buf = pool.Acquire();
  (*buf)->used = 160;  // More than the 32 bytes the histogram promised.
  EXPECT_EQ((*net)->channel(0)->Ship(1, 0, 0, *buf).status().code(),
            StatusCode::kInternal);
}

TEST(TransportNetwork, RespectsMachineMemoryBudget) {
  ClusterConfig cluster = FdrCluster(2);
  JoinConfig config;
  config.scale_up = 1.0;
  config.rdma_buffer_bytes = 1 << 20;
  config.recv_buffers_per_link = 8;
  RecordingSink sink_a, sink_b;
  MemorySpace tiny(/*capacity=*/1 << 20);  // Too small for an 8 MiB recv ring.
  MemorySpace big(1ull << 30);
  auto net = TransportNetwork::Create(cluster, config, 16, {}, {&sink_a, &sink_b},
                                      {&big, &tiny});
  EXPECT_FALSE(net.ok());
  EXPECT_EQ(net.status().code(), StatusCode::kResourceExhausted);
}

TEST(WireFormat, RoundTripsHeader) {
  uint8_t buf[kWireHeaderBytes];
  WireHeader h;
  h.partition = 513;
  h.relation = 1;
  h.payload_bytes = 123456789;
  WriteWireHeader(buf, h);
  const WireHeader r = ReadWireHeader(buf);
  EXPECT_EQ(r.partition, 513u);
  EXPECT_EQ(r.relation, 1u);
  EXPECT_EQ(r.payload_bytes, 123456789u);
}

}  // namespace
}  // namespace rdmajoin
