#include "rdma/validator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "rdma/buffer_pool.h"
#include "rdma/verbs.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

/// Two connected devices with a shared validator, the standard rig for
/// injecting protocol violations.
class ValidatorTest : public ::testing::TestWithParam<ProtocolValidator::Mode> {
 protected:
  void SetUp() override {
    validator_ = std::make_unique<ProtocolValidator>(GetParam());
    dev_a_ = std::make_unique<RdmaDevice>(0, nullptr, CostModel{});
    dev_b_ = std::make_unique<RdmaDevice>(1, nullptr, CostModel{});
    dev_a_->set_validator(validator_.get());
    dev_b_->set_validator(validator_.get());
    qp_a_ = std::make_unique<QueuePair>(dev_a_.get(), &send_cq_a_, &recv_cq_a_);
    qp_b_ = std::make_unique<QueuePair>(dev_b_.get(), &send_cq_b_, &recv_cq_b_);
    ASSERT_TRUE(QueuePair::Connect(qp_a_.get(), qp_b_.get()).ok());
  }

  void TearDown() override {
    // Tear devices down before the validator: tests that leave regions
    // registered on purpose check the leak count afterwards.
    qp_a_.reset();
    qp_b_.reset();
    dev_a_.reset();
    dev_b_.reset();
  }

  bool strict() const { return GetParam() == ProtocolValidator::Mode::kStrict; }

  /// In strict mode the op must fail with `code`; in report mode it must
  /// return OK (the violation surfaces as a failed completion instead).
  void ExpectViolated(const Status& status, StatusCode code) {
    if (strict()) {
      EXPECT_EQ(status.code(), code) << status.ToString();
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  }

  std::unique_ptr<ProtocolValidator> validator_;
  std::unique_ptr<RdmaDevice> dev_a_, dev_b_;
  CompletionQueue send_cq_a_, recv_cq_a_, send_cq_b_, recv_cq_b_;
  std::unique_ptr<QueuePair> qp_a_, qp_b_;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, ValidatorTest,
    ::testing::Values(ProtocolValidator::Mode::kReport,
                      ProtocolValidator::Mode::kStrict),
    [](const auto& info) {
      return info.param == ProtocolValidator::Mode::kStrict ? "Strict" : "Report";
    });

TEST_P(ValidatorTest, SendThroughDeregisteredRegionIsUseAfterDeregister) {
  uint8_t src[64], dst[64];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());
  ASSERT_TRUE(qp_b_->PostRecv(1, mr_dst->lkey, 0, sizeof(dst)).ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr_src).ok());

  ExpectViolated(qp_a_->PostSend(2, mr_src->lkey, 0, sizeof(src)),
                 StatusCode::kInvalidArgument);
  EXPECT_EQ(validator_->count(ProtocolViolation::kUseAfterDeregister), 1u);
  if (!strict()) {
    // Report mode surfaces the violation as a failed send completion.
    WorkCompletion wc;
    ASSERT_TRUE(send_cq_a_.PollOne(&wc));
    EXPECT_FALSE(wc.success);
    EXPECT_EQ(wc.wr_id, 2u);
    // The untouched receive is still posted: nothing was transferred.
    EXPECT_EQ(qp_b_->posted_recvs(), 1u);
  }
  const ProtocolReport report = validator_->report();
  ASSERT_FALSE(report.samples.empty());
  EXPECT_NE(report.samples[0].find("use-after-deregister"), std::string::npos);
  EXPECT_NE(report.samples[0].find("deregistered"), std::string::npos);
}

TEST_P(ValidatorTest, ReadFromDeregisteredRemoteRegionIsUseAfterDeregister) {
  uint8_t remote[32], local[32];
  auto mr_remote = dev_b_->RegisterMemory(remote, sizeof(remote));
  auto mr_local = dev_a_->RegisterMemory(local, sizeof(local));
  ASSERT_TRUE(mr_remote.ok() && mr_local.ok());
  ASSERT_TRUE(dev_b_->DeregisterMemory(*mr_remote).ok());

  ExpectViolated(qp_a_->PostRead(7, mr_local->lkey, 0, mr_remote->rkey, 0, 16),
                 StatusCode::kInvalidArgument);
  EXPECT_EQ(validator_->count(ProtocolViolation::kUseAfterDeregister), 1u);
}

TEST_P(ValidatorTest, DoubleDeregisterIsUseAfterDeregister) {
  uint8_t buf[32];
  auto mr = dev_a_->RegisterMemory(buf, sizeof(buf));
  ASSERT_TRUE(mr.ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr).ok());
  ExpectViolated(dev_a_->DeregisterMemory(*mr), StatusCode::kNotFound);
  EXPECT_EQ(validator_->count(ProtocolViolation::kUseAfterDeregister), 1u);
}

TEST_P(ValidatorTest, OutOfBoundsWriteIsDetected) {
  uint8_t src[64], dst[32];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());

  // 64 bytes into a 32-byte remote region.
  ExpectViolated(
      qp_a_->PostWrite(3, mr_src->lkey, 0, mr_dst->rkey, 0, sizeof(src)),
      StatusCode::kOutOfRange);
  EXPECT_EQ(validator_->count(ProtocolViolation::kOutOfBounds), 1u);
  if (!strict()) {
    WorkCompletion wc;
    ASSERT_TRUE(send_cq_a_.PollOne(&wc));
    EXPECT_FALSE(wc.success);
    EXPECT_EQ(wc.op, WorkCompletion::Op::kWrite);
  }
}

TEST_P(ValidatorTest, SendWithoutPostedReceiveIsReceiverNotReady) {
  uint8_t src[16];
  auto mr = dev_a_->RegisterMemory(src, sizeof(src));
  ASSERT_TRUE(mr.ok());

  ExpectViolated(qp_a_->PostSend(4, mr->lkey, 0, sizeof(src)),
                 StatusCode::kResourceExhausted);
  EXPECT_EQ(validator_->count(ProtocolViolation::kReceiverNotReady), 1u);
}

TEST_P(ValidatorTest, DoubleReleaseIsDetectedAndFreeListStaysSound) {
  RegisteredBufferPool pool(dev_a_.get(), 1024);
  auto buf = pool.Acquire();
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(pool.Release(*buf).ok());
  ASSERT_EQ(pool.free_buffers(), 1u);

  Status second = pool.Release(*buf);
  if (strict()) {
    EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  } else {
    EXPECT_TRUE(second.ok());
  }
  EXPECT_EQ(validator_->count(ProtocolViolation::kDoubleRelease), 1u);
  // The second release must not duplicate the buffer in the free list.
  EXPECT_EQ(pool.free_buffers(), 1u);
}

TEST_P(ValidatorTest, OutstandingBufferAtPoolTeardownIsBufferLeak) {
  {
    RegisteredBufferPool pool(dev_a_.get(), 512);
    auto buf = pool.Acquire();
    ASSERT_TRUE(buf.ok());
    // Never released: the pool teardown must flag it.
  }
  EXPECT_EQ(validator_->count(ProtocolViolation::kBufferLeak), 1u);
}

TEST_P(ValidatorTest, RegionStillRegisteredAtDeviceTeardownIsRegionLeak) {
  uint8_t buf[128];
  auto dev = std::make_unique<RdmaDevice>(9, nullptr, CostModel{});
  dev->set_validator(validator_.get());
  ASSERT_TRUE(dev->RegisterMemory(buf, sizeof(buf)).ok());
  dev.reset();
  EXPECT_EQ(validator_->count(ProtocolViolation::kRegionLeak), 1u);
}

TEST_P(ValidatorTest, DeregisteredKeysStillReportWasDeregistered) {
  uint8_t a[32], b[32];
  auto mr_a = dev_b_->RegisterMemory(a, sizeof(a));
  auto mr_b = dev_b_->RegisterMemory(b, sizeof(b));
  auto local = dev_a_->RegisterMemory(a, sizeof(a));
  ASSERT_TRUE(mr_a.ok() && mr_b.ok() && local.ok());
  ASSERT_TRUE(dev_b_->DeregisterMemory(*mr_a).ok());
  // A later registration does not revive the dead slot's keys.
  auto mr_c = dev_b_->RegisterMemory(a, sizeof(a));
  ASSERT_TRUE(mr_c.ok());

  ExpectViolated(qp_a_->PostWrite(1, local->lkey, 0, mr_a->rkey, 0, 8),
                 StatusCode::kInvalidArgument);
  // A key of the wrong parity was never registered as that kind of key.
  ExpectViolated(qp_a_->PostWrite(2, local->lkey, 0, mr_b->lkey, 0, 8),
                 StatusCode::kInvalidArgument);
  ExpectViolated(dev_b_->DeregisterMemory(*mr_a), StatusCode::kNotFound);
  EXPECT_EQ(validator_->count(ProtocolViolation::kUseAfterDeregister), 3u);
  const ProtocolReport report = validator_->report();
  ASSERT_EQ(report.samples.size(), 3u);
  EXPECT_EQ(report.samples[0],
            "use-after-deregister: PostWrite dst: key 2 was deregistered "
            "(device 1)");
  EXPECT_EQ(report.samples[1],
            "use-after-deregister: PostWrite dst: key 3 was never registered "
            "(device 1)");
  EXPECT_EQ(report.samples[2],
            "use-after-deregister: DeregisterMemory: key 1 was deregistered "
            "(device 1)");
  ASSERT_TRUE(dev_b_->DeregisterMemory(*mr_b).ok());
  ASSERT_TRUE(dev_b_->DeregisterMemory(*mr_c).ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*local).ok());
}

TEST_P(ValidatorTest, RegionLeaksAreReportedInAscendingLkeyOrder) {
  uint8_t buf[5][16];
  auto dev = std::make_unique<RdmaDevice>(9, nullptr, CostModel{});
  dev->set_validator(validator_.get());
  std::vector<MemoryRegion> mrs;
  for (auto& b : buf) {
    auto mr = dev->RegisterMemory(b, sizeof(b));
    ASSERT_TRUE(mr.ok());
    mrs.push_back(*mr);
  }
  // Deregister out of order, leaving lkeys 3, 7 and 9 registered.
  ASSERT_TRUE(dev->DeregisterMemory(mrs[2]).ok());
  ASSERT_TRUE(dev->DeregisterMemory(mrs[0]).ok());
  dev.reset();
  EXPECT_EQ(validator_->count(ProtocolViolation::kRegionLeak), 3u);
  const ProtocolReport report = validator_->report();
  ASSERT_EQ(report.samples.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const uint32_t lkey = std::vector<uint32_t>{3, 7, 9}[i];
    EXPECT_EQ(report.samples[i],
              "region-leak: device 9: lkey " + std::to_string(lkey) +
                  " (16 bytes) still registered at teardown");
  }
}

TEST_P(ValidatorTest, CompletionQueueOverflowIsDetected) {
  uint8_t src[32], dst[64];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());
  send_cq_a_.set_capacity(1);

  // Two undrained one-sided writes: the second completion has nowhere to go.
  ASSERT_TRUE(qp_a_->PostWrite(1, mr_src->lkey, 0, mr_dst->rkey, 0, 16).ok());
  ASSERT_TRUE(qp_a_->PostWrite(2, mr_src->lkey, 0, mr_dst->rkey, 16, 16).ok());
  EXPECT_EQ(validator_->count(ProtocolViolation::kCqOverflow), 1u);
  EXPECT_EQ(send_cq_a_.overflow_drops(), 1u);
  EXPECT_EQ(send_cq_a_.depth(), 1u);
}

TEST_P(ValidatorTest, ReportListsEveryViolationClassByName) {
  const ProtocolReport empty = validator_->report();
  EXPECT_EQ(empty.total(), 0u);
  const std::string text = empty.ToString();
  for (size_t i = 0; i < kNumProtocolViolations; ++i) {
    const auto v = static_cast<ProtocolViolation>(i);
    EXPECT_NE(text.find(ProtocolViolationName(v)), std::string::npos)
        << "missing " << ProtocolViolationName(v);
  }
}

TEST_P(ValidatorTest, ResetClearsCountsAndKeyHistory) {
  uint8_t buf[16];
  auto mr = dev_a_->RegisterMemory(buf, sizeof(buf));
  ASSERT_TRUE(mr.ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr).ok());
  ExpectViolated(dev_a_->DeregisterMemory(*mr), StatusCode::kNotFound);
  ASSERT_GT(validator_->total_violations(), 0u);
  EXPECT_TRUE(validator_->WasDeregistered(dev_a_->id(), mr->lkey));
  validator_->Reset();
  EXPECT_EQ(validator_->total_violations(), 0u);
  EXPECT_FALSE(validator_->WasDeregistered(dev_a_->id(), mr->lkey));
}

/// Without a validator the legacy behavior is preserved: immediate error
/// Status, no completion, no bookkeeping.
TEST(ValidatorOff, LegacyErrorDeliveryUnchanged) {
  RdmaDevice dev_a(0, nullptr, CostModel{});
  RdmaDevice dev_b(1, nullptr, CostModel{});
  CompletionQueue scq_a, rcq_a, scq_b, rcq_b;
  QueuePair qp_a(&dev_a, &scq_a, &rcq_a);
  QueuePair qp_b(&dev_b, &scq_b, &rcq_b);
  ASSERT_TRUE(QueuePair::Connect(&qp_a, &qp_b).ok());
  uint8_t src[16];
  auto mr = dev_a.RegisterMemory(src, sizeof(src));
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(qp_a.PostSend(1, mr->lkey, 0, sizeof(src)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(scq_a.depth(), 0u);
}

/// The full join replay is contract-clean on every verbs transport -- the
/// property rdmajoin_check asserts in CI.
class CleanReplayTest : public ::testing::TestWithParam<TransportKind> {};

INSTANTIATE_TEST_SUITE_P(Transports, CleanReplayTest,
                         ::testing::Values(TransportKind::kRdmaChannel,
                                           TransportKind::kRdmaMemory,
                                           TransportKind::kRdmaRead),
                         [](const auto& info) {
                           switch (info.param) {
                             case TransportKind::kRdmaChannel:
                               return "Channel";
                             case TransportKind::kRdmaMemory:
                               return "Memory";
                             case TransportKind::kRdmaRead:
                               return "Read";
                             default:
                               return "Other";
                           }
                         });

TEST_P(CleanReplayTest, DistributedJoinHasNoProtocolViolations) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  auto workload = GenerateWorkload(spec, 4);
  ASSERT_TRUE(workload.ok());

  ProtocolValidator validator(ProtocolValidator::Mode::kStrict);
  ClusterConfig cluster = QdrCluster(4);
  cluster.transport = GetParam();
  JoinConfig config;
  config.network_radix_bits = 5;
  config.scale_up = 1024.0;
  config.validator = &validator;

  auto result = DistributedJoin(cluster, config).Run(workload->inner, workload->outer);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.matches, workload->truth.expected_matches);
  EXPECT_EQ(validator.total_violations(), 0u) << validator.report().ToString();
}

}  // namespace
}  // namespace rdmajoin
