#include "rdma/verbs.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cluster/cost_model.h"
#include "cluster/memory_space.h"
#include "util/ring_queue.h"

namespace rdmajoin {
namespace {

class VerbsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_a_ = std::make_unique<RdmaDevice>(0, nullptr, CostModel{});
    dev_b_ = std::make_unique<RdmaDevice>(1, nullptr, CostModel{});
    qp_a_ = std::make_unique<QueuePair>(dev_a_.get(), &send_cq_a_, &recv_cq_a_);
    qp_b_ = std::make_unique<QueuePair>(dev_b_.get(), &send_cq_b_, &recv_cq_b_);
    ASSERT_TRUE(QueuePair::Connect(qp_a_.get(), qp_b_.get()).ok());
  }

  std::unique_ptr<RdmaDevice> dev_a_, dev_b_;
  CompletionQueue send_cq_a_, recv_cq_a_, send_cq_b_, recv_cq_b_;
  std::unique_ptr<QueuePair> qp_a_, qp_b_;
};

TEST_F(VerbsTest, RegisterAndDeregister) {
  uint8_t buf[256];
  auto mr = dev_a_->RegisterMemory(buf, sizeof(buf));
  ASSERT_TRUE(mr.ok());
  EXPECT_NE(mr->lkey, 0u);
  EXPECT_NE(mr->rkey, mr->lkey);
  EXPECT_EQ(dev_a_->FindByLkey(mr->lkey), dev_a_->FindByRkey(mr->rkey));
  EXPECT_EQ(dev_a_->stats().regions_registered, 1u);
  EXPECT_GT(dev_a_->stats().registration_seconds, 0.0);
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr).ok());
  EXPECT_EQ(dev_a_->FindByLkey(mr->lkey), nullptr);
  EXPECT_EQ(dev_a_->stats().regions_deregistered, 1u);
}

TEST_F(VerbsTest, RegisterRejectsEmptyRegion) {
  EXPECT_FALSE(dev_a_->RegisterMemory(nullptr, 16).ok());
  uint8_t b;
  EXPECT_FALSE(dev_a_->RegisterMemory(&b, 0).ok());
}

TEST_F(VerbsTest, DeregisterUnknownRegionFails) {
  MemoryRegion fake;
  fake.lkey = 999;
  EXPECT_EQ(dev_a_->DeregisterMemory(fake).code(), StatusCode::kNotFound);
}

TEST_F(VerbsTest, RegistrationCostGrowsWithPages) {
  CostModel costs;
  uint8_t small_buf[4096];
  std::vector<uint8_t> big_buf(64 * 4096);
  RdmaDevice dev(9, nullptr, costs);
  auto small = dev.RegisterMemory(small_buf, sizeof(small_buf));
  const double t_small = dev.stats().registration_seconds;
  auto big = dev.RegisterMemory(big_buf.data(), big_buf.size());
  const double t_big = dev.stats().registration_seconds - t_small;
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_GT(t_big, t_small);
  EXPECT_NEAR(t_big - costs.reg_base_seconds,
              64 * (t_small - costs.reg_base_seconds), 1e-12);
}

TEST_F(VerbsTest, SendRecvMovesDataIntoPostedReceive) {
  uint8_t src[64], dst[64];
  for (int i = 0; i < 64; ++i) src[i] = static_cast<uint8_t>(i);
  std::memset(dst, 0, sizeof(dst));
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());

  ASSERT_TRUE(qp_b_->PostRecv(11, mr_dst->lkey, 0, sizeof(dst)).ok());
  ASSERT_TRUE(qp_a_->PostSend(22, mr_src->lkey, 0, sizeof(src)).ok());

  WorkCompletion wc;
  ASSERT_TRUE(send_cq_a_.PollOne(&wc));
  EXPECT_EQ(wc.op, WorkCompletion::Op::kSend);
  EXPECT_EQ(wc.wr_id, 22u);
  ASSERT_TRUE(recv_cq_b_.PollOne(&wc));
  EXPECT_EQ(wc.op, WorkCompletion::Op::kRecv);
  EXPECT_EQ(wc.wr_id, 11u);
  EXPECT_EQ(wc.byte_len, sizeof(src));
  EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST_F(VerbsTest, SendWithoutPostedReceiveFails) {
  uint8_t src[16];
  auto mr = dev_a_->RegisterMemory(src, sizeof(src));
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(qp_a_->PostSend(1, mr->lkey, 0, sizeof(src)).code(),
            StatusCode::kResourceExhausted);
}

TEST_F(VerbsTest, SendLargerThanReceiveBufferFails) {
  uint8_t src[64], dst[16];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(qp_b_->PostRecv(1, mr_dst->lkey, 0, sizeof(dst)).ok());
  EXPECT_EQ(qp_a_->PostSend(2, mr_src->lkey, 0, sizeof(src)).code(),
            StatusCode::kOutOfRange);
}

TEST_F(VerbsTest, ReceivesConsumedInFifoOrder) {
  uint8_t src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  uint8_t dst[32];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(qp_b_->PostRecv(100, mr_dst->lkey, 0, 8).ok());
  ASSERT_TRUE(qp_b_->PostRecv(101, mr_dst->lkey, 8, 8).ok());
  ASSERT_TRUE(qp_a_->PostSend(0, mr_src->lkey, 0, 8).ok());
  ASSERT_TRUE(qp_a_->PostSend(0, mr_src->lkey, 0, 8).ok());
  WorkCompletion wc;
  ASSERT_TRUE(recv_cq_b_.PollOne(&wc));
  EXPECT_EQ(wc.wr_id, 100u);
  ASSERT_TRUE(recv_cq_b_.PollOne(&wc));
  EXPECT_EQ(wc.wr_id, 101u);
}

TEST_F(VerbsTest, OneSidedWriteReachesRemoteRegion) {
  uint8_t src[32], dst[64];
  for (int i = 0; i < 32; ++i) src[i] = static_cast<uint8_t>(0xA0 + i);
  std::memset(dst, 0, sizeof(dst));
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(
      qp_a_->PostWrite(5, mr_src->lkey, 0, mr_dst->rkey, 16, sizeof(src)).ok());
  WorkCompletion wc;
  ASSERT_TRUE(send_cq_a_.PollOne(&wc));
  EXPECT_EQ(wc.op, WorkCompletion::Op::kWrite);
  EXPECT_EQ(std::memcmp(dst + 16, src, sizeof(src)), 0);
  // No receiver-side completion for one-sided operations.
  EXPECT_EQ(recv_cq_b_.depth(), 0u);
}

TEST_F(VerbsTest, OneSidedWriteOutOfBoundsFails) {
  uint8_t src[32], dst[32];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  EXPECT_EQ(
      qp_a_->PostWrite(5, mr_src->lkey, 0, mr_dst->rkey, 16, sizeof(src)).code(),
      StatusCode::kOutOfRange);
}

TEST_F(VerbsTest, OneSidedWriteWithBadRkeyFails) {
  uint8_t src[32];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  EXPECT_EQ(qp_a_->PostWrite(5, mr_src->lkey, 0, /*rkey=*/4242, 0, 8).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(VerbsTest, OneSidedReadPullsRemoteData) {
  uint8_t remote[32], local[32];
  for (int i = 0; i < 32; ++i) remote[i] = static_cast<uint8_t>(i * 3);
  std::memset(local, 0, sizeof(local));
  auto mr_remote = dev_b_->RegisterMemory(remote, sizeof(remote));
  auto mr_local = dev_a_->RegisterMemory(local, sizeof(local));
  ASSERT_TRUE(qp_a_->PostRead(6, mr_local->lkey, 0, mr_remote->rkey, 0, 32).ok());
  WorkCompletion wc;
  ASSERT_TRUE(send_cq_a_.PollOne(&wc));
  EXPECT_EQ(wc.op, WorkCompletion::Op::kRead);
  EXPECT_EQ(std::memcmp(local, remote, 32), 0);
}

TEST_F(VerbsTest, UnconnectedQueuePairRejectsOperations) {
  RdmaDevice dev(7, nullptr, CostModel{});
  CompletionQueue scq, rcq;
  QueuePair qp(&dev, &scq, &rcq);
  uint8_t buf[8];
  auto mr = dev.RegisterMemory(buf, sizeof(buf));
  EXPECT_EQ(qp.PostSend(0, mr->lkey, 0, 8).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(qp.PostWrite(0, mr->lkey, 0, 1, 0, 8).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(VerbsTest, ConnectRejectsReuseAndSelf) {
  RdmaDevice dev(8, nullptr, CostModel{});
  CompletionQueue scq, rcq;
  QueuePair qp(&dev, &scq, &rcq);
  EXPECT_FALSE(QueuePair::Connect(&qp, &qp).ok());
  EXPECT_FALSE(QueuePair::Connect(qp_a_.get(), &qp).ok());  // a already paired
}

TEST_F(VerbsTest, KeysIndexRegionsByParityAndNeverCross) {
  uint8_t a[32], b[64];
  auto mr_a = dev_a_->RegisterMemory(a, sizeof(a));
  auto mr_b = dev_a_->RegisterMemory(b, sizeof(b));
  ASSERT_TRUE(mr_a.ok() && mr_b.ok());
  // Region i holds lkey 2i+1 and rkey 2i+2.
  EXPECT_EQ(mr_a->lkey, 1u);
  EXPECT_EQ(mr_a->rkey, 2u);
  EXPECT_EQ(mr_b->lkey, 3u);
  EXPECT_EQ(mr_b->rkey, 4u);
  EXPECT_EQ(dev_a_->FindByLkey(mr_b->lkey)->addr, b);
  EXPECT_EQ(dev_a_->FindByRkey(mr_b->rkey)->length, sizeof(b));
  // An lkey passed as an rkey, or an rkey as an lkey, misses; so do 0 and
  // keys past the table.
  for (const MemoryRegion* mr : {&*mr_a, &*mr_b}) {
    EXPECT_EQ(dev_a_->FindByRkey(mr->lkey), nullptr) << mr->lkey;
    EXPECT_EQ(dev_a_->FindByLkey(mr->rkey), nullptr) << mr->rkey;
  }
  for (const uint32_t key : {0u, 5u, 6u, 0xFFFFFFFFu, 0xFFFFFFFEu}) {
    EXPECT_EQ(dev_a_->FindByLkey(key), nullptr) << key;
    EXPECT_EQ(dev_a_->FindByRkey(key), nullptr) << key;
  }
  // The work-request paths refuse the crossed keys as unknown.
  auto mr_dst = dev_b_->RegisterMemory(b, sizeof(b));
  ASSERT_TRUE(mr_dst.ok());
  EXPECT_EQ(qp_a_->PostSend(2, mr_a->rkey, 0, 8).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(qp_a_->PostWrite(3, mr_a->lkey, 0, mr_dst->lkey, 0, 8).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(qp_a_->PostWrite(4, mr_a->lkey, 0, mr_dst->rkey, 0, 8).code(),
            StatusCode::kOk);
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr_a).ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*mr_b).ok());
  ASSERT_TRUE(dev_b_->DeregisterMemory(*mr_dst).ok());
}

TEST_F(VerbsTest, DeregisteredKeysAreNeverReissued) {
  uint8_t buf[16];
  auto first = dev_a_->RegisterMemory(buf, sizeof(buf));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(dev_a_->DeregisterMemory(*first).ok());
  EXPECT_EQ(dev_a_->FindByLkey(first->lkey), nullptr);
  EXPECT_EQ(dev_a_->FindByRkey(first->rkey), nullptr);
  EXPECT_EQ(dev_a_->live_regions(), 0u);
  auto second = dev_a_->RegisterMemory(buf, sizeof(buf));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->lkey, first->lkey + 2);
  EXPECT_EQ(dev_a_->FindByLkey(first->lkey), nullptr);
  EXPECT_EQ(dev_a_->live_regions(), 1u);
  // A second deregistration of the dead region is refused and leaves the
  // live one alone.
  EXPECT_EQ(dev_a_->DeregisterMemory(*first).code(), StatusCode::kNotFound);
  EXPECT_EQ(dev_a_->live_regions(), 1u);
  ASSERT_TRUE(dev_a_->DeregisterMemory(*second).ok());
}

TEST(RingQueue, KeepsFifoOrderAcrossWrapAroundAndGrowth) {
  RingQueue<uint64_t> ring;
  uint64_t pushed = 0, popped = 0;
  // Hold 5 entries while 100 pass through: head and tail wrap many times
  // and the first 8 slots suffice.
  for (; pushed < 5; ++pushed) ring.push_back(pushed);
  for (int i = 0; i < 100; ++i) {
    ring.push_back(pushed++);
    ASSERT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), 8u);
  // Grow while wrapped: the live entries must come out in order.
  for (int i = 0; i < 50; ++i) ring.push_back(pushed++);
  EXPECT_EQ(ring.size(), 55u);
  EXPECT_EQ(ring.capacity(), 64u);
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), popped++);
    ring.pop_front();
  }
  EXPECT_EQ(popped, pushed);
}

TEST_F(VerbsTest, CompletionQueueStaysFifoAcrossWrapAndGrowth) {
  uint8_t src[8] = {}, dst[8];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());
  uint64_t next_wr = 0, next_polled = 0;
  WorkCompletion wc;
  // Interleave bursts of posts with partial drains, so the ring wraps at
  // one size and grows while wrapped.
  for (const int burst : {3, 6, 9, 20, 40}) {
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(qp_a_->PostWrite(next_wr++, mr_src->lkey, 0, mr_dst->rkey, 0, 8).ok());
    }
    for (int i = 0; i < burst / 2; ++i) {
      ASSERT_TRUE(send_cq_a_.PollOne(&wc));
      ASSERT_EQ(wc.wr_id, next_polled++);
    }
  }
  std::vector<WorkCompletion> rest;
  EXPECT_EQ(send_cq_a_.Poll(1000, &rest), next_wr - next_polled);
  for (const WorkCompletion& c : rest) ASSERT_EQ(c.wr_id, next_polled++);
  EXPECT_EQ(send_cq_a_.depth(), 0u);
}

TEST_F(VerbsTest, BoundedCompletionQueueOverflowsAtExactlyItsCapacity) {
  uint8_t src[8] = {}, dst[8];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());
  // 12 is not a ring size, so the bound must come from the capacity alone.
  send_cq_a_.set_capacity(12);
  for (uint64_t wr = 0; wr < 12; ++wr) {
    ASSERT_TRUE(qp_a_->PostWrite(wr, mr_src->lkey, 0, mr_dst->rkey, 0, 8).ok());
  }
  EXPECT_EQ(send_cq_a_.depth(), 12u);
  EXPECT_EQ(send_cq_a_.overflow_drops(), 0u);
  ASSERT_TRUE(qp_a_->PostWrite(12, mr_src->lkey, 0, mr_dst->rkey, 0, 8).ok());
  EXPECT_EQ(send_cq_a_.depth(), 12u);
  EXPECT_EQ(send_cq_a_.overflow_drops(), 1u);
  // One poll frees one slot; the oldest completion comes out first.
  WorkCompletion wc;
  ASSERT_TRUE(send_cq_a_.PollOne(&wc));
  EXPECT_EQ(wc.wr_id, 0u);
  ASSERT_TRUE(qp_a_->PostWrite(13, mr_src->lkey, 0, mr_dst->rkey, 0, 8).ok());
  EXPECT_EQ(send_cq_a_.overflow_drops(), 1u);
  ASSERT_TRUE(qp_a_->PostWrite(14, mr_src->lkey, 0, mr_dst->rkey, 0, 8).ok());
  EXPECT_EQ(send_cq_a_.overflow_drops(), 2u);
  EXPECT_EQ(send_cq_a_.depth(), 12u);
}

TEST_F(VerbsTest, PostedReceivesStayFifoAcrossWrapAndGrowth) {
  uint8_t src[8] = {}, dst[8];
  auto mr_src = dev_a_->RegisterMemory(src, sizeof(src));
  auto mr_dst = dev_b_->RegisterMemory(dst, sizeof(dst));
  ASSERT_TRUE(mr_src.ok() && mr_dst.ok());
  uint64_t next_recv = 0, next_consumed = 0;
  WorkCompletion wc;
  for (const int burst : {5, 7, 30}) {
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(qp_b_->PostRecv(next_recv++, mr_dst->lkey, 0, 8).ok());
    }
    for (int i = 0; i < burst - 2; ++i) {
      ASSERT_TRUE(qp_a_->PostSend(0, mr_src->lkey, 0, 8).ok());
      ASSERT_TRUE(recv_cq_b_.PollOne(&wc));
      ASSERT_EQ(wc.wr_id, next_consumed++);
    }
  }
  EXPECT_EQ(qp_b_->posted_recvs(), next_recv - next_consumed);
}

TEST(VerbsPinning, RegistrationPinsMemoryAndEnforcesLimits) {
  MemorySpace mem(/*capacity=*/1 << 20, /*pin_limit=*/4096);
  ASSERT_TRUE(mem.Reserve(8192).ok());
  RdmaDevice dev(0, &mem, CostModel{});
  std::vector<uint8_t> buf(8192);
  // Pin limit is 4096: registering 8192 must fail.
  EXPECT_EQ(dev.RegisterMemory(buf.data(), 8192).status().code(),
            StatusCode::kResourceExhausted);
  auto mr = dev.RegisterMemory(buf.data(), 4096);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mem.pinned(), 4096u);
  ASSERT_TRUE(dev.DeregisterMemory(*mr).ok());
  EXPECT_EQ(mem.pinned(), 0u);
  mem.Release(8192);
}

TEST(VerbsPinning, PinScaleConvertsToFullScaleBytes) {
  MemorySpace mem(/*capacity=*/1 << 20);
  ASSERT_TRUE(mem.Reserve(512 * 1024).ok());
  RdmaDevice dev(0, &mem, CostModel{}, /*pin_scale=*/128.0);
  std::vector<uint8_t> buf(1024);
  auto mr = dev.RegisterMemory(buf.data(), buf.size());
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mem.pinned(), 128u * 1024u);
  ASSERT_TRUE(dev.DeregisterMemory(*mr).ok());
  EXPECT_EQ(mem.pinned(), 0u);
  mem.Release(512 * 1024);
}

}  // namespace
}  // namespace rdmajoin
