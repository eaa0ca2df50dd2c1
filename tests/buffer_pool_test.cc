#include "rdma/buffer_pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cost_model.h"

namespace rdmajoin {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  RdmaDevice dev_{0, nullptr, CostModel{}};
};

TEST_F(BufferPoolTest, PreallocateRegistersOnce) {
  RegisteredBufferPool pool(&dev_, 4096);
  ASSERT_TRUE(pool.Preallocate(8).ok());
  EXPECT_EQ(pool.buffers_created(), 8u);
  EXPECT_EQ(pool.free_buffers(), 8u);
  EXPECT_EQ(dev_.stats().regions_registered, 8u);
}

TEST_F(BufferPoolTest, AcquireReusesPooledBuffers) {
  RegisteredBufferPool pool(&dev_, 4096);
  ASSERT_TRUE(pool.Preallocate(2).ok());
  for (int round = 0; round < 100; ++round) {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(pool.Release(*a).ok());
    ASSERT_TRUE(pool.Release(*b).ok());
  }
  EXPECT_EQ(pool.buffers_created(), 2u);        // No new registrations.
  EXPECT_EQ(pool.acquisitions(), 200u);
  EXPECT_EQ(pool.reuses(), 198u);
  EXPECT_EQ(dev_.stats().regions_registered, 2u);
}

TEST_F(BufferPoolTest, PoolGrowsOnDemandWhenEmpty) {
  RegisteredBufferPool pool(&dev_, 1024);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.buffers_created(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
  ASSERT_TRUE(pool.Release(*a).ok());
  EXPECT_EQ(pool.free_buffers(), 1u);
  auto c = pool.Acquire();
  EXPECT_EQ(*c, *a);  // Reused.
}

TEST_F(BufferPoolTest, RegisterOnDemandPolicyRegistersEveryAcquire) {
  RegisteredBufferPool pool(&dev_, 2048, RegisteredBufferPool::Policy::kRegisterOnDemand);
  EXPECT_FALSE(pool.Preallocate(2).ok());
  for (int i = 0; i < 10; ++i) {
    auto buf = pool.Acquire();
    ASSERT_TRUE(buf.ok());
    (*buf)->used = 99;
    ASSERT_TRUE(pool.Release(*buf).ok());
  }
  EXPECT_EQ(pool.buffers_created(), 10u);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(dev_.stats().regions_registered, 10u);
  EXPECT_EQ(dev_.stats().regions_deregistered, 10u);
  // The registration cost the pooled design avoids is visible in the stats.
  EXPECT_GT(dev_.stats().registration_seconds, 0.0);
}

TEST_F(BufferPoolTest, AcquireResetsUsedCounter) {
  RegisteredBufferPool pool(&dev_, 512);
  auto a = pool.Acquire();
  (*a)->used = 123;
  ASSERT_TRUE(pool.Release(*a).ok());
  auto b = pool.Acquire();
  EXPECT_EQ((*b)->used, 0u);
}

TEST_F(BufferPoolTest, BuffersAreRegisteredWithTheDevice) {
  RegisteredBufferPool pool(&dev_, 256);
  auto buf = pool.Acquire();
  ASSERT_TRUE(buf.ok());
  const MemoryRegion* mr = dev_.FindByLkey((*buf)->mr.lkey);
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->addr, (*buf)->bytes());
  EXPECT_EQ(mr->length, 256u);
  EXPECT_EQ((*buf)->capacity(), 256u);
}

// Regression: a double release used to push the same buffer onto the free
// list twice, so two later Acquire calls handed the same buffer to two
// owners. The release must be refused and the free list left intact.
TEST_F(BufferPoolTest, DoubleReleaseIsRefusedAndDoesNotCorruptFreeList) {
  RegisteredBufferPool pool(&dev_, 4096);
  auto buf = pool.Acquire();
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(pool.Release(*buf).ok());
  ASSERT_EQ(pool.free_buffers(), 1u);

  EXPECT_EQ(pool.Release(*buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.free_buffers(), 1u);

  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);  // Distinct owners get distinct buffers.
}

TEST_F(BufferPoolTest, ReleaseOfForeignPointerIsRefused) {
  RegisteredBufferPool pool(&dev_, 1024);
  RegisteredBuffer foreign;
  EXPECT_EQ(pool.Release(&foreign).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.Release(nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST_F(BufferPoolTest, OutstandingTracksAcquireReleasePairs) {
  RegisteredBufferPool pool(&dev_, 512);
  EXPECT_EQ(pool.outstanding(), 0u);
  auto a = pool.Acquire();
  auto b = pool.Acquire();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(pool.outstanding(), 2u);
  ASSERT_TRUE(pool.Release(*a).ok());
  EXPECT_EQ(pool.outstanding(), 1u);
  ASSERT_TRUE(pool.Release(*b).ok());
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST_F(BufferPoolTest, DestructorDeregistersEverything) {
  {
    RegisteredBufferPool pool(&dev_, 128);
    ASSERT_TRUE(pool.Preallocate(5).ok());
  }
  EXPECT_EQ(dev_.stats().regions_registered, 5u);
  EXPECT_EQ(dev_.stats().regions_deregistered, 5u);
}

// Under register-on-demand a released buffer keeps its shell, so a stale
// pointer to it is still a RegisteredBuffer of this pool: a second release
// is refused without touching freed memory (ASan-checked in the sanitizer
// build), and the next acquisition registers fresh memory into the shell.
TEST_F(BufferPoolTest, OnDemandDoubleReleaseAfterDeregistrationIsRefused) {
  RegisteredBufferPool pool(&dev_, 1024, RegisteredBufferPool::Policy::kRegisterOnDemand);
  auto buf = pool.Acquire();
  ASSERT_TRUE(buf.ok());
  const uint32_t old_lkey = (*buf)->mr.lkey;
  ASSERT_TRUE(pool.Release(*buf).ok());
  EXPECT_EQ(dev_.FindByLkey(old_lkey), nullptr);
  EXPECT_EQ((*buf)->bytes(), nullptr);
  EXPECT_EQ(pool.Release(*buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(dev_.stats().regions_deregistered, 1u);

  auto again = pool.Acquire();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *buf);  // The shell is reused...
  EXPECT_NE((*again)->mr.lkey, old_lkey);  // ...with a fresh registration.
  ASSERT_NE(dev_.FindByLkey((*again)->mr.lkey), nullptr);
  EXPECT_EQ(dev_.FindByLkey((*again)->mr.lkey)->addr, (*again)->bytes());
  EXPECT_EQ(pool.buffers_created(), 2u);
  ASSERT_TRUE(pool.Release(*again).ok());
}

TEST_F(BufferPoolTest, ReleaseOfAnotherPoolsBufferIsRefused) {
  RegisteredBufferPool pool(&dev_, 256);
  RegisteredBufferPool other(&dev_, 256);
  auto buf = other.Acquire();
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(pool.Release(*buf).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(other.outstanding(), 1u);
  ASSERT_TRUE(other.Release(*buf).ok());
}

class BufferPoolPolicyTest
    : public ::testing::TestWithParam<RegisteredBufferPool::Policy> {
 protected:
  RdmaDevice dev_{0, nullptr, CostModel{}};
};

INSTANTIATE_TEST_SUITE_P(
    Policies, BufferPoolPolicyTest,
    ::testing::Values(RegisteredBufferPool::Policy::kPooled,
                      RegisteredBufferPool::Policy::kRegisterOnDemand),
    [](const auto& info) {
      return info.param == RegisteredBufferPool::Policy::kPooled ? "Pooled"
                                                                 : "OnDemand";
    });

TEST_P(BufferPoolPolicyTest, OutstandingAndBuffersCreatedFollowThePolicy) {
  const bool pooled = GetParam() == RegisteredBufferPool::Policy::kPooled;
  RegisteredBufferPool pool(&dev_, 512, GetParam());
  std::vector<RegisteredBuffer*> held;
  for (int i = 0; i < 3; ++i) {
    auto buf = pool.Acquire();
    ASSERT_TRUE(buf.ok());
    held.push_back(*buf);
  }
  EXPECT_EQ(pool.outstanding(), 3u);
  EXPECT_EQ(pool.buffers_created(), 3u);
  EXPECT_EQ(dev_.live_regions(), 3u);
  ASSERT_TRUE(pool.Release(held[1]).ok());
  ASSERT_TRUE(pool.Release(held[0]).ok());
  EXPECT_EQ(pool.outstanding(), 1u);
  // Pooled buffers stay registered on the free list; on-demand ones are
  // deregistered at once.
  EXPECT_EQ(pool.free_buffers(), pooled ? 2u : 0u);
  EXPECT_EQ(dev_.live_regions(), pooled ? 3u : 1u);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(pool.Acquire().ok());
  EXPECT_EQ(pool.outstanding(), 3u);
  EXPECT_EQ(pool.acquisitions(), 5u);
  // Every on-demand acquisition is a registration; pooled ones reuse.
  EXPECT_EQ(pool.buffers_created(), pooled ? 3u : 5u);
  EXPECT_EQ(pool.reuses(), pooled ? 2u : 0u);
  EXPECT_EQ(dev_.stats().regions_registered, pool.buffers_created());
  EXPECT_EQ(pool.Release(held[0]).code(), StatusCode::kOk);
  EXPECT_EQ(pool.Release(held[0]).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(pool.outstanding(), 2u);
}

}  // namespace
}  // namespace rdmajoin
