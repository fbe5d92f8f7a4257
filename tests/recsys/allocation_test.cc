// Allocation-count regressions. The warm cached `RecommendInto` path
// must perform ZERO heap allocations, and a single-user SUM publish
// must allocate a number of blocks bounded by the user trie's depth,
// not by the population. This TU replaces the global operator
// new/delete with counting versions (binary-wide — the replacements
// just delegate to malloc/free, so every other test is unaffected)
// and counts the allocator entries inside measurement windows.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "recsys/engine.h"
#include "recsys/knn_cf.h"
#include "recsys/popularity.h"
#include "recsys/recsys_test_util.h"
#include "recsys/request.h"
#include "sum/sum_service.h"
#include "sum/sum_update.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_new_calls{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* CountedAllocAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment = static_cast<std::size_t>(align);
  std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (rounded == 0) rounded = alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t,
                       std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace spa::recsys {
namespace {

class AllocationRegressionTest : public ::testing::Test {
 protected:
  AllocationRegressionTest()
      : matrix_(MakeTwoCommunityMatrix()),
        catalog_(sum::AttributeCatalog::EmagisterDefault()),
        sums_(&catalog_) {}

  std::unique_ptr<RecsysEngine> MakeEngine() {
    auto engine = std::make_unique<RecsysEngine>(EngineConfig{});
    engine->AddComponent(std::make_unique<UserKnnRecommender>(), 0.6);
    engine->AddComponent(std::make_unique<PopularityRecommender>(),
                         0.4);
    engine->set_sum_service(&sums_);
    EXPECT_TRUE(engine->Fit(matrix_).ok());
    return engine;
  }

  InteractionMatrix matrix_;
  sum::AttributeCatalog catalog_;
  sum::SumService sums_;
};

TEST_F(AllocationRegressionTest, WarmCachedRecommendIntoIsAllocFree) {
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 0;
  request.k = 3;

  // Warm up: first call computes + caches; the next hits the cache and
  // sizes the reused response's buffers.
  RecommendResponse out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
  }
  ASSERT_GT(engine->cache_stats().hits, 0u);

  // Measurement window: nothing inside may allocate, including the
  // Status round-trips (OK is an SSO-empty string). All EXPECTs stay
  // outside the window — gtest assertions allocate.
  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int i = 0; i < 200; ++i) {
    all_ok = all_ok && engine->RecommendInto(request, &out).ok();
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u)
      << "warm cached RecommendInto entered operator new " << allocs
      << " times over 200 calls";
  EXPECT_FALSE(out.items.empty());
}

TEST_F(AllocationRegressionTest, DistinctWarmEntriesStayAllocFree) {
  // Alternating between several already-cached fingerprints must also
  // stay alloc-free: the reused response's capacity only grows.
  auto engine = MakeEngine();
  RecommendRequest requests[4];
  for (UserId u = 0; u < 4; ++u) {
    requests[u].user = u;
    requests[u].k = 5;
  }
  RecommendResponse out;
  for (int round = 0; round < 3; ++round) {
    for (const RecommendRequest& request : requests) {
      ASSERT_TRUE(engine->RecommendInto(request, &out).ok());
    }
  }

  bool all_ok = true;
  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  for (int round = 0; round < 50; ++round) {
    for (const RecommendRequest& request : requests) {
      all_ok = all_ok && engine->RecommendInto(request, &out).ok();
    }
  }
  g_counting.store(false, std::memory_order_release);
  const uint64_t allocs = g_new_calls.load(std::memory_order_relaxed);

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocs, 0u);
}

TEST_F(AllocationRegressionTest, RecomputePathStillProducesResults) {
  // Sanity guard for the counter harness itself: the cold (computing)
  // path does allocate, so the counter must observe traffic there —
  // otherwise a silent counting breakage would make the zero-alloc
  // assertions above vacuous.
  auto engine = MakeEngine();
  RecommendRequest request;
  request.user = 1;
  request.k = 3;
  RecommendResponse out;

  g_new_calls.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
  const bool ok = engine->RecommendInto(request, &out).ok();
  g_counting.store(false, std::memory_order_release);

  EXPECT_TRUE(ok);
  EXPECT_GT(g_new_calls.load(std::memory_order_relaxed), 0u);
  EXPECT_FALSE(out.items.empty());
}

}  // namespace
}  // namespace spa::recsys

namespace spa::sum {
namespace {

/// A service holding users 0..users-1, each created by one batch.
std::unique_ptr<SumService> MakePopulation(const AttributeCatalog* catalog,
                                           UserId users) {
  auto service = std::make_unique<SumService>(catalog);
  std::vector<SumUpdate> bootstrap;
  bootstrap.reserve(static_cast<size_t>(users));
  for (UserId user = 0; user < users; ++user) bootstrap.emplace_back(user);
  EXPECT_TRUE(service->ApplyAll(bootstrap).ok());
  return service;
}

/// Most operator-new entries any of 64 single-user `Apply` calls on
/// existing users (spread over the population) made.
uint64_t WorstSingleUserApplyAllocs(SumService* service, UserId users,
                                    AttributeId attr) {
  uint64_t worst = 0;
  bool all_ok = true;
  for (UserId user = 0; user < users; user += users / 64) {
    const SumUpdate update = SumUpdate(user).Reward(attr, 0.1);
    g_new_calls.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_release);
    all_ok = service->Apply(update).ok() && all_ok;
    g_counting.store(false, std::memory_order_release);
    worst = std::max(worst, g_new_calls.load(std::memory_order_relaxed));
  }
  EXPECT_TRUE(all_ok);
  return worst;
}

// A publish copies the touched user's root-to-leaf path (a node and
// its two compressed arrays per level) and model, so 100x the users
// may cost at most the extra trie levels, never a population-sized
// copy.
TEST(SumPublishAllocationTest, SingleUserApplyIsBoundedByTrieDepth) {
  const AttributeCatalog catalog = AttributeCatalog::EmagisterDefault();
  const AttributeId attr =
      catalog.EmotionalId(eit::EmotionalAttribute::kLively);
  constexpr uint64_t kBlocksPerLevel = 3;

  auto small = MakePopulation(&catalog, 1'000);
  const uint64_t small_allocs =
      WorstSingleUserApplyAllocs(small.get(), 1'000, attr);
  small.reset();
  auto large = MakePopulation(&catalog, 100'000);
  const uint64_t large_allocs =
      WorstSingleUserApplyAllocs(large.get(), 100'000, attr);
  const size_t large_depth = large->snapshot()->depth();

  EXPECT_GT(small_allocs, 0u);  // the counter observes the window
  // About log16(100k / 32) = 3 levels on an average path; the deepest
  // of 100k hash paths runs a few levels further.
  EXPECT_LE(large_depth, 10u);
  EXPECT_LE(large_allocs, small_allocs + kBlocksPerLevel * large_depth)
      << "1k users: " << small_allocs << " blocks, 100k users: "
      << large_allocs << " blocks (trie depth " << large_depth << ")";
}

}  // namespace
}  // namespace spa::sum
