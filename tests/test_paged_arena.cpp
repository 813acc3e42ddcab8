// Unit tests for the paged KV budget substrate: PagedKvArena refcount
// and ownership discipline (acquire / add_ref / release / reclaim,
// per-tenant occupancy counted per physical page), and the bounded
// QuantileReservoir that replaced the engine's unbounded sorted
// queue-delay vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "mem/arena.hpp"
#include "mem/paged_arena.hpp"
#include "util/check.hpp"
#include "util/quantile_reservoir.hpp"

using namespace distmcu;
using mem::Arena;
using mem::PagedKvArena;
using util::QuantileReservoir;

TEST(PagedKvArena, ReservesPoolUpFrontAndAcquiresLowestFree) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 8, 1024);
  EXPECT_EQ(a.used(), 8u * 1024u);  // whole pool charged at construction
  EXPECT_EQ(pages.capacity(), 8);
  EXPECT_EQ(pages.free(), 8);
  EXPECT_EQ(pages.pool_bytes(), 8u * 1024u);

  const auto p0 = pages.acquire();
  const auto p1 = pages.acquire();
  ASSERT_TRUE(p0 && p1);
  EXPECT_EQ(*p0, 0);
  EXPECT_EQ(*p1, 1);
  pages.release(*p0, 0);
  const auto again = pages.acquire();
  ASSERT_TRUE(again);
  EXPECT_EQ(*again, 0);  // lowest-free-index, deterministic
}

TEST(PagedKvArena, ExhaustionReturnsNulloptWithoutSideEffects) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 2, 256);
  ASSERT_TRUE(pages.acquire());
  ASSERT_TRUE(pages.acquire());
  EXPECT_EQ(pages.free(), 0);
  EXPECT_FALSE(pages.acquire());
  EXPECT_EQ(pages.in_use(), 2);
  EXPECT_EQ(pages.total_refs(), 2);
}

TEST(PagedKvArena, PoolLargerThanArenaThrows) {
  Arena a("L2", 1024);
  EXPECT_THROW(PagedKvArena(a, "kv_page", 8, 1024), PlanError);
}

TEST(PagedKvArena, RejectsNonPositiveShapes) {
  Arena a("L2", 1024);
  EXPECT_THROW(PagedKvArena(a, "kv_page", -1, 64), Error);
  EXPECT_THROW(PagedKvArena(a, "kv_page", 0, 64), Error);
  EXPECT_THROW(PagedKvArena(a, "kv_page", 1, 0), Error);
  EXPECT_EQ(a.used(), 0u);  // a refused pool reserves nothing
}

TEST(PagedKvArena, RefcountSharingFreesOnlyAtLastRelease) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 4, 512);
  const int p = *pages.acquire(1);
  pages.add_ref(p);
  pages.add_ref(p);
  EXPECT_EQ(pages.refcount(p), 3);
  EXPECT_EQ(pages.total_refs(), 3);
  EXPECT_EQ(pages.shared_pages(), 1);
  // A shared page is physically counted once toward its owner.
  EXPECT_EQ(pages.tenant_in_use(1), 1);
  EXPECT_EQ(pages.in_use(), 1);

  pages.release(p, 1);
  pages.release(p, 1);
  EXPECT_EQ(pages.refcount(p), 1);
  EXPECT_EQ(pages.owner(p), 1);
  EXPECT_EQ(pages.in_use(), 1);  // still held
  pages.release(p, 1);
  EXPECT_EQ(pages.refcount(p), 0);
  EXPECT_EQ(pages.owner(p), PagedKvArena::kFreePage);
  EXPECT_EQ(pages.in_use(), 0);
  EXPECT_EQ(pages.total_refs(), 0);
}

TEST(PagedKvArena, OwnerCheckedReleaseRejectsForeignTenant) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 4, 512);
  const int p = *pages.acquire(0);
  EXPECT_THROW(pages.release(p, 1), Error);  // wrong tenant
  EXPECT_THROW(pages.release(p + 1, 0), Error);  // free page
  EXPECT_THROW(pages.add_ref(p + 1), Error);     // ref on free page
  EXPECT_THROW(pages.release(p + 5, 0), Error);  // out of range
  pages.release(p, 0);
  EXPECT_THROW(pages.release(p, 0), Error);  // double free
}

TEST(PagedKvArena, ReclaimCountsOnlyWhenLastReferenceDrops) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 4, 512);
  const int p = *pages.acquire(2);
  EXPECT_THROW(pages.reclaim(p, 1), Error);  // cross-tenant
  EXPECT_EQ(pages.total_reclaimed(), 0);     // failed reclaim left no trace
  EXPECT_EQ(pages.tenant_in_use(2), 1);
  pages.add_ref(p);
  pages.reclaim(p, 2);  // a reference remains: not a reclaim yet
  EXPECT_EQ(pages.tenant_reclaimed(2), 0);
  EXPECT_EQ(pages.total_reclaimed(), 0);
  pages.reclaim(p, 2);  // last reference: the page is reclaimed
  EXPECT_EQ(pages.tenant_reclaimed(2), 1);
  EXPECT_EQ(pages.total_reclaimed(), 1);
  EXPECT_EQ(pages.owner(p), PagedKvArena::kFreePage);
  // Unseen tenant ids read as zero, never UB.
  EXPECT_EQ(pages.tenant_reclaimed(7), 0);
}

TEST(PagedKvArena, PerTenantHighWaterTracksPhysicalPages) {
  Arena a("L2", 1_MiB);
  PagedKvArena pages(a, "kv_page", 8, 256);
  const int a0 = *pages.acquire(0);
  const int a1 = *pages.acquire(0);
  const int b0 = *pages.acquire(1);
  EXPECT_EQ(pages.tenant_in_use(0), 2);
  EXPECT_EQ(pages.tenant_in_use(1), 1);
  pages.release(a0, 0);
  pages.release(a1, 0);
  EXPECT_EQ(pages.tenant_in_use(0), 0);
  EXPECT_EQ(pages.tenant_high_water(0), 2);
  EXPECT_EQ(pages.tenant_high_water(1), 1);
  pages.release(b0, 1);
  EXPECT_EQ(pages.in_use(), 0);
}

TEST(PagedKvArena, RandomizedRefcountConservation) {
  // Random acquire / add_ref / release traffic against a shadow model:
  // total_refs and per-tenant physical occupancy must track exactly, and
  // everything must drain to zero.
  Arena a("L2", 4_MiB);
  PagedKvArena pages(a, "kv_page", 16, 128);
  std::mt19937 rng(0xC0FFEE);
  // refs[t] holds (page) entries tenant t must eventually return.
  std::vector<std::vector<int>> refs(3);
  for (int it = 0; it < 2000; ++it) {
    const int tenant = static_cast<int>(rng() % 3);
    const int action = static_cast<int>(rng() % 3);
    if (action == 0) {
      if (const auto p = pages.acquire(tenant)) refs[tenant].push_back(*p);
    } else if (action == 1) {
      // add_ref a random held page; the new reference is returned
      // through the page's owner tenant.
      std::vector<int> held;
      for (const auto& v : refs) held.insert(held.end(), v.begin(), v.end());
      if (!held.empty()) {
        const int p = held[rng() % held.size()];
        pages.add_ref(p);
        refs[static_cast<std::size_t>(pages.owner(p))].push_back(p);
      }
    } else if (!refs[static_cast<std::size_t>(tenant)].empty()) {
      auto& v = refs[static_cast<std::size_t>(tenant)];
      const std::size_t i = rng() % v.size();
      pages.release(v[i], pages.owner(v[i]));
      v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
    }
    long long expect_refs = 0;
    for (const auto& v : refs) expect_refs += static_cast<long long>(v.size());
    ASSERT_EQ(pages.total_refs(), expect_refs) << "iteration " << it;
    // Physical occupancy: distinct pages across all tenants' tables.
    std::vector<int> all;
    for (const auto& v : refs) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    ASSERT_EQ(pages.in_use(), static_cast<int>(all.size())) << "iteration " << it;
  }
  for (std::size_t t = 0; t < refs.size(); ++t) {
    for (const int p : refs[t]) pages.release(p, pages.owner(p));
  }
  EXPECT_EQ(pages.in_use(), 0);
  EXPECT_EQ(pages.total_refs(), 0);
}

TEST(QuantileReservoir, ExactPercentilesBelowCapacity) {
  QuantileReservoir r(64);
  // Insert 1..50 shuffled; nearest-rank percentiles are exact.
  std::vector<Cycles> vals(50);
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i + 1;
  std::mt19937 rng(7);
  std::shuffle(vals.begin(), vals.end(), rng);
  for (const Cycles v : vals) r.insert(v);
  EXPECT_EQ(r.size(), 50u);
  EXPECT_EQ(r.percentile(50.0), 25u);
  EXPECT_EQ(r.percentile(95.0), 48u);
  EXPECT_EQ(r.percentile(99.0), 50u);
  EXPECT_EQ(r.percentile(0.0), 1u);
  EXPECT_EQ(r.percentile(100.0), 50u);
}

TEST(QuantileReservoir, EmptyReturnsZero) {
  const QuantileReservoir r;
  EXPECT_EQ(r.percentile(50.0), 0u);
  EXPECT_EQ(r.size(), 0u);
}

TEST(QuantileReservoir, BoundedMemoryBeyondCapacity) {
  QuantileReservoir r(32);
  for (Cycles v = 0; v < 10000; ++v) r.insert(v);
  EXPECT_EQ(r.size(), 32u);  // memory stays bounded
  EXPECT_EQ(r.inserted(), 10000u);
  // The uniform sample keeps percentiles statistically stable: over
  // 10000 uniform inserts p50 of the retained sample stays within the
  // middle half of the range with overwhelming probability for the
  // fixed deterministic seed.
  const Cycles p50 = r.percentile(50.0);
  EXPECT_GT(p50, 2500u);
  EXPECT_LT(p50, 7500u);
}

TEST(QuantileReservoir, DeterministicAcrossInstances) {
  QuantileReservoir a(16);
  QuantileReservoir b(16);
  for (Cycles v = 0; v < 5000; ++v) {
    a.insert(v * 3 + 1);
    b.insert(v * 3 + 1);
  }
  for (const double p : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
}
