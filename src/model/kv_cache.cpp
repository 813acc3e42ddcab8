#include "model/kv_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace distmcu::model {

KvCache::KvCache(int max_positions, int dim)
    : max_positions_(max_positions), dim_(dim), k_store_(max_positions, dim),
      v_store_(max_positions, dim) {
  DISTMCU_CHECK(max_positions > 0 && dim > 0, "KvCache: dimensions must be positive");
}

void KvCache::append(std::span<const float> k, std::span<const float> v) {
  DISTMCU_CHECK(length_ < max_positions_, "KvCache: capacity exceeded");
  DISTMCU_CHECK(k.size() == static_cast<std::size_t>(dim_) &&
                  v.size() == static_cast<std::size_t>(dim_),
              "KvCache: row size mismatch");
  std::copy(k.begin(), k.end(), k_store_.row(length_).begin());
  std::copy(v.begin(), v.end(), v_store_.row(length_).begin());
  ++length_;
}

std::span<const float> KvCache::k() const {
  return k_store_.span().subspan(0, static_cast<std::size_t>(length_) *
                                        static_cast<std::size_t>(dim_));
}

std::span<const float> KvCache::v() const {
  return v_store_.span().subspan(0, static_cast<std::size_t>(length_) *
                                        static_cast<std::size_t>(dim_));
}

void KvCache::copy_state_from(const KvCache& src) {
  DISTMCU_CHECK(src.max_positions_ == max_positions_ && src.dim_ == dim_,
              "KvCache::copy_state_from: shape mismatch");
  for (int p = 0; p < src.length_; ++p) {
    const auto k = src.k_store_.row(p);
    const auto v = src.v_store_.row(p);
    std::copy(k.begin(), k.end(), k_store_.row(p).begin());
    std::copy(v.begin(), v.end(), v_store_.row(p).begin());
  }
  length_ = src.length_;
}

void KvCache::copy_prefix_from(const KvCache& src, int positions) {
  DISTMCU_CHECK(src.max_positions_ == max_positions_ && src.dim_ == dim_,
              "KvCache::copy_prefix_from: shape mismatch");
  DISTMCU_CHECK(positions >= 0 && positions <= src.length_,
              "KvCache::copy_prefix_from: prefix exceeds source length");
  for (int p = 0; p < positions; ++p) {
    const auto k = src.k_store_.row(p);
    const auto v = src.v_store_.row(p);
    std::copy(k.begin(), k.end(), k_store_.row(p).begin());
    std::copy(v.begin(), v.end(), v_store_.row(p).begin());
  }
  length_ = positions;
}

KvCachePool::KvCachePool(int n_slots, const std::function<CacheSet()>& build_set) {
  DISTMCU_CHECK(n_slots > 0, "KvCachePool: slot count must be positive");
  slots_.reserve(static_cast<std::size_t>(n_slots));
  for (int i = 0; i < n_slots; ++i) slots_.push_back(build_set());
  DISTMCU_CHECK(!slots_.front().empty() && !slots_.front().front().empty(),
              "KvCachePool: builder produced an empty cache set");
  set_in_use_.assign(static_cast<std::size_t>(n_slots), false);
}

KvCachePool::CacheSet& KvCachePool::slot(int i) {
  DISTMCU_CHECK(i >= 0 && i < capacity(), "KvCachePool: slot index out of range");
  return slots_[static_cast<std::size_t>(i)];
}

void KvCachePool::reset_slot(int i) {
  for (auto& per_chip : slot(i)) {
    for (auto& cache : per_chip) cache.reset();
  }
}

void KvCachePool::restore_slot(int i, const CacheSet& snapshot) {
  CacheSet& dst = slot(i);
  DISTMCU_CHECK(snapshot.size() == dst.size(),
              "KvCachePool::restore_slot: chip-count mismatch");
  for (std::size_t chip = 0; chip < dst.size(); ++chip) {
    DISTMCU_CHECK(snapshot[chip].size() == dst[chip].size(),
                "KvCachePool::restore_slot: layer-count mismatch");
    for (std::size_t l = 0; l < dst[chip].size(); ++l) {
      dst[chip][l].copy_state_from(snapshot[chip][l]);
    }
  }
}

void KvCachePool::restore_prefix(int i, const CacheSet& snapshot,
                                 int positions) {
  CacheSet& dst = slot(i);
  DISTMCU_CHECK(snapshot.size() == dst.size(),
              "KvCachePool::restore_prefix: chip-count mismatch");
  for (std::size_t chip = 0; chip < dst.size(); ++chip) {
    DISTMCU_CHECK(snapshot[chip].size() == dst[chip].size(),
                "KvCachePool::restore_prefix: layer-count mismatch");
    for (std::size_t l = 0; l < dst[chip].size(); ++l) {
      dst[chip][l].copy_prefix_from(snapshot[chip][l], positions);
    }
  }
}

Bytes KvCachePool::set_filled_bytes(int i, Bytes elem_bytes) {
  Bytes sum = 0;
  for (const auto& per_chip : slot(i)) {
    for (const auto& cache : per_chip) sum += cache.filled_bytes(elem_bytes);
  }
  return sum;
}

Bytes KvCachePool::set_filled_packed_bytes(int i, int elem_bits) {
  Bytes sum = 0;
  for (const auto& per_chip : slot(i)) {
    for (const auto& cache : per_chip) {
      sum += cache.filled_packed_bytes(elem_bits);
    }
  }
  return sum;
}

std::optional<int> KvCachePool::acquire_set() {
  for (std::size_t i = 0; i < set_in_use_.size(); ++i) {
    if (!set_in_use_[i]) {
      set_in_use_[i] = true;
      ++sets_in_use_;
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

void KvCachePool::release_set(int i) {
  DISTMCU_CHECK(i >= 0 && i < capacity(),
              "KvCachePool: release of out-of-range set");
  DISTMCU_CHECK(set_in_use_[static_cast<std::size_t>(i)],
              "KvCachePool: double release of set " + std::to_string(i));
  set_in_use_[static_cast<std::size_t>(i)] = false;
  --sets_in_use_;
}

Bytes KvCachePool::set_capacity_bytes(Bytes elem_bytes) const {
  Bytes sum = 0;
  for (const auto& per_chip : slots_.front()) {
    for (const auto& cache : per_chip) sum += cache.capacity_bytes(elem_bytes);
  }
  return sum;
}

Bytes KvCachePool::set_capacity_packed_bytes(int elem_bits) const {
  Bytes sum = 0;
  for (const auto& per_chip : slots_.front()) {
    for (const auto& cache : per_chip) {
      sum += cache.capacity_packed_bytes(elem_bits);
    }
  }
  return sum;
}

}  // namespace distmcu::model
