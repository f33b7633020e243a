#include "storage/epoch.h"

#include <algorithm>

#include "common/spin_lock.h"

namespace c5::storage {

namespace {
// Start-of-scan hint so a thread usually reacquires the slot it just
// released. Purely a performance hint; correctness never depends on it.
thread_local int tls_slot_hint = 0;
}  // namespace

EpochManager::EpochManager() = default;

EpochManager::~EpochManager() {
  // All readers must be gone by now; free any leftovers.
  ReclaimAllUnsafe();
}

EpochManager& EpochManager::Default() {
  static EpochManager* instance = new EpochManager();
  return *instance;
}

int EpochManager::AcquireSlot() {
  const int start = tls_slot_hint % kMaxThreads;
  for (int i = 0; i < kMaxThreads; ++i) {
    const int idx = (start + i) % kMaxThreads;
    bool expected = false;
    if (!slots_[idx].in_use.load(std::memory_order_relaxed) &&
        slots_[idx].in_use.compare_exchange_strong(
            expected, true, std::memory_order_acquire)) {
      tls_slot_hint = idx;
      return idx;
    }
  }
  // More concurrent critical sections than kMaxThreads; give up on
  // reclamation protection by pinning epoch 0 forever would be wrong, so
  // treat as fatal configuration error.
  std::abort();
}

EpochManager::Guard::Guard(EpochManager* mgr) : mgr_(mgr) {
  slot_ = mgr_->AcquireSlot();
  // seq_cst so the epoch publication is ordered before any subsequent chain
  // traversal, and visible to a concurrent MinActiveEpoch() scan.
  mgr_->slots_[slot_].epoch.store(
      mgr_->global_epoch_.load(std::memory_order_acquire),
      std::memory_order_seq_cst);
}

EpochManager::Guard::~Guard() {
  mgr_->slots_[slot_].epoch.store(kIdleEpoch, std::memory_order_release);
  mgr_->slots_[slot_].in_use.store(false, std::memory_order_release);
}

void EpochManager::Retire(void* ptr, void (*deleter)(void*)) {
  Push(RetiredItem{ptr, deleter, nullptr});
}

void EpochManager::RetireBatch(void* ptr, std::size_t (*deleter)(void*)) {
  Push(RetiredItem{ptr, nullptr, deleter});
}

void EpochManager::Push(const RetiredItem& item) {
  {
    MutexLock lock(retired_mu_);
    // Read under the lock: successive pushes then see a non-decreasing
    // epoch, so the newest bucket is the only one an item can join.
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    if (live_ == 0 || ring_[(head_ + live_ - 1) % ring_.size()].epoch != e) {
      if (live_ == ring_.size()) {
        // Full: unroll the ring into a twice-larger one, oldest first.
        std::vector<Bucket> grown(std::max<std::size_t>(8, 2 * ring_.size()));
        for (std::size_t i = 0; i < live_; ++i) {
          grown[i] = std::move(ring_[(head_ + i) % ring_.size()]);
        }
        ring_.swap(grown);
        head_ = 0;
      }
      ring_[(head_ + live_) % ring_.size()].epoch = e;
      ++live_;
    }
    ring_[(head_ + live_ - 1) % ring_.size()].items.push_back(item);
  }
  retired_count_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t EpochManager::MinActiveEpoch() const {
  std::uint64_t min_epoch = kIdleEpoch;
  for (const Slot& s : slots_) {
    const std::uint64_t e = s.epoch.load(std::memory_order_seq_cst);
    min_epoch = std::min(min_epoch, e);
  }
  return min_epoch;
}

std::size_t EpochManager::ReclaimSome() {
  // Advance the epoch so future retirements are distinguishable from the
  // garbage we are about to examine.
  global_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return ReclaimBelow(MinActiveEpoch());
}

std::size_t EpochManager::ReclaimAllUnsafe() { return ReclaimBelow(kIdleEpoch); }

std::size_t EpochManager::ReclaimBelow(std::uint64_t epoch) {
  MutexLock reclaim(reclaim_mu_);
  {
    MutexLock lock(retired_mu_);
    while (live_ > 0 && ring_[head_].epoch < epoch) {
      std::vector<RetiredItem>& items = ring_[head_].items;
      doomed_.insert(doomed_.end(), items.begin(), items.end());
      items.clear();
      head_ = (head_ + 1) % ring_.size();
      --live_;
    }
  }
  std::size_t freed = 0;
  for (const RetiredItem& item : doomed_) freed += Free(item);
  retired_count_.fetch_sub(doomed_.size(), std::memory_order_relaxed);
  doomed_.clear();
  return freed;
}

}  // namespace c5::storage
