#ifndef C5_STORAGE_EPOCH_H_
#define C5_STORAGE_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace c5::storage {

// Epoch-based memory reclamation for version chains.
//
// Readers traverse version chains lock-free, so a version unlinked by garbage
// collection may still be referenced by an in-flight reader. Every reader
// enters a critical section through Guard; unlinked versions are Retire()d
// and freed only once every thread that might have observed them has left its
// critical section (i.e., the minimum active epoch has advanced past the
// retirement epoch).
//
// This is a classic three-phase EBR scheme kept deliberately small:
//  * Enter() publishes the thread's view of the global epoch.
//  * Retire() stamps garbage with the current global epoch and appends it to
//    that epoch's limbo bucket.
//  * ReclaimSome() advances the global epoch and frees every bucket whose
//    epoch is strictly below the minimum active epoch.
//
// Guards are per unit of work (a read, a replay batch), never per thread
// lifetime: one long-lived guard pins every bucket from its epoch on, and
// nothing retired after it is ever freed.
class EpochManager {
 public:
  static constexpr int kMaxThreads = 512;
  static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t{0};

  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // RAII critical-section marker. Cheap: one seq_cst store on entry, one
  // relaxed store on exit. Re-entrant guards are supported via a depth count.
  class Guard {
   public:
    explicit Guard(EpochManager* mgr);
    ~Guard();
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* mgr_;
    int slot_;
  };

  Guard Enter() { return Guard(this); }

  // Registers `ptr` for deferred deletion. May be called inside or outside a
  // critical section. `deleter` must be callable from any thread.
  void Retire(void* ptr, void (*deleter)(void*));

  // Batched form: one retired item covers a whole linked structure (e.g. a
  // truncated version chain). `deleter` frees everything reachable from
  // `ptr` and returns how many objects it freed, so reclamation stats stay
  // exact without the retiring thread ever walking the doomed structure.
  void RetireBatch(void* ptr, std::size_t (*deleter)(void*));

  // Advances the global epoch and frees every limbo bucket below the
  // minimum active epoch, oldest first; a pass costs what it frees. Returns
  // the number of objects freed (batch items count each object their deleter
  // reports). Safe to call from any thread; internally serialized.
  std::size_t ReclaimSome();

  // Frees everything regardless of epochs. Only call when no thread can be
  // inside a critical section (e.g., after joining all workers). Returns the
  // number of objects freed, counted like ReclaimSome().
  std::size_t ReclaimAllUnsafe();

  std::uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  std::size_t RetiredCountApprox() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

  // Process-wide default instance.
  static EpochManager& Default();

 private:
  friend class Guard;

  struct Slot {
    alignas(64) std::atomic<std::uint64_t> epoch{kIdleEpoch};
    std::atomic<int> depth{0};
    std::atomic<bool> in_use{false};
  };

  struct RetiredItem {
    void* ptr;
    void (*deleter)(void*);                // exactly one of deleter /
    std::size_t (*batch_deleter)(void*);   // batch_deleter is non-null
  };

  // Everything retired while the global epoch was `epoch`.
  struct Bucket {
    std::uint64_t epoch = 0;
    std::vector<RetiredItem> items;
  };

  static std::size_t Free(const RetiredItem& item) {
    if (item.batch_deleter != nullptr) return item.batch_deleter(item.ptr);
    item.deleter(item.ptr);
    return 1;
  }

  int AcquireSlot();
  std::uint64_t MinActiveEpoch() const;
  void Push(const RetiredItem& item);
  // Frees every bucket whose epoch is below `epoch`.
  std::size_t ReclaimBelow(std::uint64_t epoch);

  std::atomic<std::uint64_t> global_epoch_{1};
  Slot slots_[kMaxThreads];

  // Limbo: a ring of buckets, oldest at `head_`, epochs strictly increasing.
  // A popped bucket keeps its item capacity and the ring never shrinks, so a
  // warm manager retires and reclaims without allocating. Deleters always
  // run OUTSIDE retired_mu_ (they may take arena locks).
  Mutex retired_mu_{LockRank::kEpochRetired};
  std::vector<Bucket> ring_ C5_GUARDED_BY(retired_mu_);
  std::size_t head_ C5_GUARDED_BY(retired_mu_) = 0;
  std::size_t live_ C5_GUARDED_BY(retired_mu_) = 0;
  std::atomic<std::size_t> retired_count_{0};

  // One reclaimer at a time: it copies the popped buckets into `doomed_`
  // under retired_mu_, then frees them with only this lock held.
  Mutex reclaim_mu_{LockRank::kEpochReclaim};
  std::vector<RetiredItem> doomed_ C5_GUARDED_BY(reclaim_mu_);
};

}  // namespace c5::storage

#endif  // C5_STORAGE_EPOCH_H_
