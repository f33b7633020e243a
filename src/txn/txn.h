#ifndef C5_TXN_TXN_H_
#define C5_TXN_TXN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/database.h"

namespace c5::log {
class LogCollector;
}  // namespace c5::log

namespace c5::txn {

// Operation surface exposed to a transaction body. All operations address
// rows by externally meaningful key; the engine resolves keys through the
// table's index.
//
// Existence inside a transaction: the newest write this transaction
// buffered to (table, key) decides whether the key exists. A buffered
// Insert, Update or Put means it does; a buffered Delete means it does not.
// Only for a key the transaction has not written does the engine fall back
// to committed state. Both engines apply this one rule (txn/engine_base.h).
class Txn {
 public:
  virtual ~Txn() = default;

  // Reads the row's value into *out. kNotFound if the key has no visible
  // (non-deleted) row at this transaction's read point.
  virtual Status Read(TableId table, Key key, Value* out) = 0;

  // Locking read (SELECT ... FOR UPDATE): the value read is stable until
  // commit, so read-modify-write sequences do not lose updates. Under 2PL
  // this takes the row's exclusive lock before reading; under MVTSO it is an
  // ordinary read (timestamp validation already gives the guarantee).
  virtual Status ReadForUpdate(TableId table, Key key, Value* out) = 0;

  // Buffered write operations; they take effect atomically at commit.
  // Insert returns kAlreadyExists if the key exists (for a key this
  // transaction has not written: a visible row has it).
  virtual Status Insert(TableId table, Key key, Value value) = 0;
  // Update / Delete return kNotFound if the key does not exist (for a key
  // this transaction has not written: the table's index has no binding).
  virtual Status Update(TableId table, Key key, Value value) = 0;
  virtual Status Delete(TableId table, Key key) = 0;

  // Blind write: inserts the key if absent, overwrites if present. Never
  // fails with existence errors (used by loaders and synthetic workloads).
  virtual Status Put(TableId table, Key key, Value value) = 0;

  // The transaction's timestamp (MVTSO: its multi-version timestamp; 2PL:
  // assigned only at commit, so kInvalidTimestamp during the body).
  virtual Timestamp timestamp() const = 0;

  // Whether the body has buffered any write so far. A transaction that
  // commits without one is never logged.
  virtual bool has_writes() const = 0;
};

// A transaction body. Returning OK requests commit; kCancelled requests an
// explicit rollback (not retried); any other status aborts.
//
// Non-owning callable reference (not std::function): engines execute
// millions of bodies per second and a std::function would heap-allocate its
// capture state on every Execute call. A TxnFn is two words viewing the
// caller's callable; it is valid only for the duration of the call it is
// passed to, which is all any engine or façade in this repository needs —
// never store one.
class TxnFn {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, TxnFn> &&
                std::is_invocable_r_v<Status, F&, Txn&>>>
  TxnFn(F&& f)  // NOLINT(google-explicit-constructor): mirrors std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Txn& txn) -> Status {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(txn);
        }) {}

  Status operator()(Txn& txn) const { return call_(obj_, txn); }

 private:
  void* obj_;
  Status (*call_)(void*, Txn&);
};

// Outcome counters shared by benchmark drivers.
struct EngineStats {
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> aborts{0};      // concurrency-control aborts
  std::atomic<std::uint64_t> user_aborts{0};  // kCancelled rollbacks

  void Reset() {
    commits.store(0);
    aborts.store(0);
    user_aborts.store(0);
  }
};

// A primary concurrency-control engine. Thread-safe: any number of threads
// may call Execute concurrently.
class Engine {
 public:
  virtual ~Engine() = default;

  // Runs one attempt of the transaction. Returns:
  //   OK          - committed
  //   kCancelled  - body requested rollback; nothing was applied
  //   kAborted / kTimedOut - concurrency-control abort; retryable
  virtual Status Execute(const TxnFn& fn) = 0;

  // Retries Execute on retryable outcomes. kCancelled is returned as-is
  // (it is a successful rollback, per TPC-C semantics).
  Status ExecuteWithRetry(const TxnFn& fn, int max_attempts = 1000) {
    Status s = Status::Internal("no attempts");
    for (int i = 0; i < max_attempts; ++i) {
      s = Execute(fn);
      if (!s.IsRetryable()) return s;
    }
    return s;
  }

  // Release horizon for online log sequencing: a lower bound on the commit
  // timestamp of every transaction not yet logged. Pass to
  // log::OnlineLogCollector::SetReleaseHorizon.
  virtual Timestamp LogHorizon() const = 0;

  // Garbage-collection horizon: no in-flight transaction of this engine can
  // read a version that truncating every chain below the newest committed
  // version at or below it removes. Reads at an older timestamp from
  // outside the engine (a migration's export) must pin themselves on top
  // (Cluster::primary_read_pins).
  virtual Timestamp GcHorizon() const = 0;

  virtual storage::Database& db() = 0;
  virtual EngineStats& stats() = 0;
  virtual std::string name() const = 0;
};

// Which primary concurrency-control protocol an engine runs.
enum class EngineKind {
  kMvtso = 0,            // Cicada-like multi-version timestamp ordering
  kTwoPhaseLocking = 1,  // MyRocks-like 2PL with commit-LSN sequencing
};

// Builds the engine of `kind` over `db`, logging commits into `sink` (may
// be null) and drawing timestamps from `clock`.
std::unique_ptr<Engine> MakeEngine(EngineKind kind, storage::Database* db,
                                   log::LogCollector* sink, TxnClock* clock);

}  // namespace c5::txn

#endif  // C5_TXN_TXN_H_
