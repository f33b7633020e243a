#ifndef C5_STORAGE_TABLE_H_
#define C5_STORAGE_TABLE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "common/spin_lock.h"
#include "common/types.h"
#include "storage/epoch.h"
#include "storage/version.h"
#include "storage/version_arena.h"

namespace c5::storage {

// Outcome of a replica prev-timestamp-checked install attempt.
enum class PrevInstall {
  // The version was installed at the head.
  kInstalled = 0,
  // A non-aborted version with write_ts >= the new version's already exists:
  // the record was applied before (at-least-once log delivery, or a
  // checkpoint resume redelivering the boundary segment). Idempotent skip.
  kAlreadyApplied = 1,
  // The predecessor write is not in place yet; retry later.
  kNotReady = 2,
};

// Outcome of an MVTSO pending-version install attempt.
enum class InstallResult {
  kOk = 0,
  // A non-aborted version with write_ts >= the new version's exists
  // (first-updater-wins; the transaction must abort).
  kWriteConflict = 1,
  // The predecessor version was already read at a timestamp above the new
  // version's write timestamp; installing would invalidate that read.
  kReadConflict = 2,
};

// A multi-version table: a growable array of row slots, each holding a
// version chain linked newest-to-oldest in descending write-timestamp order.
// This is the storage layout the paper describes for Cicada (§7.1): "an array
// indexed by an internal row ID [whose] entries are linked lists of row
// versions in descending timestamp order."
//
// Thread safety: all public methods are safe for concurrent use. Read paths
// (ReadAt / ReadLatestCommitted / HeadTimestamp) require the caller to hold
// an EpochManager::Guard for the manager associated with this table's
// database, because garbage collection unlinks versions concurrently.
class Table {
 public:
  explicit Table(std::string name);
  ~Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }

  // ---- Row slot management -------------------------------------------------

  // Allocates a fresh row slot (primary insert path).
  RowId AllocateRow();

  // Guarantees the slot for `row` exists (backup replay path: the log dictates
  // row ids assigned by the primary).
  void EnsureRow(RowId row);

  // One past the largest allocated row id.
  RowId NumRows() const {
    return next_row_id_.load(std::memory_order_acquire);
  }

  // ---- Read paths ------------------------------------------------------------

  // Returns the newest committed version with write_ts <= ts, or nullptr if
  // the row has no such version. Spins briefly on pending versions (MVTSO
  // writers resolve them promptly). Tombstones ARE returned (caller checks
  // version->deleted); this lets callers distinguish "deleted at ts" from
  // "never existed at ts".
  const Version* ReadAt(RowId row, Timestamp ts) const;

  // Newest committed version regardless of timestamp (read-committed read).
  const Version* ReadLatestCommitted(RowId row) const {
    return ReadAt(row, kMaxTimestamp);
  }

  // Write timestamp of the current head version (kInvalidTimestamp if none).
  // Includes pending and aborted heads; used by tests and diagnostics.
  Timestamp HeadTimestamp(RowId row) const;

  // Write timestamp of the newest non-aborted version (kInvalidTimestamp if
  // none). This is what C5's prev-timestamp check compares against.
  Timestamp NewestVisibleTimestamp(RowId row) const;

  // ---- Write paths -----------------------------------------------------------
  // All installs copy `value` exactly once, into a Version allocated from
  // this table's slab arena (storage/version_arena.h) with the payload
  // inlined — the replay hot path performs no heap allocation in steady
  // state. Values are threaded as string_views until the copy, so callers
  // (log records, engine write buffers) never pay an intermediate copy.

  // Unconditionally pushes a committed version at the head. The caller must
  // guarantee per-row ordering (2PL holds the row lock; replica protocols
  // serialize each row's writes), and ts must exceed the head's write_ts
  // unless allow_out_of_order is set (diagnostic-only mode used by the
  // "unconstrained KuaFu" experiment, §7.3, where correctness is
  // intentionally sacrificed to measure scheduler ceilings).
  // Returns the installed version.
  const Version* InstallCommitted(RowId row, Timestamp ts,
                                  std::string_view value,
                                  bool deleted = false,
                                  bool allow_out_of_order = false);

  // C5 worker install, resume-tolerant. Let head_ts be the newest committed
  // version's write_ts (kInvalidTimestamp for an empty row):
  //   head_ts >= ts                  -> kAlreadyApplied (idempotent skip)
  //   prev_ts <= head_ts < ts        -> install, kInstalled
  //   head_ts <  prev_ts             -> kNotReady (predecessor missing)
  // During clean replay head_ts is exactly prev_ts when the write becomes
  // safe (the log has no write to this row strictly between prev_ts and ts),
  // so this degenerates to the paper's §7.2 equality check; head_ts values
  // inside (prev_ts, ts) arise only when a resumed replica recovers on top
  // of state from a previous incarnation whose prev-chain positions were
  // already covered.
  PrevInstall TryInstallIfPrev(RowId row, Timestamp prev_ts, Timestamp ts,
                               std::string_view value, bool deleted = false);

  // Allocates a kPending version from this table's arena (MVTSO execution
  // path; also the test hook for hand-built pending versions). If the
  // version is never linked via TryInstallPending, release it with
  // FreeVersion — never `delete`.
  Version* NewPendingVersion(Timestamp ts, std::string_view value,
                             bool deleted);

  // MVTSO: installs `pending` (status kPending) at the head after conflict
  // checks. On kOk the version is linked in; the caller later commits it
  // (SetStatus(kCommitted)) or aborts it (AbortPending). On failure the
  // version is NOT linked and ownership stays with the caller.
  InstallResult TryInstallPending(RowId row, Version* pending);

  // Marks `v` aborted and, if it is still the head, unlinks and retires it.
  // Otherwise it stays in the chain (skipped by readers, reclaimed by GC).
  void AbortPending(RowId row, Version* v, EpochManager& epochs);

  // ---- Garbage collection ----------------------------------------------------

  // Truncates row's chain below the newest committed version with
  // write_ts <= horizon, queueing the whole tail as ONE batched retirement.
  // Returns 1 if a tail was truncated, 0 otherwise. The exact number of
  // versions freed is reported by EpochManager::ReclaimSome() via the batch
  // deleter — GC never walks the dead chain itself.
  std::size_t CollectRowGarbage(RowId row, Timestamp horizon,
                                EpochManager& epochs);

  // Runs CollectRowGarbage over every row that may hold more than one
  // version; returns the number of rows whose chains were truncated. An
  // install above an existing version marks its row, and the walk unmarks
  // a row once it holds a single version, so a pass costs the rows written
  // since the last one (plus those a low horizon keeps), not the table.
  std::size_t CollectGarbage(Timestamp horizon, EpochManager& epochs);

  // Total versions currently reachable (diagnostic; O(rows + versions)).
  std::size_t CountVersionsApprox() const;

  // The table's version allocator (stats / tests).
  const VersionArena& arena() const { return arena_; }

 private:
  // 64Ki rows per chunk; chunks allocated on demand so tables grow without
  // relocating row slots (readers hold raw pointers into them).
  static constexpr int kChunkBits = 16;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = std::size_t{1} << 15;

  struct RowEntry {
    std::atomic<Version*> head{nullptr};
  };
  struct Chunk {
    RowEntry rows[kChunkSize];
    // One bit per row whose chain may hold more than one version: set by
    // an install linked above an existing version (after the link), taken
    // by the GC walk with an exchange before it reads the chain, and set
    // again if the row still holds several versions.
    std::atomic<std::uint64_t> multi_version[kChunkSize / 64] = {};
  };

  Chunk* EnsureChunk(std::size_t chunk_idx);
  RowEntry& Entry(RowId row) const;
  // Null when the row's chunk is not installed yet. AllocateRow publishes
  // the row counter before the chunk, so NumRows()-bounded scans (GC,
  // diagnostics) can observe a row id whose slot does not exist; such a row
  // has no versions and must be skipped, not dereferenced.
  RowEntry* EntryOrNull(RowId row) const;
  // Marks `row` for the GC walk; call after linking a version above an
  // existing one.
  void MarkMultiVersion(RowId row);
  std::size_t TruncateBelow(RowEntry& entry, Timestamp horizon,
                            EpochManager& epochs);

  const std::string name_;
  // chunks_ entries are written only under grow_mu_ but read lock-free
  // (publish-with-release; see EnsureChunk), so they are atomics rather
  // than C5_GUARDED_BY data.
  std::unique_ptr<std::atomic<Chunk*>[]> chunks_;
  std::atomic<RowId> next_row_id_{0};
  SpinLock grow_mu_{LockRank::kStorage};
  VersionArena arena_;
};

}  // namespace c5::storage

#endif  // C5_STORAGE_TABLE_H_
