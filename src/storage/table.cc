#include "storage/table.h"

#include <cassert>
#include <cstdlib>

namespace c5::storage {

Table::Table(std::string name)
    : name_(std::move(name)),
      chunks_(new std::atomic<Chunk*>[kMaxChunks]) {
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

Table::~Table() {
  // Frees every still-linked version: heap-origin blocks are returned to the
  // allocator, slab-origin ones just drop their slab refcount — the arena
  // member's destructor (which runs after this body) releases the slabs
  // wholesale. Retired-but-unreclaimed versions were already freed by the
  // owning EpochManager's destructor (Database destroys members in reverse
  // declaration order, epochs first).
  for (std::size_t i = 0; i < kMaxChunks; ++i) {
    Chunk* chunk = chunks_[i].load(std::memory_order_relaxed);
    if (chunk == nullptr) continue;
    for (std::size_t r = 0; r < kChunkSize; ++r) {
      FreeVersionChain(chunk->rows[r].head.load(std::memory_order_relaxed));
    }
    delete chunk;
  }
}

Table::Chunk* Table::EnsureChunk(std::size_t chunk_idx) {
  assert(chunk_idx < kMaxChunks && "table exceeded maximum row capacity");
  Chunk* chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk != nullptr) return chunk;
  SpinLockGuard lock(grow_mu_);
  chunk = chunks_[chunk_idx].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_idx].store(chunk, std::memory_order_release);
  }
  return chunk;
}

Table::RowEntry& Table::Entry(RowId row) const {
  RowEntry* entry = EntryOrNull(row);
  assert(entry != nullptr && "row slot not allocated");
  return *entry;
}

Table::RowEntry* Table::EntryOrNull(RowId row) const {
  Chunk* chunk = chunks_[row >> kChunkBits].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk->rows[row & (kChunkSize - 1)];
}

void Table::MarkMultiVersion(RowId row) {
  Chunk* chunk = chunks_[row >> kChunkBits].load(std::memory_order_acquire);
  const std::size_t i = row & (kChunkSize - 1);
  // Release: a walk whose exchange reads this bit sees the linked version.
  chunk->multi_version[i / 64].fetch_or(std::uint64_t{1} << (i % 64),
                                        std::memory_order_release);
}

RowId Table::AllocateRow() {
  const RowId row = next_row_id_.fetch_add(1, std::memory_order_acq_rel);
  EnsureChunk(row >> kChunkBits);
  return row;
}

void Table::EnsureRow(RowId row) {
  EnsureChunk(row >> kChunkBits);
  // Fast path: the slot count already covers this row (common during replay,
  // where many workers touch interleaved row ids); avoids hammering the
  // shared counter's cache line.
  if (next_row_id_.load(std::memory_order_acquire) > row) return;
  RowId cur = next_row_id_.load(std::memory_order_relaxed);
  while (cur <= row && !next_row_id_.compare_exchange_weak(
                           cur, row + 1, std::memory_order_acq_rel)) {
  }
}

const Version* Table::ReadAt(RowId row, Timestamp ts) const {
  const Version* v = Entry(row).head.load(std::memory_order_acquire);
  while (v != nullptr) {
    if (v->write_ts <= ts) {
      VersionStatus s = v->Status();
      // A pending version at or below our timestamp must be resolved before
      // we can decide visibility; its writer flips it at commit/abort.
      int spins = 0;
      while (s == VersionStatus::kPending) {
        SpinBackoff(spins);
        s = v->Status();
      }
      if (s == VersionStatus::kCommitted) return v;
      // Aborted: skip to the next older version.
    }
    v = v->Next();
  }
  return nullptr;
}

Timestamp Table::HeadTimestamp(RowId row) const {
  const Version* v = Entry(row).head.load(std::memory_order_acquire);
  return v == nullptr ? kInvalidTimestamp : v->write_ts;
}

Timestamp Table::NewestVisibleTimestamp(RowId row) const {
  const Version* v = Entry(row).head.load(std::memory_order_acquire);
  while (v != nullptr && v->Status() == VersionStatus::kAborted) {
    v = v->Next();
  }
  return v == nullptr ? kInvalidTimestamp : v->write_ts;
}

const Version* Table::InstallCommitted(RowId row, Timestamp ts,
                                       std::string_view value, bool deleted,
                                       bool allow_out_of_order) {
  Version* v = arena_.Create(ts, value, deleted, VersionStatus::kCommitted);
  RowEntry& entry = Entry(row);
  Version* head = entry.head.load(std::memory_order_relaxed);
  do {
    assert((allow_out_of_order || head == nullptr || head->write_ts < ts) &&
           "InstallCommitted requires monotone per-row timestamps");
    (void)allow_out_of_order;
    v->next.store(head, std::memory_order_relaxed);
  } while (!entry.head.compare_exchange_weak(head, v,
                                             std::memory_order_acq_rel));
  if (head != nullptr) MarkMultiVersion(row);
  return v;
}

PrevInstall Table::TryInstallIfPrev(RowId row, Timestamp prev_ts,
                                    Timestamp ts, std::string_view value,
                                    bool deleted) {
  RowEntry& entry = Entry(row);
  Version* head = entry.head.load(std::memory_order_acquire);
  // Replica chains contain only committed versions, so the newest visible
  // version is simply the head.
  const Timestamp head_ts =
      head == nullptr ? kInvalidTimestamp : head->write_ts;
  if (head_ts >= ts) return PrevInstall::kAlreadyApplied;
  if (head_ts < prev_ts) return PrevInstall::kNotReady;
  // The value is threaded as a view up to this point: the single copy
  // happens here, into the arena block.
  Version* v = arena_.Create(ts, value, deleted, VersionStatus::kCommitted);
  v->next.store(head, std::memory_order_relaxed);
  if (entry.head.compare_exchange_strong(head, v,
                                         std::memory_order_acq_rel)) {
    if (head != nullptr) MarkMultiVersion(row);
    return PrevInstall::kInstalled;
  }
  // Raced with another install; the prev check will re-run. (With a correct
  // scheduler only one write per row is eligible at a time, so this is
  // unreachable, but stay safe.) Never published, so no epoch wait.
  FreeVersion(v);
  return PrevInstall::kNotReady;
}

Version* Table::NewPendingVersion(Timestamp ts, std::string_view value,
                                  bool deleted) {
  return arena_.Create(ts, value, deleted, VersionStatus::kPending);
}

InstallResult Table::TryInstallPending(RowId row, Version* pending) {
  RowEntry& entry = Entry(row);
  while (true) {
    Version* head = entry.head.load(std::memory_order_acquire);
    // Find the newest non-aborted version: the one whose visibility our
    // install would affect.
    Version* nv = head;
    while (nv != nullptr && nv->Status() == VersionStatus::kAborted) {
      nv = nv->Next();
    }
    if (nv != nullptr) {
      if (nv->write_ts >= pending->write_ts) return InstallResult::kWriteConflict;
      if (nv->read_ts.load(std::memory_order_acquire) > pending->write_ts) {
        return InstallResult::kReadConflict;
      }
    }
    pending->next.store(head, std::memory_order_relaxed);
    if (entry.head.compare_exchange_weak(head, pending,
                                         std::memory_order_acq_rel)) {
      if (head != nullptr) MarkMultiVersion(row);
      return InstallResult::kOk;
    }
  }
}

void Table::AbortPending(RowId row, Version* v, EpochManager& epochs) {
  v->SetStatus(VersionStatus::kAborted);
  RowEntry& entry = Entry(row);
  Version* expected = v;
  if (entry.head.compare_exchange_strong(expected,
                                         v->next.load(std::memory_order_acquire),
                                         std::memory_order_acq_rel)) {
    epochs.Retire(v, FreeVersionDeleter);
  }
  // Otherwise a newer version was installed above us; GC reclaims later.
}

std::size_t Table::CollectRowGarbage(RowId row, Timestamp horizon,
                                     EpochManager& epochs) {
  RowEntry* entry = EntryOrNull(row);
  return entry == nullptr ? 0 : TruncateBelow(*entry, horizon, epochs);
}

std::size_t Table::TruncateBelow(RowEntry& entry, Timestamp horizon,
                                 EpochManager& epochs) {
  // Find the truncation point: the newest committed version at or below the
  // horizon. Everything strictly older can never be read again.
  Version* v = entry.head.load(std::memory_order_acquire);
  while (v != nullptr && !(v->Status() == VersionStatus::kCommitted &&
                           v->write_ts <= horizon)) {
    v = v->Next();
  }
  // Load before exchanging: most rows have nothing below the horizon, and
  // an exchange would write every row's version cache line for nothing,
  // under the workers installing on those rows.
  if (v == nullptr || v->next.load(std::memory_order_acquire) == nullptr) {
    return 0;
  }
  Version* tail = v->next.exchange(nullptr, std::memory_order_acq_rel);
  if (tail == nullptr) return 0;
  // One batched retirement for the whole tail; the batch deleter counts the
  // versions it frees, so nothing walks the dead chain here.
  epochs.RetireBatch(tail, FreeVersionChain);
  return 1;
}

std::size_t Table::CollectGarbage(Timestamp horizon, EpochManager& epochs) {
  std::size_t total = 0;
  const RowId n = NumRows();
  for (std::size_t c = 0; c < (n + kChunkSize - 1) / kChunkSize; ++c) {
    Chunk* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr) continue;
    for (std::size_t w = 0; w < kChunkSize / 64; ++w) {
      std::atomic<std::uint64_t>& word = chunk->multi_version[w];
      if (word.load(std::memory_order_relaxed) == 0) continue;
      // Take the marks before reading the chains (acquire: each taken mark's
      // version is visible); an install that marks after this exchange is
      // left for the next pass.
      std::uint64_t marks = word.exchange(0, std::memory_order_acq_rel);
      std::uint64_t still = 0;
      while (marks != 0) {
        const int b = __builtin_ctzll(marks);
        marks &= marks - 1;
        RowEntry& entry = chunk->rows[w * 64 + static_cast<std::size_t>(b)];
        total += TruncateBelow(entry, horizon, epochs);
        const Version* head = entry.head.load(std::memory_order_acquire);
        if (head != nullptr && head->Next() != nullptr) {
          still |= std::uint64_t{1} << b;
        }
      }
      if (still != 0) word.fetch_or(still, std::memory_order_release);
    }
  }
  return total;
}

std::size_t Table::CountVersionsApprox() const {
  std::size_t total = 0;
  const RowId n = NumRows();
  for (RowId r = 0; r < n; ++r) {
    const RowEntry* entry = EntryOrNull(r);
    if (entry == nullptr) continue;
    for (const Version* v = entry->head.load(std::memory_order_acquire);
         v != nullptr; v = v->Next()) {
      ++total;
    }
  }
  return total;
}

}  // namespace c5::storage
