#ifndef C5_CORE_PROTOCOL_FACTORY_H_
#define C5_CORE_PROTOCOL_FACTORY_H_

#include <chrono>
#include <memory>
#include <string>

#include "replica/lag_tracker.h"
#include "replica/replica.h"

namespace c5::core {

// Every cloned concurrency control protocol in this repository, constructible
// behind the common replica::Replica interface. Used by the parameterized
// test suites and the benchmark harness.
enum class ProtocolKind {
  kC5 = 0,              // §7.2 faithful design (embedded prev_ts scheduler)
  kC5MyRocks = 1,       // §5 backward-compatible variant
  kC5Queue = 2,         // §4.1 design with explicit per-row queues
  kPageGranularity = 3,  // §3.1.1 baseline
  kTableGranularity = 4,  // Fig. 12 baseline
  kKuaFu = 5,           // transaction-granularity baseline [20]
  kKuaFuUnconstrained = 6,  // §7.3 diagnostic (correctness intentionally off)
  kSingleThread = 7,    // MySQL 5.6 default
  kQueryFresh = 8,      // §9 lazy row-granularity protocol [61]
};

const char* ToString(ProtocolKind kind);

struct ProtocolOptions {
  int num_workers = 4;
  std::chrono::microseconds snapshot_interval =
      std::chrono::microseconds(200);
  std::chrono::microseconds snapshot_cost = std::chrono::microseconds(0);
  // Protocols with workers: GC every N snapshot intervals (0 = off).
  int gc_every = 0;
  // C5 variants: initial capacity of the scheduler's flat row map.
  std::size_t scheduler_map_capacity = std::size_t{1} << 16;
  // Stable per-node id ("shard0/backup1") surfaced through
  // replica::ReplicaBase::instance_id() in logs and DST failure output, so a
  // multi-shard divergence names the replica it happened on. Empty: the
  // protocol name alone identifies the node.
  std::string instance_id;
};

std::unique_ptr<replica::Replica> MakeReplica(
    ProtocolKind kind, storage::Database* db, const ProtocolOptions& options,
    replica::LagTracker* lag = nullptr);

}  // namespace c5::core

#endif  // C5_CORE_PROTOCOL_FACTORY_H_
