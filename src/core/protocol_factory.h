#ifndef C5_CORE_PROTOCOL_FACTORY_H_
#define C5_CORE_PROTOCOL_FACTORY_H_

#include <memory>

#include "replica/replica.h"

namespace c5::core {

// Every cloned concurrency control protocol in this repository, constructible
// as a replica::ReplicaBase. Used by c5::BackupNode, the parameterized test
// suites and the benchmark harness.
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

using replica::ProtocolOptions;

// Builds the protocol of `kind` over `db`. The kind also picks the
// granularity of the keyed-FIFO replicas and KuaFu's unconstrained mode.
std::unique_ptr<replica::ReplicaBase> MakeReplica(
    ProtocolKind kind, storage::Database* db, const ProtocolOptions& options);

}  // namespace c5::core

#endif  // C5_CORE_PROTOCOL_FACTORY_H_
