#include "core/protocol_factory.h"

#include "core/c5_myrocks_replica.h"
#include "core/c5_replica.h"
#include "replica/granularity_replica.h"
#include "replica/kuafu_replica.h"
#include "replica/query_fresh_replica.h"
#include "replica/single_thread_replica.h"

namespace c5::core {

const char* ToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kC5:
      return "c5";
    case ProtocolKind::kC5MyRocks:
      return "c5-myrocks";
    case ProtocolKind::kC5Queue:
      return "c5-queue";
    case ProtocolKind::kPageGranularity:
      return "page";
    case ProtocolKind::kTableGranularity:
      return "table";
    case ProtocolKind::kKuaFu:
      return "kuafu";
    case ProtocolKind::kKuaFuUnconstrained:
      return "kuafu-unconstrained";
    case ProtocolKind::kSingleThread:
      return "single-threaded";
    case ProtocolKind::kQueryFresh:
      return "query-fresh";
  }
  return "unknown";
}

std::unique_ptr<replica::ReplicaBase> MakeReplica(
    ProtocolKind kind, storage::Database* db, const ProtocolOptions& options) {
  switch (kind) {
    case ProtocolKind::kC5:
      return std::make_unique<C5Replica>(db, options);
    case ProtocolKind::kC5MyRocks:
      return std::make_unique<C5MyRocksReplica>(db, options);
    case ProtocolKind::kC5Queue:
      return std::make_unique<replica::GranularityReplica>(
          db, replica::Granularity::kRow, options);
    case ProtocolKind::kPageGranularity:
      return std::make_unique<replica::GranularityReplica>(
          db, replica::Granularity::kPage, options);
    case ProtocolKind::kTableGranularity:
      return std::make_unique<replica::GranularityReplica>(
          db, replica::Granularity::kTable, options);
    case ProtocolKind::kKuaFu:
    case ProtocolKind::kKuaFuUnconstrained:
      return std::make_unique<replica::KuaFuReplica>(
          db, kind == ProtocolKind::kKuaFuUnconstrained, options);
    case ProtocolKind::kSingleThread:
      return std::make_unique<replica::SingleThreadReplica>(db, options);
    case ProtocolKind::kQueryFresh:
      return std::make_unique<replica::QueryFreshReplica>(db, options);
  }
  return nullptr;
}

}  // namespace c5::core
