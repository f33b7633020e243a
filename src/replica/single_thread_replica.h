#ifndef C5_REPLICA_SINGLE_THREAD_REPLICA_H_
#define C5_REPLICA_SINGLE_THREAD_REPLICA_H_

#include <string>

#include "replica/replica.h"

namespace c5::replica {

// MySQL 5.6's default cloned concurrency control (§8, Fig. 12): one thread
// replays the log serially in commit order. Trivially satisfies monotonic
// prefix consistency; maximally exposed to unbounded replication lag
// (Theorem 1 with backup parallelism 1).
class SingleThreadReplica : public ReplicaBase {
 public:
  // Runs no worker threads, whatever options.num_workers says.
  explicit SingleThreadReplica(storage::Database* db,
                               const ProtocolOptions& options = {})
      : ReplicaBase(db, WithoutWorkers(options)) {}
  ~SingleThreadReplica() override { Stop(); }

  std::string name() const override { return "single-threaded"; }

 private:
  // Applies the segment in log order, publishing each transaction.
  void Schedule(log::LogSegment& seg) override;
  // Every delivered segment is applied before the next Next().
  Timestamp ApplyFloor() override { return watermark(); }
};

}  // namespace c5::replica

#endif  // C5_REPLICA_SINGLE_THREAD_REPLICA_H_
