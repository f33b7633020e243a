// The interface between the phase runner (c5bench.cc) and the workloads
// (kv_workload.cc, tpcc_workload.cc).
//
// A workload owns one c5::Cluster and says which load threads drive it
// (writers and readers, each with a fixed offered rate). The runner drives
// those threads open loop: request i of a thread is DUE at
// start + i / rate whether or not request i-1 has finished, and its latency
// is measured from that due time, so a stall charges every request queued
// behind it. For each request the runner calls Workload::Run, which draws
// its inputs from the thread's seeded Rng, calls the system's public API,
// validates what came back and reports one OpResult.

#ifndef C5BENCH_HARNESS_H_
#define C5BENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/cluster.h"
#include "common/rng.h"
#include "common/types.h"
#include "payload.h"
#include "replica/session.h"
#include "trace.h"

namespace c5bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double window_s = 20;  // measured seconds, split over the sub-runs
  bool trace = false;
  bool quick = false;
  std::string trace_out;  // Chrome trace file (traced run only); "" = none
};

// What a request measured, for the end-to-end metric it feeds.
enum class OpClass { kCommit, kRead, kQuery };

struct OpResult {
  OpClass cls = OpClass::kCommit;
  // The system returned an error (kNotFound on a key that must exist, a
  // session timeout, an exhausted retry loop). Counts in `failed`.
  bool failed = false;
  // The answer was wrong: a corrupt or misrouted payload, a snapshot older
  // than one this thread already saw on that backup, a wrong aggregate.
  // Counts in `failed` AND makes the run incorrect.
  bool invalid = false;
  // A committed write transaction's timestamp (0: nothing to replicate).
  c5::Timestamp commit_ts = 0;
};

// Per-load-thread state a workload may use. Owned by the runner.
struct LoadThread {
  LoadThread(int id, bool writer, double rate, std::uint64_t seed)
      : id(id), writer(writer), rate(rate), rng(seed) {}

  const int id;
  const bool writer;
  const double rate;  // requests/s offered in the open-loop phases
  c5::Rng rng;

  std::uint64_t seq = 0;  // writer: payload sequence number
  std::uint64_t ops = 0;  // reader: snapshot reads issued (backup rotation)
  // Newest snapshot timestamp this thread has read at, per backup (sized by
  // the runner to the fleet).
  std::vector<c5::Timestamp> last_snapshot_ts;
  // Reader threads that route through a ClientSession own one here, and
  // check its token (the newest snapshot it read at) never moves back.
  std::unique_ptr<c5::replica::ClientSession> session;
  c5::Timestamp last_token = 0;

  // Records a read at snapshot `ts` on backup `b`. False when it is older
  // than one this thread already read there: a monotonic-prefix violation
  // (§2.3).
  bool ObserveSnapshot(std::size_t b, c5::Timestamp ts) {
    const bool monotonic = ts >= last_snapshot_ts[b];
    if (monotonic) last_snapshot_ts[b] = ts;
    return monotonic;
  }
};

struct ThreadPlan {
  bool writer = false;
  double rate = 0;  // requests/s
};

struct LoadPlan {
  std::vector<ThreadPlan> threads;
  // Write transactions the capacity phase commits closed loop. A count, not
  // a duration: every replicated write stays resident (the primary keeps
  // every version, the log every segment), so a fixed count bounds memory.
  std::uint64_t capacity_txns = 0;
};

// Outcome of the post-drain correctness gate.
struct GateReport {
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
  std::vector<std::string> messages;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++violations;
      messages.push_back(what);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Set-up is Start then Preload; Teardown destroys the cluster again (each
  // sub-run sets up afresh, and setup_s is the median). Start builds and
  // starts a fresh cluster: every thread it spawns inherits the caller's CPU
  // mask. Preload is client work: it writes the initial rows and returns
  // once every backup's visible timestamp covers them.
  virtual void Start() = 0;
  virtual void Preload() = 0;
  virtual void Teardown() = 0;
  virtual c5::Cluster& cluster() = 0;

  virtual LoadPlan Plan() const = 0;
  // One request from load thread `t`. `tr` records spans when the request
  // is sampled in a traced run.
  virtual OpResult Run(LoadThread& t, Tracer& tr) = 0;

  // After the drain (primary stopped, backups caught up): compares every
  // backup against the primary and checks workload invariants.
  virtual void Verify(GateReport* report) = 0;
};

std::unique_ptr<Workload> MakeIngest();
std::unique_ptr<Workload> MakeReadMostly();
std::unique_ptr<Workload> MakeTpcc();

// Key of the per-table sentinel row InsertIndexSentinels writes; above every
// key a workload uses (TPC-C keys stay below 2^56).
inline constexpr c5::Key kSentinelKey = 0x40000000AEEA34FCull;

// Writes one sentinel row into every table, in a single transaction, and
// waits until every backup has applied it — before any other write. Call
// first thing in Preload.
//
// Why: index::OrderedIndex::UpsertCommon leaves the splice slots prev[l]
// uninitialized for levels l between the height its search started from and
// a max height that a concurrent insert raised meanwhile; linking at such a
// level dereferences garbage (seen as a segfault in a backup replay worker
// while the read_mostly preload replayed, in 2 of 8 Release runs of an
// early shape of this benchmark). Tower heights
// are a fixed function of the key (2 hash bits per level) and kSentinelKey's
// tower is 17 levels tall, so once it is in an index no workload key raises
// the max height again (P(height > 17) = 4^-17 per key) and the race cannot
// occur. The sentinel is an ordinary row, replicated and digest-checked
// like any other.
void InsertIndexSentinels(c5::Cluster& cluster, std::size_t num_tables);

// Blocks until every backup's visible timestamp covers `ts`; exits the
// process (status 3) if that takes more than two minutes — a backup that
// stopped replaying.
void WaitCovered(c5::Cluster& cluster, c5::Timestamp ts);

// Shared gate step: every table of every backup (full Snapshot::Scan) must
// hold exactly the rows the primary holds at its final, settled timestamp
// (Cluster::ExportRows). Returns the primary's per-table digests.
std::vector<Digest> VerifyReplicasMatchPrimary(c5::Cluster& cluster,
                                               std::size_t num_tables,
                                               GateReport* report);

}  // namespace c5bench

#endif  // C5BENCH_HARNESS_H_
