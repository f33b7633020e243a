// A shipped log that is a pure function of a seed: the oracle primitive
// behind every cross-PROCESS transport test. The c5-server binary and the
// test that SIGKILLs it both call BuildSeededLog with the same spec, so the
// killed server's restarted incarnation serves the byte-identical log its
// predecessor did, and the test can replay the log in-process to digest the
// expected final state — no files, no IPC, just the seed.
//
// Determinism comes the same way the DST harness gets it (sim/dst_harness):
// the workload executes SERIALLY on the calling thread, round-robin across
// per-client Rng streams, so there are no retries and no interleaving and
// the collector's coalesced log depends on nothing but the spec.

#ifndef C5_WORKLOAD_SEEDED_LOG_H_
#define C5_WORKLOAD_SEEDED_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "log/log_segment.h"
#include "storage/database.h"

namespace c5::workload {

struct SeededLogSpec {
  std::uint64_t seed = 1;
  int clients = 4;
  std::uint64_t txns_per_client = 200;
  std::uint64_t keyspace = 256;
  // Records per coalesced segment — small segments make many frames, which
  // is what transport tests want (more kill/corrupt/reconnect windows).
  std::size_t segment_capacity = 64;
};

// The schema the seeded log addresses (table ids match by creation order —
// apply to the primary AND to every backup replaying the log).
inline std::vector<std::string> SeededSchema() { return {"seeded"}; }

// Runs the spec's workload on a private in-memory primary and returns the
// coalesced log. Same spec, same log — across processes and runs.
log::Log BuildSeededLog(const SeededLogSpec& spec);

}  // namespace c5::workload

#endif  // C5_WORKLOAD_SEEDED_LOG_H_
