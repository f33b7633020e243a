// Sharded quickstart: c5::ShardedCluster — N independent shard groups (each
// a full primary + log stream + backup fleet) behind one façade, with a
// ShardRouter owning key placement, closed-loop clients driving every shard
// concurrently, scatter-gather MultiGet, a cross-shard ordered Scan, and a
// session whose per-shard causality tokens give read-your-writes across the
// whole fleet.
//
//   cmake -B build && cmake --build build
//   ./build/example_sharded_quickstart
//
// C5_EXAMPLE_TXNS caps the per-client transaction count (the ctest smoke
// run sets a tiny value).

#include <cstdio>
#include <cstdlib>

#include "api/sharded_cluster.h"
#include "workload/runner.h"
#include "workload/synthetic.h"

using namespace c5;

int main() {
  const char* env = std::getenv("C5_EXAMPLE_TXNS");
  const std::uint64_t txns_per_client =
      env != nullptr ? std::strtoull(env, nullptr, 10) : 2000;
  constexpr std::uint64_t kKeyspace = 1024;

  // --- Two shard groups, one backup each; the router hash-partitions the
  // keyspace between them.
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(7);
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  // --- Closed-loop clients per shard (workload::RunShardedClosedLoop): each
  // shard group has its own client population; every write routes through
  // the façade to the shard owning its key.
  const auto results = workload::RunShardedClosedLoop(
      fleet.num_shards(), /*clients_per_shard=*/2,
      std::chrono::milliseconds(0), txns_per_client,
      [&](std::size_t shard, std::uint32_t client, Rng& rng) {
        // Draw keys until one lands on OUR shard — each client population
        // writes only its own shard's slice of the keyspace.
        Key key = rng.Uniform(kKeyspace);
        while (fleet.ShardOf(t, key) != shard) key = rng.Uniform(kKeyspace);
        (void)client;
        return fleet.ExecuteWithRetry(t, key, [&](txn::Txn& txn) {
          return txn.Put(t, key, workload::EncodeIntValue(rng.Next()));
        });
      });
  for (std::size_t s = 0; s < results.size(); ++s) {
    std::printf("shard%zu: %llu committed (%.0f txns/s)\n", s,
                static_cast<unsigned long long>(results[s].committed),
                results[s].Throughput());
  }
  // --- Session with per-shard tokens (primaries still live):
  // read-your-writes wherever the key routes, without one laggard shard
  // stalling the others.
  Timestamp commit = 0;
  const Key hot = 42;
  (void)fleet.ExecuteWithRetry(
      t, hot,
      [&](txn::Txn& txn) {
        return txn.Put(t, hot, workload::EncodeIntValue(4242));
      },
      &commit);
  fleet.Flush();
  auto session = fleet.OpenSession();
  session.OnWrite(t, hot, commit);
  Value v;
  if (session.Read(t, hot, &v).ok()) {
    std::printf("session read key %llu on shard%zu -> %llu (token %llu)\n",
                static_cast<unsigned long long>(hot), fleet.ShardOf(t, hot),
                static_cast<unsigned long long>(workload::DecodeIntValue(v)),
                static_cast<unsigned long long>(
                    session.token(fleet.ShardOf(t, hot))));
  }

  fleet.WaitForBackups();

  // --- Scatter-gather MultiGet: keys grouped by owning shard, one pinned
  // snapshot per shard, results in caller order.
  std::vector<Value> values;
  const std::vector<Key> probe = {1, 2, 3, 4, 5};
  const auto statuses = fleet.MultiGet(t, probe, &values);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    std::printf("multiget key %llu (shard%zu) -> %s\n",
                static_cast<unsigned long long>(probe[i]),
                fleet.ShardOf(t, probe[i]),
                statuses[i].ok() ? "hit" : "absent");
  }

  // --- Cross-shard ordered Scan: per-shard slices k-way merged ascending.
  std::vector<std::pair<Key, Value>> rows;
  (void)fleet.Scan(t, 0, 64, &rows);
  std::printf("scan [0, 64): %zu live keys, ascending across shards\n",
              rows.size());

  // --- The routing invariant audits clean: every key lives where the
  // router says it lives.
  std::printf("placement audit: %zu violations\n",
              fleet.VerifyPlacement().size());
  fleet.Shutdown();
  return 0;
}
