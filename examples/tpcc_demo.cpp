// TPC-C order-entry demo through the c5::Cluster façade: loads a warehouse,
// runs a mixed NewOrder/Payment load on a 2PL primary while the log streams
// LIVE to a C5-MyRocks backup, and checks the application-level invariant
// on the backup's snapshot (every allocated order id has its ORDER row —
// the §2.3 "comment counter matches comments" property, TPC-C flavored).
//
// C5_EXAMPLE_TXNS overrides the benchmark transaction count (default 2500).

#include <cstdio>
#include <cstdlib>

#include "api/cluster.h"
#include "workload/runner.h"
#include "workload/tpcc.h"

using namespace c5;
using namespace c5::workload::tpcc;

int main() {
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 10;
  cfg.customers_per_district = 300;
  cfg.items = 1000;
  cfg.optimized = true;  // §6.1 contention-deferring op order

  std::uint64_t txns = 2500;
  if (const char* t = std::getenv("C5_EXAMPLE_TXNS")) {
    const long long n = std::atoll(t);
    if (n > 0) txns = static_cast<std::uint64_t>(n);
  }

  Cluster cluster(ClusterOptions{}
                      .WithEngine(ha::EngineKind::kTwoPhaseLocking)
                      .WithBackups(1, core::ProtocolKind::kC5MyRocks)
                      .WithWorkers(4));
  for (const auto& spec : TableSpecs(nullptr)) cluster.CreateTable(spec.name);
  cluster.Start();

  std::printf("loading TPC-C (W=%u, D=%u, C=%u, I=%u)...\n", cfg.warehouses,
              cfg.districts_per_warehouse, cfg.customers_per_district,
              cfg.items);
  const std::uint64_t rows = Load(cluster.engine(), cfg);
  std::printf("loaded %llu rows (replicating live)\n",
              static_cast<unsigned long long>(rows));

  const auto result = workload::RunClosedLoop(
      4, std::chrono::milliseconds(0), txns,
      [&](std::uint32_t client, Rng& rng) {
        (void)client;
        return rng.Uniform(2) == 0
                   ? RunNewOrder(cluster.engine(), rng, cfg, 1)
                   : RunPayment(cluster.engine(), rng, cfg, 1);
      });
  std::printf("primary: %llu commits, %llu rollbacks, %.0f txn/s\n",
              static_cast<unsigned long long>(result.committed),
              static_cast<unsigned long long>(result.cancelled),
              result.Throughput());

  // The primary retires; the backup drains the in-flight tail.
  Stopwatch drain;
  cluster.StopPrimary();
  cluster.WaitForBackups();
  const double drain_secs = drain.ElapsedSeconds();

  auto& stats = cluster.backup(0).reader().stats();
  std::printf("backup: applied %llu writes / %llu txns live; final drain "
              "took %.3fs\n",
              static_cast<unsigned long long>(stats.applied_writes.load()),
              static_cast<unsigned long long>(stats.applied_txns.load()),
              drain_secs);

  const Snapshot snap = cluster.OpenSnapshot();
  bool ok = true;
  for (std::uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
    ok = ok && CheckDistrictOrderInvariant(cluster.backup(0).db(), cfg, 1, d,
                                           snap.timestamp());
  }
  std::printf("district/order invariant on backup snapshot: %s\n",
              ok ? "holds" : "VIOLATED");
  cluster.Shutdown();
  return ok ? 0 : 1;
}
