// Figure 6: TPC-C 100% NewOrder and 100% Payment throughput before and after
// the §6.1 contention-deferring optimization, on a 2PL (MyRocks-like)
// primary, replayed through C5-MyRocks and KuaFu.
//
// Paper's shape: the optimization raises the primary's Payment throughput
// ~7x; KuaFu keeps up on NewOrder (data dependencies bound the deferral) but
// cannot keep up on optimized Payment, while C5 always keeps up.

#include <cstdio>

#include "bench/bench_util.h"
#include "workload/tpcc.h"

namespace c5 {
namespace {

using core::ProtocolKind;
using workload::tpcc::TpccConfig;

struct MixResult {
  double primary_tps;
  bench::ReplayResult c5;
  bench::ReplayResult kuafu;
};

MixResult RunMix(bool payment_mix, bool optimized, std::uint64_t txns,
                 int clients, int workers) {
  auto primary = bench::OfflinePrimary::Tpl();
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 10;
  cfg.customers_per_district = 300;
  cfg.items = 2000;
  cfg.optimized = optimized;
  // Pre-sizes the indexes from the schema cardinalities (no rehash stalls).
  workload::tpcc::CreateTables(&primary->db);
  workload::tpcc::Load(*primary->engine, cfg);
  // Drop the load phase from the replicated log: coalesce and discard.
  (void)primary->collector.Coalesce();

  const auto result = workload::RunClosedLoop(
      clients, std::chrono::milliseconds(0), txns / clients,
      [&](std::uint32_t client, Rng& rng) {
        (void)client;
        return payment_mix
                   ? workload::tpcc::RunPayment(*primary->engine, rng, cfg, 1)
                   : workload::tpcc::RunNewOrder(*primary->engine, rng, cfg,
                                                 1);
      });

  log::Log log = primary->collector.Coalesce();
  auto schema = [](storage::Database* db) {
    workload::tpcc::CreateTables(db);
  };
  // Note: replicated backups start from an empty database and the log holds
  // only the benchmark transactions (the load phase was excluded), exactly
  // like the paper's warm-up exclusion.
  core::ProtocolOptions options;
  // Pre-size the scheduler's row map for the log's row universe (a NewOrder
  // touches ~13 fresh rows; x2 keeps the flat map under 50% load) so the
  // single scheduler thread never rehashes mid-replay.
  options.scheduler_map_capacity = txns * 26;
  MixResult out;
  out.c5 = bench::ReplayLog(ProtocolKind::kC5MyRocks, log, schema, workers,
                            options);
  out.kuafu = bench::ReplayLog(ProtocolKind::kKuaFu, log, schema, workers,
                               options);
  out.primary_tps = result.Throughput();
  return out;
}

}  // namespace
}  // namespace c5

int main(int argc, char** argv) {
  c5::bench::InitBenchRuntime();
  using c5::bench::PrintRow;
  const int clients = c5::bench::DefaultClients();
  const int workers = c5::bench::DefaultWorkers();
  const std::uint64_t txns = c5::bench::Scaled(40000);
  const std::string json_path = c5::bench::JsonOutputPath(argc, argv);

  c5::bench::PrintHeader(
      "Fig. 6: TPC-C throughput (txns/s) before/after §6.1 optimization\n"
      "2PL primary; backups replay the same log (C5-MyRocks vs KuaFu)");
  PrintRow("%-22s %12s %12s %12s %10s", "workload", "primary", "C5",
           "KuaFu", "KuaFu/pri");

  struct Case {
    const char* name;
    bool payment;
    bool optimized;
  };
  const Case cases[] = {
      {"NewOrder (unopt)", false, false},
      {"NewOrder (opt)", false, true},
      {"Payment  (unopt)", true, false},
      {"Payment  (opt)", true, true},
  };
  std::vector<std::string> case_json;
  for (const Case& c : cases) {
    const auto r = c5::RunMix(c.payment, c.optimized, txns, clients, workers);
    PrintRow("%-22s %12.0f %12.0f %12.0f %9.2f%%", c.name, r.primary_tps,
             r.c5.TxnsPerSec(), r.kuafu.TxnsPerSec(),
             100.0 * r.kuafu.TxnsPerSec() / r.primary_tps);
    case_json.push_back(c5::bench::JsonWriter()
                            .Str("name", c.name)
                            .Num("primary_tps", r.primary_tps)
                            .Raw("c5", c5::bench::ReplayResultJson(r.c5))
                            .Raw("kuafu",
                                 c5::bench::ReplayResultJson(r.kuafu))
                            .Object());
  }
  PrintRow("\nkeeps-up criterion: backup replay throughput >= primary "
           "throughput.\nExpected shape: KuaFu ratio collapses on optimized "
           "Payment; C5 stays >= 100%%.");
  const std::string json = c5::bench::JsonWriter()
                               .Str("bench", "fig6_tpcc_opt")
                               .Int("txns", txns)
                               .Raw("cases", c5::bench::JsonArray(case_json))
                               .Object();
  if (!c5::bench::WriteJsonFile(json_path, json)) return 1;
  return 0;
}
