#ifndef C5_WORKLOAD_TPCC_H_
#define C5_WORKLOAD_TPCC_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "common/rng.h"
#include "common/shard_router.h"
#include "common/status.h"
#include "replica/replica.h"
#include "storage/database.h"
#include "txn/txn.h"
#include "workload/tpcc_schema.h"

namespace c5::workload::tpcc {

// Workload parameters. Defaults follow the spec where the paper does and the
// paper where it deviates (single-warehouse contention studies, district
// sweep in Fig. 10).
struct TpccConfig {
  std::uint32_t warehouses = 1;
  std::uint32_t districts_per_warehouse = 10;  // Fig. 10 varies this 10 -> 1
  std::uint32_t customers_per_district = 3000;
  std::uint32_t items = 10000;

  // §6.1's optimization: defer the highest-contention write (district
  // next_o_id for NewOrder, warehouse ytd for Payment) as late as data
  // dependencies allow, shortening the serial section on the primary.
  bool optimized = false;
};

// Creates the nine TPC-C tables on `db` in TableIdx order. Call on both the
// primary and backup databases before loading/replication. The indexes grow
// with the rows loaded and inserted, so no cardinality hint is needed.
void CreateTables(storage::Database* db);

// The table names in TableIdx order, for mirroring the schema through any
// surface that owns schema creation — e.g. c5::Cluster::CreateTable, which
// propagates it to every backup. `expected_keys` (always 0) and `config` are
// ignored: they stay only so the frozen c5bench sources compile, and go with
// the next change to the benchmark.
struct TableSpec {
  const char* name;
  std::uint64_t expected_keys;
};
std::array<TableSpec, kNumTables> TableSpecs(const TpccConfig* config);

// Populates warehouses, districts, customers, items, and stock through the
// engine (so the backup can be populated by replication or by a second Load).
// Single-threaded; returns the number of rows loaded.
std::uint64_t Load(txn::Engine& engine, const TpccConfig& config);

// ---- Sharding --------------------------------------------------------------
// Registers table-aware partition extractors on `router` so every
// warehouse-scoped table routes by the warehouse id its key encodes
// (tpcc_schema.h key layouts): warehouse, district, customer, new_order,
// order, order_line, and stock keys for warehouse w all land on
// ShardOfWarehouse(router, w), keeping each warehouse's rows — and therefore
// each NewOrder/Payment transaction's whole footprint — on one shard group.
//
// ITEM and HISTORY are not warehouse-scoped; both are marked UNPARTITIONED
// on the router (ShardRouter::MarkUnpartitioned), so placement audits skip
// them: the item catalog is read-only after load and replicated per shard
// (LoadShard loads it everywhere, so NewOrder's item reads stay
// shard-local), and HISTORY rows are append-only audit data keyed by a
// global sequence, living on whichever shard's Payment wrote them.
void ConfigureShardRouter(ShardRouter* router);

// The shard group owning warehouse `w` (and all its scoped rows).
std::size_t ShardOfWarehouse(const ShardRouter& router, std::uint32_t w);

// Warehouse-granularity migration plan: one ShardMove per warehouse-scoped
// table (warehouse, district, customer, new_order, order, order_line,
// stock), each moving partition token `w` from its current owner to shard
// `to` — the whole warehouse relocates as a unit, so transaction footprints
// stay single-shard across the move. Feed to ShardedCluster::Rebalance.
// Moving a warehouse already on `to` yields a plan ValidatePlan rejects
// (from == to), mirroring the router's no-op rule.
MigrationPlan WarehouseMovePlan(const ShardRouter& router, std::uint32_t w,
                                std::size_t to);

// Sharded load: populates only the warehouses `shard` owns under `router`
// (warehouse/district/customer/stock rows), plus the FULL item catalog
// (replicated per shard, see above). Run once per shard group against that
// group's primary. Returns the number of rows loaded.
std::uint64_t LoadShard(txn::Engine& engine, const TpccConfig& config,
                        const ShardRouter& router, std::size_t shard);

// One NewOrder transaction (spec clause 2.4) against a random district of
// warehouse `w`. ~1% of transactions roll back with kCancelled (invalid
// item), per the spec. Returns the engine's commit status.
Status RunNewOrder(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                   std::uint32_t w);

// One Payment transaction (spec clause 2.5) against a random district.
Status RunPayment(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                  std::uint32_t w);

// One Delivery transaction (spec clause 2.7): for each district of the
// warehouse, delivers the oldest undelivered order — deletes its NEW_ORDER
// row, stamps the carrier on the ORDER row, and credits the customer with
// the order's line total. Districts with nothing to deliver are skipped.
// Sets *delivered to the number of orders delivered.
Status RunDelivery(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                   std::uint32_t w, std::uint32_t* delivered);

// One OrderStatus transaction (spec clause 2.6): reads a customer and their
// most recent order with its lines. Read-only. Our storage has no
// order-by-customer index, so the most recent order is found by a bounded
// backward scan over recent order ids (documented deviation).
Status RunOrderStatus(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                      std::uint32_t w);

// One StockLevel transaction (spec clause 2.8): counts distinct items from
// the district's last 20 orders whose stock is below `threshold`.
// Read-only.
Status RunStockLevel(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                     std::uint32_t w, std::uint32_t* low_stock);

// StockLevel executed against a BACKUP's snapshot (the paper's read-only
// transaction path, §4.2): same semantics, served at `replica`'s visible
// timestamp without touching the primary.
Status RunStockLevelOnBackup(replica::ReplicaBase& replica, Rng& rng,
                             const TpccConfig& config, std::uint32_t w,
                             std::uint32_t* low_stock);

// ---- Analytical scenarios (HTAP) -------------------------------------------
// The ordered secondary index turns idle backup read capacity into an OLAP
// surface: these queries range-scan or aggregate one snapshot without
// touching the primary and without materializing match sets.

// Counts warehouse `w`'s stock rows with s_quantity strictly below
// `threshold` — the StockLevel predicate evaluated over the ENTIRE warehouse
// as an aggregation pushdown inside the stock index walk, instead of the
// transactional variant's 20-order point-read walk.
Status CountLowStockOnBackup(replica::ReplicaBase& replica, std::uint32_t w,
                             std::uint32_t threshold, std::uint64_t* low);

// Streaming range scan over every order line of district (w, d): counts the
// lines and sums ol_quantity. The analytical face of OrderStatus — one
// ordered-index cursor over the district's key band, cost O(|lines|), not
// O(|table|).
Status DistrictOrderLineVolumeOnBackup(replica::ReplicaBase& replica,
                                       std::uint32_t w, std::uint32_t d,
                                       std::uint64_t* lines,
                                       std::uint64_t* total_quantity);

// Consistency probe used by tests: returns d_next_o_id - initial (the number
// of successful NewOrders for the district) as observed at snapshot `ts` on
// `db`, and cross-checks that exactly that many ORDER rows exist.
bool CheckDistrictOrderInvariant(storage::Database& db, const TpccConfig& cfg,
                                 std::uint32_t w, std::uint32_t d,
                                 Timestamp ts);

}  // namespace c5::workload::tpcc

#endif  // C5_WORKLOAD_TPCC_H_
