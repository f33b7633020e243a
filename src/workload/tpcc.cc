#include "workload/tpcc.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <set>

#include "api/snapshot.h"

namespace c5::workload::tpcc {

namespace {

constexpr std::uint32_t kInitialNextOid = 1;

// Unique history-row key source (the spec gives HISTORY no primary key; we
// need one for our key-addressed storage).
std::atomic<std::uint64_t> g_history_seq{1};

void FillName(char* dst, std::size_t n, const char* prefix,
              std::uint64_t id) {
  std::snprintf(dst, n, "%s%llu", prefix,
                static_cast<unsigned long long>(id % 1000));
}

}  // namespace

std::array<TableSpec, kNumTables> TableSpecs(const TpccConfig* /*config*/) {
  return {{
      {"warehouse", 0},
      {"district", 0},
      {"customer", 0},
      {"history", 0},
      {"new_order", 0},
      {"order", 0},
      {"order_line", 0},
      {"item", 0},
      {"stock", 0},
  }};
}

void CreateTables(storage::Database* db) {
  const auto specs = TableSpecs(nullptr);
  for (TableId i = 0; i < kNumTables; ++i) {
    const TableId id = db->CreateTable(specs[i].name);
    (void)id;
    assert(id == i && "TPC-C tables must be created in TableIdx order");
  }
}

namespace {

// Shared loader: `own(w)` selects which warehouses' scoped rows to load; the
// item catalog is always loaded (it is replicated per shard in sharded
// deployments). Deterministic: the Rng stream is consumed identically
// whether or not a warehouse is loaded, so a shard's rows are byte-identical
// to the same rows in an unsharded load.
std::uint64_t LoadImpl(txn::Engine& engine, const TpccConfig& config,
                       const std::function<bool(std::uint32_t)>& own) {
  std::uint64_t rows = 0;
  Rng rng(42);

  // Batch rows into transactions of ~100 writes to amortize commit costs.
  constexpr int kBatch = 100;
  std::vector<std::pair<TableId, std::pair<Key, Value>>> batch;
  auto flush = [&engine, &batch, &rows]() {
    if (batch.empty()) return;
    const Status s = engine.ExecuteWithRetry([&batch](txn::Txn& txn) {
      for (auto& [table, kv] : batch) {
        const Status st = txn.Put(table, kv.first, kv.second);
        if (!st.ok()) return st;
      }
      return Status::Ok();
    });
    assert(s.ok());
    (void)s;
    rows += batch.size();
    batch.clear();
  };
  auto add = [&batch, &flush](TableId table, Key key, Value value) {
    batch.emplace_back(table, std::make_pair(key, std::move(value)));
    if (batch.size() >= kBatch) flush();
  };

  for (std::uint32_t w = 1; w <= config.warehouses; ++w) {
    const bool owned = own(w);
    WarehouseRow wr{};
    wr.w_id = w;
    wr.w_tax = 0.05 + 0.001 * static_cast<double>(rng.Uniform(150));
    wr.w_ytd = 300000.0;
    FillName(wr.w_name, sizeof(wr.w_name), "wh", w);
    if (owned) add(kWarehouse, WarehouseKey(w), ToValue(wr));

    for (std::uint32_t d = 1; d <= config.districts_per_warehouse; ++d) {
      DistrictRow dr{};
      dr.d_id = d;
      dr.d_w_id = w;
      dr.d_tax = 0.05 + 0.001 * static_cast<double>(rng.Uniform(150));
      dr.d_ytd = 30000.0;
      dr.d_next_o_id = kInitialNextOid;
      FillName(dr.d_name, sizeof(dr.d_name), "d", d);
      if (owned) add(kDistrict, DistrictKey(w, d), ToValue(dr));

      for (std::uint32_t c = 1; c <= config.customers_per_district; ++c) {
        CustomerRow cr{};
        cr.c_id = c;
        cr.c_d_id = d;
        cr.c_w_id = w;
        cr.c_discount = 0.0001 * static_cast<double>(rng.Uniform(5000));
        cr.c_balance = -10.0;
        cr.c_ytd_payment = 10.0;
        FillName(cr.c_last, sizeof(cr.c_last), "cust", c);
        cr.c_credit[0] = rng.Uniform(10) == 0 ? 'B' : 'G';
        cr.c_credit[1] = 'C';
        if (owned) add(kCustomer, CustomerKey(w, d, c), ToValue(cr));
      }
    }
  }

  for (std::uint32_t i = 1; i <= config.items; ++i) {
    ItemRow ir{};
    ir.i_id = i;
    ir.i_im_id = static_cast<std::uint32_t>(rng.UniformRange(1, 10000));
    ir.i_price = 1.0 + 0.01 * static_cast<double>(rng.Uniform(9900));
    FillName(ir.i_name, sizeof(ir.i_name), "item", i);
    add(kItem, ItemKey(i), ToValue(ir));
  }

  for (std::uint32_t w = 1; w <= config.warehouses; ++w) {
    const bool owned = own(w);
    for (std::uint32_t i = 1; i <= config.items; ++i) {
      StockRow sr{};
      sr.s_i_id = i;
      sr.s_w_id = w;
      sr.s_quantity = static_cast<std::uint32_t>(rng.UniformRange(10, 100));
      sr.s_ytd = 0;
      sr.s_order_cnt = 0;
      if (owned) add(kStock, StockKey(w, i), ToValue(sr));
    }
  }
  flush();
  return rows;
}

}  // namespace

std::uint64_t Load(txn::Engine& engine, const TpccConfig& config) {
  return LoadImpl(engine, config, [](std::uint32_t) { return true; });
}

std::uint64_t LoadShard(txn::Engine& engine, const TpccConfig& config,
                        const ShardRouter& router, std::size_t shard) {
  return LoadImpl(engine, config, [&router, shard](std::uint32_t w) {
    return ShardOfWarehouse(router, w) == shard;
  });
}

// The warehouse-id extractors invert the packed key layouts in
// tpcc_schema.h. Registered per table so the router, not its callers, owns
// the co-location rule.
void ConfigureShardRouter(ShardRouter* router) {
  router->SetPartitionKey(kWarehouse, [](Key k) { return k; });
  router->SetPartitionKey(kDistrict, [](Key k) { return k >> 8; });
  const auto by_wd_prefix = [](Key k) { return k >> 40; };
  router->SetPartitionKey(kCustomer, by_wd_prefix);
  router->SetPartitionKey(kNewOrder, by_wd_prefix);
  router->SetPartitionKey(kOrder, by_wd_prefix);
  router->SetPartitionKey(kOrderLine, by_wd_prefix);
  router->SetPartitionKey(kStock, [](Key k) { return k >> 32; });
  // The router is NOT authoritative for these two (see tpcc.h): ITEM is a
  // per-shard replicated catalog, HISTORY a shard-local append stream —
  // placement audits must not flag their keys on "foreign" shards.
  router->MarkUnpartitioned(kItem);
  router->MarkUnpartitioned(kHistory);
}

std::size_t ShardOfWarehouse(const ShardRouter& router, std::uint32_t w) {
  return router.ShardOf(kWarehouse, WarehouseKey(w));
}

MigrationPlan WarehouseMovePlan(const ShardRouter& router, std::uint32_t w,
                                std::size_t to) {
  // Every warehouse-scoped extractor in ConfigureShardRouter reduces its
  // table's keys to the warehouse id, so token `w` names the same partition
  // in all seven tables.
  static constexpr TableId kScoped[] = {kWarehouse, kDistrict, kCustomer,
                                        kNewOrder,  kOrder,    kOrderLine,
                                        kStock};
  MigrationPlan plan;
  plan.reserve(std::size(kScoped));
  for (const TableId table : kScoped) {
    ShardMove move;
    move.table = table;
    move.token = w;
    move.from = router.RouteTokenAt(router.CurrentEpoch(), table, w);
    move.to = to;
    plan.push_back(move);
  }
  return plan;
}

namespace {

// Shared pieces of NewOrder, split so the standard and optimized variants
// can order them differently.

struct NewOrderParams {
  std::uint32_t w;
  std::uint32_t d;
  std::uint32_t c;
  std::uint32_t ol_cnt;
  std::uint32_t item_ids[15];
  std::uint32_t quantities[15];
  bool rollback;  // spec: ~1% of NewOrders abort on an unused item id
};

NewOrderParams MakeNewOrderParams(Rng& rng, const TpccConfig& cfg,
                                  std::uint32_t w) {
  NewOrderParams p{};
  p.w = w;
  p.d = static_cast<std::uint32_t>(
      rng.UniformRange(1, cfg.districts_per_warehouse));
  p.c = static_cast<std::uint32_t>(
      rng.NURand(1023, 1, cfg.customers_per_district, 259));
  p.ol_cnt = static_cast<std::uint32_t>(rng.UniformRange(5, 15));
  p.rollback = rng.Uniform(100) == 0;
  for (std::uint32_t i = 0; i < p.ol_cnt; ++i) {
    p.item_ids[i] = static_cast<std::uint32_t>(
        rng.NURand(8191, 1, cfg.items, 7911));
    p.quantities[i] = static_cast<std::uint32_t>(rng.UniformRange(1, 10));
  }
  // Acquire stock locks in a deterministic order: unordered item locking
  // makes concurrent NewOrders deadlock under 2PL and burn lock-wait
  // timeouts (the standard TPC-C implementation discipline).
  std::sort(p.item_ids, p.item_ids + p.ol_cnt);
  return p;
}

// Reads the district row and increments d_next_o_id; returns the allocated
// order id through *o_id. This is THE contended operation of NewOrder.
Status DistrictAllocateOid(txn::Txn& txn, const NewOrderParams& p,
                           std::uint32_t* o_id) {
  Value v;
  Status s = txn.ReadForUpdate(kDistrict, DistrictKey(p.w, p.d), &v);
  if (!s.ok()) return s;
  DistrictRow dr = FromValue<DistrictRow>(v);
  *o_id = dr.d_next_o_id;
  dr.d_next_o_id++;
  return txn.Update(kDistrict, DistrictKey(p.w, p.d), ToValue(dr));
}

// Per-item work: read item & stock, update stock. Uncontended for realistic
// item counts. Returns kCancelled on the spec's 1% invalid item.
Status ProcessItems(txn::Txn& txn, const NewOrderParams& p, double* total) {
  *total = 0;
  for (std::uint32_t i = 0; i < p.ol_cnt; ++i) {
    if (p.rollback && i == p.ol_cnt - 1) {
      return Status::Cancelled("invalid item id");
    }
    Value v;
    Status s = txn.Read(kItem, ItemKey(p.item_ids[i]), &v);
    if (!s.ok()) return s;
    const ItemRow ir = FromValue<ItemRow>(v);

    s = txn.ReadForUpdate(kStock, StockKey(p.w, p.item_ids[i]), &v);
    if (!s.ok()) return s;
    StockRow sr = FromValue<StockRow>(v);
    sr.s_quantity = sr.s_quantity >= p.quantities[i] + 10
                        ? sr.s_quantity - p.quantities[i]
                        : sr.s_quantity + 91 - p.quantities[i];
    sr.s_ytd += p.quantities[i];
    sr.s_order_cnt++;
    s = txn.Update(kStock, StockKey(p.w, p.item_ids[i]), ToValue(sr));
    if (!s.ok()) return s;

    *total += static_cast<double>(p.quantities[i]) * ir.i_price;
  }
  return Status::Ok();
}

// Order / NewOrder / OrderLine inserts; depend on the allocated o_id.
Status InsertOrderRows(txn::Txn& txn, const NewOrderParams& p,
                       std::uint32_t o_id) {
  OrderRow orow{};
  orow.o_id = o_id;
  orow.o_d_id = p.d;
  orow.o_w_id = p.w;
  orow.o_c_id = p.c;
  orow.o_ol_cnt = p.ol_cnt;
  Status s = txn.Insert(kOrder, OrderKey(p.w, p.d, o_id), ToValue(orow));
  if (!s.ok()) return s;

  NewOrderRow norow{o_id, p.d, p.w};
  s = txn.Insert(kNewOrder, NewOrderKey(p.w, p.d, o_id), ToValue(norow));
  if (!s.ok()) return s;

  for (std::uint32_t i = 0; i < p.ol_cnt; ++i) {
    OrderLineRow ol{};
    ol.ol_o_id = o_id;
    ol.ol_d_id = p.d;
    ol.ol_w_id = p.w;
    ol.ol_number = i + 1;
    ol.ol_i_id = p.item_ids[i];
    ol.ol_supply_w_id = p.w;
    ol.ol_quantity = p.quantities[i];
    s = txn.Insert(kOrderLine, OrderLineKey(p.w, p.d, o_id, i + 1),
                   ToValue(ol));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

Status RunNewOrder(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                   std::uint32_t w) {
  const NewOrderParams p = MakeNewOrderParams(rng, config, w);
  const bool optimized = config.optimized;

  return engine.ExecuteWithRetry([&p, optimized](txn::Txn& txn) {
    Value v;
    Status s = txn.Read(kWarehouse, WarehouseKey(p.w), &v);
    if (!s.ok()) return s;
    s = txn.Read(kCustomer, CustomerKey(p.w, p.d, p.c), &v);
    if (!s.ok()) return s;

    double total = 0;
    std::uint32_t o_id = 0;
    if (!optimized) {
      // Standard op order (spec): allocate the order id (hot district
      // write) up front, then do the per-item work.
      s = DistrictAllocateOid(txn, p, &o_id);
      if (!s.ok()) return s;
      s = ProcessItems(txn, p, &total);
      if (!s.ok()) return s;
      return InsertOrderRows(txn, p, o_id);
    }
    // Optimized (§6.1): do all uncontended per-item work first; the hot
    // district write is deferred as late as its data dependents (the order
    // rows, which need o_id) allow.
    s = ProcessItems(txn, p, &total);
    if (!s.ok()) return s;
    s = DistrictAllocateOid(txn, p, &o_id);
    if (!s.ok()) return s;
    return InsertOrderRows(txn, p, o_id);
  });
}

Status RunPayment(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                  std::uint32_t w) {
  const std::uint32_t d = static_cast<std::uint32_t>(
      rng.UniformRange(1, config.districts_per_warehouse));
  const std::uint32_t c = static_cast<std::uint32_t>(
      rng.NURand(1023, 1, config.customers_per_district, 259));
  const double amount = 1.0 + 0.01 * static_cast<double>(rng.Uniform(499900));
  const std::uint64_t h_key =
      g_history_seq.fetch_add(1, std::memory_order_relaxed);
  const bool optimized = config.optimized;

  return engine.ExecuteWithRetry([=](txn::Txn& txn) {
    Value v;

    auto update_warehouse = [&]() -> Status {
      Status s = txn.ReadForUpdate(kWarehouse, WarehouseKey(w), &v);
      if (!s.ok()) return s;
      WarehouseRow wr = FromValue<WarehouseRow>(v);
      wr.w_ytd += amount;
      return txn.Update(kWarehouse, WarehouseKey(w), ToValue(wr));
    };
    auto update_district = [&]() -> Status {
      Status s = txn.ReadForUpdate(kDistrict, DistrictKey(w, d), &v);
      if (!s.ok()) return s;
      DistrictRow dr = FromValue<DistrictRow>(v);
      dr.d_ytd += amount;
      return txn.Update(kDistrict, DistrictKey(w, d), ToValue(dr));
    };
    auto update_customer_and_history = [&]() -> Status {
      Status s = txn.ReadForUpdate(kCustomer, CustomerKey(w, d, c), &v);
      if (!s.ok()) return s;
      CustomerRow cr = FromValue<CustomerRow>(v);
      cr.c_balance -= amount;
      cr.c_ytd_payment += amount;
      cr.c_payment_cnt++;
      s = txn.Update(kCustomer, CustomerKey(w, d, c), ToValue(cr));
      if (!s.ok()) return s;

      HistoryRow hr{};
      hr.h_c_id = c;
      hr.h_c_d_id = d;
      hr.h_c_w_id = w;
      hr.h_d_id = d;
      hr.h_w_id = w;
      hr.h_amount = amount;
      return txn.Insert(kHistory, HistoryKey(h_key), ToValue(hr));
    };

    if (!optimized) {
      // Standard op order (spec): warehouse first — the hottest row's lock
      // is held for nearly the whole transaction.
      Status s = update_warehouse();
      if (!s.ok()) return s;
      s = update_district();
      if (!s.ok()) return s;
      return update_customer_and_history();
    }
    // Optimized (§6.1): the warehouse ytd update has no data dependents, so
    // it can be deferred all the way to the end — this is the optimization
    // that increases the primary's throughput >7x and exposes KuaFu's
    // unbounded lag (Fig. 6).
    Status s = update_customer_and_history();
    if (!s.ok()) return s;
    s = update_district();
    if (!s.ok()) return s;
    return update_warehouse();
  });
}

Status RunDelivery(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                   std::uint32_t w, std::uint32_t* delivered) {
  const std::uint32_t carrier =
      static_cast<std::uint32_t>(rng.UniformRange(1, 10));
  std::uint32_t count = 0;
  const Status s = engine.ExecuteWithRetry([&](txn::Txn& txn) {
    count = 0;
    for (std::uint32_t d = 1; d <= config.districts_per_warehouse; ++d) {
      Value v;
      Status st = txn.ReadForUpdate(kDistrict, DistrictKey(w, d), &v);
      if (!st.ok()) return st;
      DistrictRow dr = FromValue<DistrictRow>(v);
      const std::uint32_t candidate = dr.d_last_delivered + kInitialNextOid;
      if (candidate >= dr.d_next_o_id) continue;  // nothing undelivered

      // Consume the oldest NEW_ORDER row.
      st = txn.Delete(kNewOrder, NewOrderKey(w, d, candidate));
      if (st.code() == StatusCode::kNotFound) {
        // The order committed its district increment but we raced its
        // NEW_ORDER insert visibility; treat as nothing to deliver.
        continue;
      }
      if (!st.ok()) return st;

      // Stamp the carrier on the order and total its lines.
      st = txn.Read(kOrder, OrderKey(w, d, candidate), &v);
      if (!st.ok()) return st;
      OrderRow orow = FromValue<OrderRow>(v);
      orow.o_carrier_id = carrier;
      st = txn.Update(kOrder, OrderKey(w, d, candidate), ToValue(orow));
      if (!st.ok()) return st;

      double total = 0;
      for (std::uint32_t ol = 1; ol <= orow.o_ol_cnt; ++ol) {
        st = txn.Read(kOrderLine, OrderLineKey(w, d, candidate, ol), &v);
        if (!st.ok()) return st;
        total += FromValue<OrderLineRow>(v).ol_amount +
                 FromValue<OrderLineRow>(v).ol_quantity;  // amount proxy
      }

      // Credit the customer.
      st = txn.ReadForUpdate(kCustomer,
                             CustomerKey(w, d, orow.o_c_id), &v);
      if (!st.ok()) return st;
      CustomerRow cr = FromValue<CustomerRow>(v);
      cr.c_balance += total;
      cr.c_delivery_cnt++;
      st = txn.Update(kCustomer, CustomerKey(w, d, orow.o_c_id),
                      ToValue(cr));
      if (!st.ok()) return st;

      // Advance the delivery cursor.
      dr.d_last_delivered++;
      st = txn.Update(kDistrict, DistrictKey(w, d), ToValue(dr));
      if (!st.ok()) return st;
      ++count;
    }
    return Status::Ok();
  });
  if (delivered != nullptr) *delivered = s.ok() ? count : 0;
  return s;
}

Status RunOrderStatus(txn::Engine& engine, Rng& rng,
                      const TpccConfig& config, std::uint32_t w) {
  const std::uint32_t d = static_cast<std::uint32_t>(
      rng.UniformRange(1, config.districts_per_warehouse));
  const std::uint32_t c = static_cast<std::uint32_t>(
      rng.NURand(1023, 1, config.customers_per_district, 259));

  return engine.ExecuteWithRetry([&, d, c](txn::Txn& txn) {
    Value v;
    Status st = txn.Read(kCustomer, CustomerKey(w, d, c), &v);
    if (!st.ok()) return st;

    st = txn.Read(kDistrict, DistrictKey(w, d), &v);
    if (!st.ok()) return st;
    const DistrictRow dr = FromValue<DistrictRow>(v);

    // Bounded backward scan for the customer's most recent order (no
    // order-by-customer index in this storage engine; see header).
    constexpr std::uint32_t kScanLimit = 100;
    for (std::uint32_t o = dr.d_next_o_id;
         o-- > kInitialNextOid && dr.d_next_o_id - o <= kScanLimit;) {
      st = txn.Read(kOrder, OrderKey(w, d, o), &v);
      if (!st.ok()) continue;
      const OrderRow orow = FromValue<OrderRow>(v);
      if (orow.o_c_id != c) continue;
      for (std::uint32_t ol = 1; ol <= orow.o_ol_cnt; ++ol) {
        st = txn.Read(kOrderLine, OrderLineKey(w, d, o, ol), &v);
        if (!st.ok()) return st;
      }
      break;
    }
    return Status::Ok();
  });
}

namespace {

// Shared StockLevel body over any point-read function (primary txn or
// backup snapshot).
template <typename ReadFn>
Status StockLevelBody(const ReadFn& read, const TpccConfig& config,
                      std::uint32_t w, std::uint32_t d,
                      std::uint32_t threshold, std::uint32_t* low_stock) {
  (void)config;
  Value v;
  Status st = read(kDistrict, DistrictKey(w, d), &v);
  if (!st.ok()) return st;
  const DistrictRow dr = FromValue<DistrictRow>(v);

  std::set<std::uint32_t> low_items;
  const std::uint32_t last = dr.d_next_o_id;
  const std::uint32_t first =
      last > 20 + kInitialNextOid ? last - 20 : kInitialNextOid;
  for (std::uint32_t o = first; o < last; ++o) {
    st = read(kOrder, OrderKey(w, d, o), &v);
    if (!st.ok()) continue;  // order not yet visible at this snapshot
    const OrderRow orow = FromValue<OrderRow>(v);
    for (std::uint32_t ol = 1; ol <= orow.o_ol_cnt; ++ol) {
      st = read(kOrderLine, OrderLineKey(w, d, o, ol), &v);
      if (!st.ok()) continue;
      const OrderLineRow line = FromValue<OrderLineRow>(v);
      st = read(kStock, StockKey(w, line.ol_i_id), &v);
      if (!st.ok()) continue;
      if (FromValue<StockRow>(v).s_quantity < threshold) {
        low_items.insert(line.ol_i_id);
      }
    }
  }
  if (low_stock != nullptr) {
    *low_stock = static_cast<std::uint32_t>(low_items.size());
  }
  return Status::Ok();
}

}  // namespace

Status RunStockLevel(txn::Engine& engine, Rng& rng, const TpccConfig& config,
                     std::uint32_t w, std::uint32_t* low_stock) {
  const std::uint32_t d = static_cast<std::uint32_t>(
      rng.UniformRange(1, config.districts_per_warehouse));
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(rng.UniformRange(10, 20));
  return engine.ExecuteWithRetry([&](txn::Txn& txn) {
    return StockLevelBody(
        [&txn](TableId t, Key k, Value* out) { return txn.Read(t, k, out); },
        config, w, d, threshold, low_stock);
  });
}

Status RunStockLevelOnBackup(replica::ReplicaBase& replica, Rng& rng,
                             const TpccConfig& config, std::uint32_t w,
                             std::uint32_t* low_stock) {
  const std::uint32_t d = static_cast<std::uint32_t>(
      rng.UniformRange(1, config.districts_per_warehouse));
  const std::uint32_t threshold =
      static_cast<std::uint32_t>(rng.UniformRange(10, 20));
  Status result = Status::Ok();
  // One Snapshot = one stable read point for the whole query; Get also runs
  // lazy protocols' deferred instantiation, so Query Fresh backups pay
  // their §9 read-path cost here too.
  replica.ReadOnlyTxn([&](const c5::Snapshot& snap) {
    result = StockLevelBody(
        [&snap](TableId t, Key k, Value* out) { return snap.Get(t, k, out); },
        config, w, d, threshold, low_stock);
  });
  return result;
}

Status CountLowStockOnBackup(replica::ReplicaBase& replica, std::uint32_t w,
                             std::uint32_t threshold, std::uint64_t* low) {
  // Warehouse w's stock keys occupy exactly [w << 32, (w+1) << 32).
  const Key lo = StockKey(w, 0);
  const Key hi = StockKey(w + 1, 0);
  AggSpec spec;
  spec.op = AggOp::kCount;
  spec.field_offset = offsetof(StockRow, s_quantity);
  spec.field_width = sizeof(StockRow::s_quantity);
  spec.filter_below = threshold;
  replica.ReadOnlyTxn([&](const c5::Snapshot& snap) {
    *low = snap.Aggregate(kStock, lo, hi, spec).rows;
  });
  return Status::Ok();
}

Status DistrictOrderLineVolumeOnBackup(replica::ReplicaBase& replica,
                                       std::uint32_t w, std::uint32_t d,
                                       std::uint64_t* lines,
                                       std::uint64_t* total_quantity) {
  // District (w, d)'s order-line keys share the ((w << 8) | d) << 32 prefix.
  const Key lo = OrderLineKey(w, d, 0, 0);
  const Key hi = OrderLineKey(w, d + 1, 0, 0);
  std::uint64_t n = 0, qty = 0;
  replica.ReadOnlyTxn([&](const c5::Snapshot& snap) {
    for (auto it = snap.Scan(kOrderLine, lo, hi); it.Valid(); it.Next()) {
      ++n;
      qty += FromValue<OrderLineRow>(it.value()).ol_quantity;
    }
  });
  if (lines != nullptr) *lines = n;
  if (total_quantity != nullptr) *total_quantity = qty;
  return Status::Ok();
}

bool CheckDistrictOrderInvariant(storage::Database& db, const TpccConfig& cfg,
                                 std::uint32_t w, std::uint32_t d,
                                 Timestamp ts) {
  (void)cfg;
  const auto guard = db.epochs().Enter();
  const storage::Version* dv = db.ReadKeyAt(kDistrict, DistrictKey(w, d), ts);
  if (dv == nullptr || dv->deleted) return false;
  const DistrictRow dr = FromValue<DistrictRow>(dv->value());

  // Every order id below d_next_o_id must exist at ts; the id at
  // d_next_o_id must not. (Orders are inserted in the same transaction that
  // increments the counter, so any MPC snapshot satisfies this.)
  for (std::uint32_t o = kInitialNextOid; o < dr.d_next_o_id; ++o) {
    const storage::Version* ov = db.ReadKeyAt(kOrder, OrderKey(w, d, o), ts);
    if (ov == nullptr || ov->deleted) return false;
  }
  const storage::Version* next =
      db.ReadKeyAt(kOrder, OrderKey(w, d, dr.d_next_o_id), ts);
  return next == nullptr;
}

}  // namespace c5::workload::tpcc
