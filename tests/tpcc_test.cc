#include "workload/tpcc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "core/protocol_factory.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/runner.h"

namespace c5::workload::tpcc {
namespace {

TpccConfig SmallConfig() {
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 50;
  cfg.items = 200;
  return cfg;
}

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : engine_(&db_, &collector_, &clock_) {
    CreateTables(&db_);
    cfg_ = SmallConfig();
    loaded_ = Load(engine_, cfg_);
  }

  log::Log run_log() { return collector_.Coalesce(); }

  storage::Database db_;
  TxnClock clock_;
  log::PerThreadLogCollector collector_;
  txn::MvtsoEngine engine_;
  TpccConfig cfg_;
  std::uint64_t loaded_ = 0;
};

TEST_F(TpccTest, LoadPopulatesExpectedRowCounts) {
  const std::uint64_t expected =
      1                                     // warehouse
      + cfg_.districts_per_warehouse       // districts
      + cfg_.districts_per_warehouse * cfg_.customers_per_district
      + cfg_.items                          // items
      + cfg_.items;                         // stock
  EXPECT_EQ(loaded_, expected);
  EXPECT_EQ(db_.index(kWarehouse).Size(), 1u);
  EXPECT_EQ(db_.index(kDistrict).Size(), cfg_.districts_per_warehouse);
  EXPECT_EQ(db_.index(kItem).Size(), cfg_.items);
  EXPECT_EQ(db_.index(kStock).Size(), cfg_.items);
}

TEST_F(TpccTest, LoadedRowsRoundTrip) {
  const auto guard = db_.epochs().Enter();
  const auto* v = db_.ReadKeyAt(kDistrict, DistrictKey(1, 1), kMaxTimestamp);
  ASSERT_NE(v, nullptr);
  const DistrictRow dr = FromValue<DistrictRow>(v->value());
  EXPECT_EQ(dr.d_id, 1u);
  EXPECT_EQ(dr.d_w_id, 1u);
  EXPECT_EQ(dr.d_next_o_id, 1u);
}

TEST_F(TpccTest, NewOrderCommitsAndAllocatesOrderId) {
  Rng rng(test::TestSeed(1));
  std::uint64_t committed = 0;
  for (int i = 0; i < 50; ++i) {
    const Status s = RunNewOrder(engine_, rng, cfg_, 1);
    if (s.ok()) ++committed;
    else EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  }
  EXPECT_GT(committed, 30u);

  // Sum of (d_next_o_id - 1) over districts == committed NewOrders.
  const auto guard = db_.epochs().Enter();
  std::uint64_t total_orders = 0;
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    const auto* v = db_.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
    ASSERT_NE(v, nullptr);
    total_orders += FromValue<DistrictRow>(v->value()).d_next_o_id - 1;
  }
  EXPECT_EQ(total_orders, committed);
  EXPECT_EQ(db_.index(kOrder).Size(), committed);
  EXPECT_EQ(db_.index(kNewOrder).Size(), committed);
}

TEST_F(TpccTest, NewOrderUpdatesStock) {
  // Force a deterministic single order and verify stock changes.
  Rng rng(test::TestSeed(2));
  std::uint64_t ytd_before = 0, ytd_after = 0;
  {
    const auto guard = db_.epochs().Enter();
    for (std::uint32_t i = 1; i <= cfg_.items; ++i) {
      const auto* v = db_.ReadKeyAt(kStock, StockKey(1, i), kMaxTimestamp);
      ytd_before += static_cast<std::uint64_t>(
          FromValue<StockRow>(v->value()).s_ytd);
    }
  }
  Status s;
  do {
    s = RunNewOrder(engine_, rng, cfg_, 1);
  } while (s.code() == StatusCode::kCancelled);
  ASSERT_TRUE(s.ok());
  {
    const auto guard = db_.epochs().Enter();
    for (std::uint32_t i = 1; i <= cfg_.items; ++i) {
      const auto* v = db_.ReadKeyAt(kStock, StockKey(1, i), kMaxTimestamp);
      ytd_after += static_cast<std::uint64_t>(
          FromValue<StockRow>(v->value()).s_ytd);
    }
  }
  // Ordered quantities (5..15 items x 1..10 each) land in stock ytd.
  EXPECT_GT(ytd_after, ytd_before);
  EXPECT_LE(ytd_after - ytd_before, 150u);
}

TEST_F(TpccTest, PaymentUpdatesBalancesConsistently) {
  Rng rng(test::TestSeed(3));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(RunPayment(engine_, rng, cfg_, 1).ok());
  }
  // Money conservation: warehouse ytd increase == district ytd increases
  // == customer ytd_payment increases == history amounts.
  const auto guard = db_.epochs().Enter();
  const auto* wv = db_.ReadKeyAt(kWarehouse, WarehouseKey(1), kMaxTimestamp);
  const double w_delta = FromValue<WarehouseRow>(wv->value()).w_ytd - 300000.0;

  double d_delta = 0;
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    const auto* dv = db_.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
    d_delta += FromValue<DistrictRow>(dv->value()).d_ytd - 30000.0;
  }
  EXPECT_NEAR(w_delta, d_delta, 1e-6);
  EXPECT_GT(w_delta, 0);
  EXPECT_EQ(db_.index(kHistory).Size(), 50u);
}

TEST_F(TpccTest, OptimizedVariantsPreserveSemantics) {
  // The §6.1 op reordering must not change the effects, only the op order.
  cfg_.optimized = true;
  Rng rng(test::TestSeed(4));
  std::uint64_t committed = 0;
  for (int i = 0; i < 30; ++i) {
    const Status s = RunNewOrder(engine_, rng, cfg_, 1);
    if (s.ok()) ++committed;
  }
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(RunPayment(engine_, rng, cfg_, 1).ok());

  const auto guard = db_.epochs().Enter();
  std::uint64_t total_orders = 0;
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    const auto* v = db_.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
    total_orders += FromValue<DistrictRow>(v->value()).d_next_o_id - 1;
  }
  EXPECT_EQ(total_orders, committed);
  EXPECT_TRUE(CheckDistrictOrderInvariant(db_, cfg_, 1, 1, kMaxTimestamp));
}

TEST_F(TpccTest, ConcurrentNewOrdersNeverSkipOrLoseOrderIds) {
  RunClosedLoop(4, std::chrono::milliseconds(0), 50,
                [this](std::uint32_t client, Rng& rng) {
                  (void)client;
                  return RunNewOrder(engine_, rng, cfg_, 1);
                },
                test::TestSeed(1));
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    EXPECT_TRUE(CheckDistrictOrderInvariant(db_, cfg_, 1, d, kMaxTimestamp))
        << "district " << d;
  }
}

TEST_F(TpccTest, MixReplicatesAndInvariantHoldsAtBackupSnapshots) {
  // Run a 50/50 mix, replicate through C5, and check the district/order
  // invariant both at the final backup state and at the visible snapshot.
  RunClosedLoop(4, std::chrono::milliseconds(0), 40,
                [this](std::uint32_t client, Rng& rng) {
                  (void)client;
                  return rng.Uniform(2) == 0
                             ? RunNewOrder(engine_, rng, cfg_, 1)
                             : RunPayment(engine_, rng, cfg_, 1);
                },
                test::TestSeed(1));
  log::Log log = run_log();
  ASSERT_TRUE(test::LogIsWellFormed(log));

  storage::Database backup;
  CreateTables(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup,
                                   core::ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(db_, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    EXPECT_TRUE(CheckDistrictOrderInvariant(backup, cfg_, 1, d,
                                            replica->VisibleTimestamp()));
  }
}

TEST_F(TpccTest, TwoPhaseLockingRunsTheSameWorkload) {
  storage::Database db2;
  TxnClock clock2;
  log::PerThreadLogCollector collector2;
  txn::TwoPhaseLockingEngine eng(&db2, &collector2, &clock2);
  CreateTables(&db2);
  Load(eng, cfg_);
  RunClosedLoop(4, std::chrono::milliseconds(0), 30,
                [&](std::uint32_t client, Rng& rng) {
                  (void)client;
                  return rng.Uniform(2) == 0 ? RunNewOrder(eng, rng, cfg_, 1)
                                             : RunPayment(eng, rng, cfg_, 1);
                },
                test::TestSeed(1));
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    EXPECT_TRUE(CheckDistrictOrderInvariant(db2, cfg_, 1, d, kMaxTimestamp))
        << "district " << d;
  }
}

TEST(TpccKeysTest, KeyEncodingsAreInjectivePerTable) {
  // Keys only need to be unique within their own table (each table has its
  // own index). Check each encoding separately over realistic ranges.
  std::set<Key> warehouses, districts, customers, orders, order_lines;
  for (std::uint32_t w = 1; w <= 3; ++w) {
    ASSERT_TRUE(warehouses.insert(WarehouseKey(w)).second);
    for (std::uint32_t d = 1; d <= 10; ++d) {
      ASSERT_TRUE(districts.insert(DistrictKey(w, d)).second);
      for (std::uint32_t c = 1; c <= 20; ++c) {
        ASSERT_TRUE(customers.insert(CustomerKey(w, d, c)).second);
      }
      for (std::uint32_t o = 1; o <= 20; ++o) {
        ASSERT_TRUE(orders.insert(OrderKey(w, d, o)).second);
        for (std::uint32_t ol = 1; ol <= 15; ++ol) {
          ASSERT_TRUE(order_lines.insert(OrderLineKey(w, d, o, ol)).second);
        }
      }
    }
  }
}

TEST(TpccSchemaTest, RowsRoundTripThroughValues) {
  DistrictRow dr{};
  dr.d_id = 7;
  dr.d_w_id = 3;
  dr.d_next_o_id = 42;
  dr.d_tax = 0.0625;
  const Value v = ToValue(dr);
  EXPECT_EQ(v.size(), sizeof(DistrictRow));
  const DistrictRow back = FromValue<DistrictRow>(v);
  EXPECT_EQ(back.d_id, 7u);
  EXPECT_EQ(back.d_w_id, 3u);
  EXPECT_EQ(back.d_next_o_id, 42u);
  EXPECT_DOUBLE_EQ(back.d_tax, 0.0625);
}

}  // namespace
}  // namespace c5::workload::tpcc

namespace c5::workload::tpcc {
namespace {

class TpccFullMixTest : public ::testing::Test {
 protected:
  TpccFullMixTest() : engine_(&db_, &collector_, &clock_) {
    CreateTables(&db_);
    cfg_ = SmallConfig();
    Load(engine_, cfg_);
  }

  storage::Database db_;
  TxnClock clock_;
  log::PerThreadLogCollector collector_;
  txn::MvtsoEngine engine_;
  TpccConfig cfg_;
};

TEST_F(TpccFullMixTest, DeliveryConsumesOldestOrders) {
  Rng rng(test::TestSeed(11));
  std::uint64_t orders = 0;
  for (int i = 0; i < 30; ++i) {
    if (RunNewOrder(engine_, rng, cfg_, 1).ok()) ++orders;
  }
  std::uint32_t total_delivered = 0;
  for (int i = 0; i < 50; ++i) {
    std::uint32_t delivered = 0;
    ASSERT_TRUE(RunDelivery(engine_, rng, cfg_, 1, &delivered).ok());
    total_delivered += delivered;
    if (delivered == 0) break;
  }
  EXPECT_EQ(total_delivered, orders);
  // All NEW_ORDER rows consumed; ORDER rows remain with carriers stamped.
  const auto guard = db_.epochs().Enter();
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    const auto* dv = db_.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
    const DistrictRow dr = FromValue<DistrictRow>(dv->value());
    EXPECT_EQ(dr.d_last_delivered + 1, dr.d_next_o_id);
    for (std::uint32_t o = 1; o < dr.d_next_o_id; ++o) {
      const auto* nv = db_.ReadKeyAt(kNewOrder, NewOrderKey(1, d, o),
                                     kMaxTimestamp);
      EXPECT_TRUE(nv == nullptr || nv->deleted);
      const auto* ov = db_.ReadKeyAt(kOrder, OrderKey(1, d, o), kMaxTimestamp);
      ASSERT_NE(ov, nullptr);
      EXPECT_GT(FromValue<OrderRow>(ov->value()).o_carrier_id, 0u);
    }
  }
}

TEST_F(TpccFullMixTest, DeliveryOnEmptyWarehouseDeliversNothing) {
  Rng rng(test::TestSeed(12));
  std::uint32_t delivered = 99;
  ASSERT_TRUE(RunDelivery(engine_, rng, cfg_, 1, &delivered).ok());
  EXPECT_EQ(delivered, 0u);
}

TEST_F(TpccFullMixTest, OrderStatusAndStockLevelRun) {
  Rng rng(test::TestSeed(13));
  for (int i = 0; i < 20; ++i) (void)RunNewOrder(engine_, rng, cfg_, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(RunOrderStatus(engine_, rng, cfg_, 1).ok());
    std::uint32_t low = 0;
    ASSERT_TRUE(RunStockLevel(engine_, rng, cfg_, 1, &low).ok());
    EXPECT_LE(low, 20u * 15u);
  }
}

TEST_F(TpccFullMixTest, FullFiveTransactionMixPreservesInvariants) {
  RunClosedLoop(4, std::chrono::milliseconds(0), 60,
                [this](std::uint32_t client, Rng& rng) {
                  (void)client;
                  const auto roll = rng.Uniform(100);
                  if (roll < 45) return RunNewOrder(engine_, rng, cfg_, 1);
                  if (roll < 88) return RunPayment(engine_, rng, cfg_, 1);
                  if (roll < 92) {
                    std::uint32_t d = 0;
                    return RunDelivery(engine_, rng, cfg_, 1, &d);
                  }
                  if (roll < 96) return RunOrderStatus(engine_, rng, cfg_, 1);
                  std::uint32_t low = 0;
                  return RunStockLevel(engine_, rng, cfg_, 1, &low);
                },
                test::TestSeed(1));
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    EXPECT_TRUE(CheckDistrictOrderInvariant(db_, cfg_, 1, d, kMaxTimestamp))
        << "district " << d;
  }
}

TEST_F(TpccFullMixTest, FullMixReplicatesAndStockLevelRunsOnBackup) {
  Rng rng(test::TestSeed(14));
  RunClosedLoop(4, std::chrono::milliseconds(0), 40,
                [this](std::uint32_t client, Rng& rng2) {
                  (void)client;
                  const auto roll = rng2.Uniform(100);
                  if (roll < 50) return RunNewOrder(engine_, rng2, cfg_, 1);
                  if (roll < 90) return RunPayment(engine_, rng2, cfg_, 1);
                  std::uint32_t d = 0;
                  return RunDelivery(engine_, rng2, cfg_, 1, &d);
                },
                test::TestSeed(1));
  log::Log log = collector_.Coalesce();
  storage::Database backup;
  CreateTables(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup,
                                   core::ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();

  // The paper's read path: read-only analytics on the backup's snapshot.
  for (int i = 0; i < 10; ++i) {
    std::uint32_t low = 0;
    EXPECT_TRUE(RunStockLevelOnBackup(*replica, rng, cfg_, 1, &low).ok());
  }
  replica->Stop();
  EXPECT_EQ(test::StateDigest(db_, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

// ---- Analytical scenario battery (HTAP, PR 10) -----------------------------
// The ordered-index read surface on a backup: whole-warehouse stock
// aggregation and district order-line range scans, checked against oracles
// computed by point reads on the primary.

TEST_F(TpccFullMixTest, AnalyticalQueriesOnBackupMatchPrimaryOracle) {
  RunClosedLoop(4, std::chrono::milliseconds(0), 40,
                [this](std::uint32_t client, Rng& rng) {
                  (void)client;
                  const auto roll = rng.Uniform(100);
                  if (roll < 60) return RunNewOrder(engine_, rng, cfg_, 1);
                  if (roll < 95) return RunPayment(engine_, rng, cfg_, 1);
                  std::uint32_t d = 0;
                  return RunDelivery(engine_, rng, cfg_, 1, &d);
                },
                test::TestSeed(21));
  log::Log log = collector_.Coalesce();
  storage::Database backup;
  CreateTables(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = core::MakeReplica(core::ProtocolKind::kC5, &backup,
                                   core::ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();

  // Whole-warehouse low-stock count vs a point-read fold on the primary.
  for (const std::uint32_t threshold : {0u, 12u, 1000000u}) {
    std::uint64_t want = 0;
    {
      const auto guard = db_.epochs().Enter();
      for (std::uint32_t i = 1; i <= cfg_.items; ++i) {
        const auto* v = db_.ReadKeyAt(kStock, StockKey(1, i), kMaxTimestamp);
        ASSERT_NE(v, nullptr);
        if (FromValue<StockRow>(v->value()).s_quantity < threshold) ++want;
      }
    }
    std::uint64_t got = 0;
    ASSERT_TRUE(CountLowStockOnBackup(*replica, 1, threshold, &got).ok());
    EXPECT_EQ(got, want) << "threshold " << threshold;
  }

  // District order-line volume vs an order-walk oracle on the primary.
  for (std::uint32_t d = 1; d <= cfg_.districts_per_warehouse; ++d) {
    std::uint64_t want_lines = 0, want_qty = 0;
    {
      const auto guard = db_.epochs().Enter();
      const auto* dv =
          db_.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
      ASSERT_NE(dv, nullptr);
      const DistrictRow dr = FromValue<DistrictRow>(dv->value());
      for (std::uint32_t o = 1; o < dr.d_next_o_id; ++o) {
        const auto* ov = db_.ReadKeyAt(kOrder, OrderKey(1, d, o),
                                       kMaxTimestamp);
        ASSERT_NE(ov, nullptr);
        const OrderRow orow = FromValue<OrderRow>(ov->value());
        for (std::uint32_t ol = 1; ol <= orow.o_ol_cnt; ++ol) {
          const auto* lv = db_.ReadKeyAt(kOrderLine,
                                         OrderLineKey(1, d, o, ol),
                                         kMaxTimestamp);
          ASSERT_NE(lv, nullptr);
          ++want_lines;
          want_qty += FromValue<OrderLineRow>(lv->value()).ol_quantity;
        }
      }
    }
    std::uint64_t lines = 0, qty = 0;
    ASSERT_TRUE(
        DistrictOrderLineVolumeOnBackup(*replica, 1, d, &lines, &qty).ok());
    EXPECT_EQ(lines, want_lines) << "district " << d;
    EXPECT_EQ(qty, want_qty) << "district " << d;
  }
  replica->Stop();
}

// Live HTAP: analytical queries run on the backup WHILE the primary commits
// and replay streams. Monotonic-prefix consistency makes the per-district
// line count non-decreasing across successive snapshots; after the writer
// stops and the backup drains, the analytics converge to the primary's
// final state.
TEST(TpccAnalyticalLiveTest, AnalyticsStayConsistentWhileReplayStreams) {
  const TpccConfig cfg = SmallConfig();
  storage::Database primary_db, backup_db;
  CreateTables(&primary_db);
  CreateTables(&backup_db);
  TxnClock clock;
  log::OnlineLogCollector collector(/*segment_records=*/256);
  txn::TwoPhaseLockingEngine engine(&primary_db, &collector, &clock);
  collector.SetReleaseHorizon([&engine] { return engine.LogHorizon(); });
  Load(engine, cfg);

  log::ChannelSegmentSource source(&collector.channel());
  core::ProtocolOptions options;
  options.num_workers = 2;
  options.snapshot_interval = std::chrono::microseconds(100);
  auto replica =
      core::MakeReplica(core::ProtocolKind::kC5, &backup_db, options);
  replica->Start(&source);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(test::TestSeed(22));
    for (int i = 0; i < 300; ++i) {
      (void)RunNewOrder(engine, rng, cfg, 1);
      collector.Flush();
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t last_lines = 0;
  std::uint64_t probes = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::uint64_t lines = 0, qty = 0;
    ASSERT_TRUE(
        DistrictOrderLineVolumeOnBackup(*replica, 1, 1, &lines, &qty).ok());
    EXPECT_GE(lines, last_lines)
        << "order-line count went backwards across snapshots";
    last_lines = lines;
    std::uint64_t low = 0;
    ASSERT_TRUE(CountLowStockOnBackup(*replica, 1, 1000000u, &low).ok());
    EXPECT_LE(low, cfg.items) << "aggregate saw more stock rows than exist";
    ++probes;
  }
  writer.join();
  EXPECT_GT(probes, 0u);

  // Drain, then the analytics must agree with the primary exactly.
  collector.Flush();
  const Timestamp target = clock.Latest();
  while (replica->VisibleTimestamp() < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::uint64_t want_lines = 0;
  {
    const auto guard = primary_db.epochs().Enter();
    const auto* dv =
        primary_db.ReadKeyAt(kDistrict, DistrictKey(1, 1), kMaxTimestamp);
    ASSERT_NE(dv, nullptr);
    const DistrictRow dr = FromValue<DistrictRow>(dv->value());
    for (std::uint32_t o = 1; o < dr.d_next_o_id; ++o) {
      const auto* ov =
          primary_db.ReadKeyAt(kOrder, OrderKey(1, 1, o), kMaxTimestamp);
      ASSERT_NE(ov, nullptr);
      want_lines += FromValue<OrderRow>(ov->value()).o_ol_cnt;
    }
  }
  std::uint64_t lines = 0, qty = 0;
  ASSERT_TRUE(
      DistrictOrderLineVolumeOnBackup(*replica, 1, 1, &lines, &qty).ok());
  EXPECT_EQ(lines, want_lines);
  EXPECT_GE(lines, last_lines);

  collector.Finish();
  replica->WaitUntilCaughtUp();
  replica->Stop();
}

}  // namespace
}  // namespace c5::workload::tpcc
