// The `tpcc` workload: the paper's MyRocks pairing — a 2PL primary and a
// C5-MyRocks backup — under TPC-C NewOrder / Payment / Delivery on one
// warehouse (hot warehouse and district rows, growing order tables), with
// analytical reads served by the backup.

#include <string>

#include "api/snapshot.h"
#include "harness.h"
#include "workload/tpcc.h"

namespace c5bench {
namespace {

namespace tpcc = c5::workload::tpcc;

constexpr std::uint32_t kWarehouse = 1;
// Growing tables (history, new_order, order, order_line) are pre-sized to
// this multiple of tpcc::TableSpecs' estimate, so no index rehash lands
// inside a measured run.
constexpr std::uint64_t kGrowthHeadroom = 2;

// Offered write transactions/s (two writer threads), the writer mix (TPC-C's
// NewOrder 45 : Payment 43 : Delivery 4) and the reader mix (requests/s on
// the one backup-reader thread).
constexpr double kWriteRate = 10'000;
constexpr std::uint64_t kNewOrderWeight = 45;
constexpr std::uint64_t kPaymentWeight = 43;
constexpr std::uint64_t kDeliveryWeight = 4;
constexpr double kCustomerGetRate = 2'000;
constexpr double kStockLevelRate = 100;
constexpr double kLowStockRate = 100;

class TpccWorkload : public Workload {
 public:
  void Start() override {
    c5::ClusterOptions o;
    o.WithEngine(c5::ha::EngineKind::kTwoPhaseLocking)
        .WithGcEvery(16)
        .WithBackups(1, c5::core::ProtocolKind::kC5MyRocks);
    cluster_ = std::make_unique<c5::Cluster>(o);
    for (const tpcc::TableSpec& spec : tpcc::TableSpecs(&config_)) {
      const std::string name = spec.name;
      const bool grows = name == "history" || name == "new_order" ||
                         name == "order" || name == "order_line";
      cluster_->CreateTable(name, spec.expected_keys *
                                      (grows ? kGrowthHeadroom : 1));
    }
    cluster_->Start();
  }

  void Preload() override {
    InsertIndexSentinels(*cluster_, tpcc::kNumTables);
    tpcc::Load(cluster_->engine(), config_);
    WaitCovered(*cluster_, cluster_->clock().Latest());
  }

  void Teardown() override { cluster_.reset(); }
  c5::Cluster& cluster() override { return *cluster_; }

  LoadPlan Plan() const override {
    LoadPlan plan;
    plan.threads = {{true, kWriteRate / 2},
                    {true, kWriteRate / 2},
                    {false, kCustomerGetRate + kStockLevelRate + kLowStockRate}};
    plan.capacity_txns = 30'000;
    return plan;
  }

  OpResult Run(LoadThread& t, Tracer& tr) override {
    return t.writer ? Write(t, tr) : Read(t, tr);
  }

  void Verify(GateReport* report) override {
    VerifyReplicasMatchPrimary(*cluster_, tpcc::kNumTables, report);
    c5::BackupNode& backup = cluster_->backup(0);
    for (std::uint32_t d = 1; d <= config_.districts_per_warehouse; ++d) {
      report->Check(tpcc::CheckDistrictOrderInvariant(
                        backup.db(), config_, kWarehouse, d,
                        backup.VisibleTimestamp()),
                    "district " + std::to_string(d) +
                        " order invariant broken on the backup");
    }
  }

 private:
  OpResult Write(LoadThread& t, Tracer& tr) {
    c5::txn::Engine& engine = cluster_->engine();
    const std::uint64_t pick = t.rng.Uniform(kNewOrderWeight + kPaymentWeight +
                                             kDeliveryWeight);
    const std::int64_t t0 = tr.Mark();
    c5::Status s;
    SpanName name = SpanName::kNewOrder;
    bool wrote = true;
    if (pick < kNewOrderWeight) {
      s = tpcc::RunNewOrder(engine, t.rng, config_, kWarehouse);
      // The spec's 1% rollback: a successful outcome that writes nothing.
      if (s.code() == c5::StatusCode::kCancelled) {
        s = c5::Status::Ok();
        wrote = false;
      }
    } else if (pick < kNewOrderWeight + kPaymentWeight) {
      name = SpanName::kPayment;
      s = tpcc::RunPayment(engine, t.rng, config_, kWarehouse);
    } else {
      name = SpanName::kDelivery;
      std::uint32_t delivered = 0;
      s = tpcc::RunDelivery(engine, t.rng, config_, kWarehouse, &delivered);
      wrote = delivered > 0;
    }
    const std::int64_t t1 = tr.Mark();
    tr.SpanAt(name, t0, t1, tr.SpanAt(SpanName::kExecute, t0, t1));
    OpResult r;
    r.cls = OpClass::kCommit;
    r.failed = !s.ok();
    // 2PL draws commit LSNs only for committing write transactions, all of
    // which are logged, so the clock's latest value right after commit is a
    // live upper bound on this transaction's LSN.
    if (s.ok() && wrote) r.commit_ts = cluster_->clock().Latest();
    return r;
  }

  OpResult Read(LoadThread& t, Tracer& tr) {
    c5::replica::ReplicaBase& reader = cluster_->backup(0).reader();
    const std::uint64_t pick = t.rng.Uniform(
        static_cast<std::uint64_t>(kCustomerGetRate + kStockLevelRate +
                                   kLowStockRate));
    OpResult r;
    if (pick < kCustomerGetRate) {
      r.cls = OpClass::kRead;
      const auto d = static_cast<std::uint32_t>(
          t.rng.UniformRange(1, config_.districts_per_warehouse));
      const auto c = static_cast<std::uint32_t>(
          t.rng.NURand(1023, 1, config_.customers_per_district, 259));
      const std::int64_t t0 = tr.Mark();
      const c5::Snapshot snap = cluster_->OpenSnapshot(0);
      tr.Span(SpanName::kSnapshotOpen, t0);
      r.invalid = !t.ObserveSnapshot(0, snap.timestamp());
      c5::Value v;
      const std::int64_t t1 = tr.Mark();
      const c5::Status s =
          snap.Get(tpcc::kCustomer, tpcc::CustomerKey(kWarehouse, d, c), &v);
      tr.Span(SpanName::kIndexGet, t1);
      if (!s.ok()) {
        r.failed = true;
        r.invalid = true;  // every customer is loaded and never deleted
      } else if (v.size() != sizeof(tpcc::CustomerRow)) {
        r.invalid = true;
      } else {
        const auto row = tpcc::FromValue<tpcc::CustomerRow>(v);
        r.invalid = r.invalid || row.c_id != c || row.c_d_id != d ||
                    row.c_w_id != kWarehouse;
      }
      return r;
    }
    r.cls = OpClass::kQuery;
    const std::int64_t t0 = tr.Mark();
    if (pick < kCustomerGetRate + kStockLevelRate) {
      std::uint32_t low = 0;
      const c5::Status s = tpcc::RunStockLevelOnBackup(reader, t.rng, config_,
                                                       kWarehouse, &low);
      tr.Span(SpanName::kStockLevel, t0);
      r.failed = !s.ok();
      // At most 20 orders of at most 15 lines each.
      r.invalid = low > 20 * 15;
      return r;
    }
    const auto threshold = static_cast<std::uint32_t>(t.rng.UniformRange(10, 20));
    std::uint64_t low = 0;
    const c5::Status s =
        tpcc::CountLowStockOnBackup(reader, kWarehouse, threshold, &low);
    tr.Span(SpanName::kIndexAggregate, t0, config_.items);
    r.failed = !s.ok();
    r.invalid = low > config_.items;
    return r;
  }

  const tpcc::TpccConfig config_{};
  std::unique_ptr<c5::Cluster> cluster_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcc() {
  return std::make_unique<TpccWorkload>();
}

}  // namespace c5bench
