// The two key-value workloads: `ingest` (a conflict-free, high-rate blind
// write stream over loopback TCP to one backup) and `read_mostly` (a light
// Zipfian write stream feeding two in-process backups that serve most of the
// work as reads). Both run MVTSO on the primary and C5 on the backups, with
// backup GC on.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "api/snapshot.h"
#include "harness.h"
#include "keygen.h"
#include "payload.h"

namespace c5bench {
namespace {

constexpr c5::TableId kTable = 0;
// Preloaded keys (100-byte rows). Every key exists for the whole run.
constexpr std::uint64_t kKeys = 100'000;
constexpr std::uint64_t kPreloadBatch = 500;  // Puts per preload transaction
constexpr int kPutsPerTxn = 4;
constexpr std::uint64_t kCapacityTxns = 50'000;
constexpr std::uint64_t kScanRows = 64;
constexpr std::uint64_t kAggregateRows = 4096;
constexpr auto kSessionWaitTimeout = std::chrono::milliseconds(1000);

// One reader thread's request mix, as requests/s per kind. The thread's
// offered rate is their sum; each request picks its kind with probability
// proportional to its rate.
struct ReaderMix {
  double point = 0;      // point read
  double scan = 0;       // kScanRows-key Snapshot::Scan
  double aggregate = 0;  // kAggregateRows-key Snapshot::Aggregate
  // Point reads go through a token-routed ClientSession (else a Snapshot on
  // backup 0, or rotating across backups when there are several).
  bool session = false;

  double total() const { return point + scan + aggregate; }
};

struct KvSpec {
  std::size_t backups = 1;
  bool via_socket = false;
  bool zipf = false;
  int writers = 1;
  double write_rate = 0;  // write transactions/s over all writers
  std::vector<ReaderMix> readers;
};

class KvWorkload : public Workload {
 public:
  explicit KvWorkload(KvSpec spec) : spec_(std::move(spec)) {
    if (spec_.zipf) zipf_.emplace(kKeys, 0.99);
  }

  void Start() override {
    c5::ClusterOptions o;
    o.WithEngine(c5::ha::EngineKind::kMvtso).WithGcEvery(16);
    for (std::size_t b = 0; b < spec_.backups; ++b) {
      c5::ClusterOptions::BackupSpec bs;
      bs.via_socket = spec_.via_socket;
      o.AddBackup(bs);
    }
    cluster_ = std::make_unique<c5::Cluster>(o);
    cluster_->CreateTable("kv", kKeys);
    cluster_->Start();
  }

  void Preload() override {
    InsertIndexSentinels(*cluster_, 1);
    c5::Timestamp last = 0;
    for (std::uint64_t lo = 0; lo < kKeys; lo += kPreloadBatch) {
      const std::uint64_t hi = std::min(kKeys, lo + kPreloadBatch);
      const c5::Status s = cluster_->ExecuteWithRetry(
          [lo, hi](c5::txn::Txn& txn) {
            for (c5::Key k = lo; k < hi; ++k) {
              const c5::Status st = txn.Put(kTable, k, MakeValue(k, 0));
              if (!st.ok()) return st;
            }
            return c5::Status::Ok();
          },
          &last);
      if (!s.ok()) {
        std::fprintf(stderr, "c5bench: preload failed: %s\n",
                     s.ToString().c_str());
        std::exit(3);
      }
    }
    WaitCovered(*cluster_, last);
  }

  void Teardown() override { cluster_.reset(); }
  c5::Cluster& cluster() override { return *cluster_; }

  LoadPlan Plan() const override {
    LoadPlan plan;
    for (int i = 0; i < spec_.writers; ++i) {
      plan.threads.push_back({true, spec_.write_rate / spec_.writers});
    }
    for (const ReaderMix& m : spec_.readers) {
      plan.threads.push_back({false, m.total()});
    }
    plan.capacity_txns = kCapacityTxns;
    return plan;
  }

  OpResult Run(LoadThread& t, Tracer& tr) override {
    if (t.writer) return Write(t, tr);
    const ReaderMix& mix = spec_.readers[t.id - spec_.writers];
    const double u = t.rng.NextDouble() * mix.total();
    if (u < mix.point) return PointRead(t, tr, mix.session);
    if (u < mix.point + mix.scan) return ScanRead(t, tr);
    return AggregateRead(t, tr);
  }

  void Verify(GateReport* report) override {
    const std::vector<Digest> primary =
        VerifyReplicasMatchPrimary(*cluster_, 1, report);
    // Every preloaded key plus the sentinel row, no more, no fewer.
    report->Check(primary[0].rows == kKeys + 1,
                  "primary lost or gained keys: " +
                      std::to_string(primary[0].rows) + " rows, expected " +
                      std::to_string(kKeys + 1));
  }

 private:
  c5::Key NextKey(c5::Rng& rng) const {
    return zipf_ ? zipf_->Next(rng) : rng.Uniform(kKeys);
  }

  // Backup for the next snapshot read of thread `t`: rotates across the
  // fleet so every backup's read path is exercised.
  std::size_t NextBackup(LoadThread& t) const {
    return t.ops++ % cluster_->num_backups();
  }

  OpResult Write(LoadThread& t, Tracer& tr) {
    c5::Key keys[kPutsPerTxn];
    for (c5::Key& k : keys) k = NextKey(t.rng);
    const std::uint64_t stamp =
        MakeStamp(static_cast<std::uint32_t>(t.id + 1), ++t.seq);
    c5::Timestamp ts = 0;
    const std::int64_t t0 = tr.Mark();
    const c5::Status s = cluster_->ExecuteWithRetry(
        [&keys, stamp](c5::txn::Txn& txn) {
          for (const c5::Key k : keys) {
            const c5::Status st = txn.Put(kTable, k, MakeValue(k, stamp));
            if (!st.ok()) return st;
          }
          return c5::Status::Ok();
        },
        &ts);
    tr.Span(SpanName::kExecute, t0);
    OpResult r;
    r.cls = OpClass::kCommit;
    r.failed = !s.ok();
    r.commit_ts = s.ok() ? ts : 0;
    return r;
  }

  OpResult PointRead(LoadThread& t, Tracer& tr, bool via_session) {
    const c5::Key k = NextKey(t.rng);
    OpResult r;
    r.cls = OpClass::kRead;
    c5::Value v;
    c5::Status s;
    if (via_session) {
      if (t.session == nullptr) {
        c5::replica::ClientSession::Options so;
        so.policy = c5::replica::RoutingPolicy::kTokenRouted;
        so.wait_timeout = kSessionWaitTimeout;
        t.session = std::make_unique<c5::replica::ClientSession>(
            &cluster_->backup_set(), so);
      }
      const std::int64_t t0 = tr.Mark();
      s = t.session->Read(kTable, k, &v);
      tr.Span(SpanName::kSessionRead, t0);
      // The session token is the newest snapshot the session has read at;
      // monotonic reads means it never moves back.
      r.invalid = t.session->token() < t.last_token;
      t.last_token = t.session->token();
    } else {
      const std::size_t b = NextBackup(t);
      const std::int64_t t0 = tr.Mark();
      const c5::Snapshot snap = cluster_->OpenSnapshot(b);
      tr.Span(SpanName::kSnapshotOpen, t0);
      r.invalid = !t.ObserveSnapshot(b, snap.timestamp());
      const std::int64_t t1 = tr.Mark();
      s = snap.Get(kTable, k, &v);
      tr.Span(SpanName::kIndexGet, t1);
    }
    // Every key was preloaded and none is ever deleted: kNotFound is a
    // wrong answer, not an empty one.
    if (!s.ok()) {
      r.failed = true;
      r.invalid = r.invalid || s.code() == c5::StatusCode::kNotFound;
    } else if (!CheckValue(k, v)) {
      r.invalid = true;
    }
    return r;
  }

  OpResult ScanRead(LoadThread& t, Tracer& tr) {
    const c5::Key lo = NextKey(t.rng);
    const c5::Key hi = std::min(kKeys, lo + kScanRows);
    const std::size_t b = NextBackup(t);
    OpResult r;
    r.cls = OpClass::kQuery;
    const std::int64_t t0 = tr.Mark();
    const c5::Snapshot snap = cluster_->OpenSnapshot(b);
    tr.Span(SpanName::kSnapshotOpen, t0);
    bool ok = t.ObserveSnapshot(b, snap.timestamp());
    const std::int64_t t1 = tr.Mark();
    c5::Key expect = lo;
    std::uint32_t rows = 0;
    for (auto it = snap.Scan(kTable, lo, hi); it.Valid(); it.Next()) {
      ok = ok && it.key() == expect && CheckValue(it.key(), it.value());
      ++expect;
      ++rows;
    }
    tr.Span(SpanName::kIndexScan, t1, rows);
    r.invalid = !ok || rows != hi - lo;
    return r;
  }

  OpResult AggregateRead(LoadThread& t, Tracer& tr) {
    const c5::Key lo = NextKey(t.rng);
    const c5::Key hi = std::min(kKeys, lo + kAggregateRows);
    const std::size_t b = NextBackup(t);
    OpResult r;
    r.cls = OpClass::kQuery;
    const std::int64_t t0 = tr.Mark();
    const c5::Snapshot snap = cluster_->OpenSnapshot(b);
    tr.Span(SpanName::kSnapshotOpen, t0);
    const bool monotonic = t.ObserveSnapshot(b, snap.timestamp());
    // Every payload starts with its own key, so the sum of that field over
    // [lo, hi) is known in advance.
    c5::AggSpec spec;
    spec.op = c5::AggOp::kSum;
    spec.field_offset = 0;
    spec.field_width = 8;
    const std::int64_t t1 = tr.Mark();
    const c5::AggResult agg = snap.Aggregate(kTable, lo, hi, spec);
    tr.Span(SpanName::kIndexAggregate, t1, static_cast<std::uint32_t>(agg.rows));
    const std::uint64_t n = hi - lo;
    r.invalid = !monotonic || agg.rows != n || agg.sum != (lo + hi - 1) * n / 2;
    return r;
  }

  const KvSpec spec_;
  std::optional<ScrambledZipf> zipf_;
  std::unique_ptr<c5::Cluster> cluster_;
};

}  // namespace

std::unique_ptr<Workload> MakeIngest() {
  KvSpec s;
  s.backups = 1;
  s.via_socket = true;
  s.zipf = false;
  s.writers = 2;
  s.write_rate = 40'000;
  s.readers = {ReaderMix{.point = 10'000, .scan = 200}};
  return std::make_unique<KvWorkload>(std::move(s));
}

std::unique_ptr<Workload> MakeReadMostly() {
  KvSpec s;
  s.backups = 2;
  s.via_socket = false;
  s.zipf = true;
  s.writers = 1;
  s.write_rate = 5'000;
  // 100k reads/s: 1/64 of them aggregates, the rest 15/16 point reads and
  // 1/16 scans. Point reads and range reads run on separate client threads
  // so a 4096-row aggregate never queues point reads behind it.
  s.readers = {ReaderMix{.point = 92'285, .session = true},
               ReaderMix{.scan = 6'153, .aggregate = 1'562}};
  return std::make_unique<KvWorkload>(std::move(s));
}

}  // namespace c5bench
