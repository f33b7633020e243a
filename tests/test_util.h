#ifndef C5_TESTS_TEST_UTIL_H_
#define C5_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "log/log_collector.h"
#include "log/log_segment.h"
#include "sim/dst_oracle.h"
#include "storage/database.h"
#include "txn/mvtso_engine.h"
#include "txn/two_phase_locking_engine.h"
#include "txn/txn.h"
#include "workload/runner.h"
#include "workload/synthetic.h"

namespace c5::test {

namespace internal {

// Collects every RNG seed a test requested through TestSeed() and prints
// them when the test fails, so any randomized failure is reproducible.
class SeedListener : public ::testing::EmptyTestEventListener {
 public:
  static SeedListener& Instance() {
    static SeedListener* listener = [] {
      auto* l = new SeedListener();  // owned by gtest after Append
      ::testing::UnitTest::GetInstance()->listeners().Append(l);
      return l;
    }();
    return *listener;
  }

  void Note(std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::find(seeds_.begin(), seeds_.end(), seed) == seeds_.end()) {
      seeds_.push_back(seed);
    }
  }

  void OnTestStart(const ::testing::TestInfo&) override { Clear(); }

  void OnTestEnd(const ::testing::TestInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (info.result()->Failed() && !seeds_.empty()) {
      std::fprintf(stderr,
                   "[  SEEDS   ] %s.%s used RNG seed%s", info.test_suite_name(),
                   info.name(), seeds_.size() == 1 ? "" : "s");
      for (const std::uint64_t s : seeds_) {
        std::fprintf(stderr, " %llu", static_cast<unsigned long long>(s));
      }
      const char* env = std::getenv("C5_TEST_SEED");
      std::fprintf(stderr,
                   "; rerun with C5_TEST_SEED=%s to reproduce\n",
                   env == nullptr ? "0" : env);
    }
    seeds_.clear();
  }

 private:
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    seeds_.clear();
  }

  std::mutex mu_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace internal

// This process's user + system CPU time, every thread included.
inline std::chrono::microseconds ProcessCpuTime() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto us = [](const timeval& tv) {
    return std::chrono::seconds(tv.tv_sec) +
           std::chrono::microseconds(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

// The seed for a randomized test: `default_seed` normally; C5_TEST_SEED=<n>
// (n != 0) PERTURBS every seed deterministically instead of replacing it, so
// tests that draw several distinct seeds keep them distinct and any run —
// default or perturbed — is reproduced exactly by rerunning with the same
// C5_TEST_SEED value (0 / unset = the defaults). Every seed returned here is
// printed if the test fails, together with the C5_TEST_SEED value to rerun
// with.
inline std::uint64_t TestSeed(std::uint64_t default_seed) {
  std::uint64_t seed = default_seed;
  if (const char* env = std::getenv("C5_TEST_SEED")) {
    const std::uint64_t n = std::strtoull(env, nullptr, 10);
    if (n != 0) seed = default_seed ^ (n * 0x9E3779B97F4A7C15ull);
  }
  internal::SeedListener::Instance().Note(seed);
  return seed;
}

// Interns a value string for the lifetime of the test binary and returns a
// stable view of it. Hand-built LogRecords carry non-owning ValueRefs, so a
// test materializing values on the fly ("v" + std::to_string(ts)) needs
// somewhere for the bytes to live. Thread-safe (collector tests log from
// several threads); leaks by design, like any intern pool.
inline std::string_view InternValue(std::string s) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> pool;
  std::lock_guard<std::mutex> lock(mu);
  pool.push_back(std::make_unique<std::string>(std::move(s)));
  return *pool.back();
}

// Digest of a database's committed state at `ts`: fold of every row's
// (table, row, deleted, data) into one hash. Primary and backup assign
// identical row ids (the log dictates them), so equal digests mean equal
// states. (Shared with the DST harness, whose invariant checker uses the
// same oracle — see src/sim/dst_oracle.h.)
inline std::uint64_t StateDigest(storage::Database& db, Timestamp ts) {
  return sim::StateDigest(db, ts);
}

// A primary world: database + clock + collector + engine.
struct Primary {
  storage::Database db;
  TxnClock clock;
  std::unique_ptr<log::PerThreadLogCollector> collector;
  std::unique_ptr<txn::Engine> engine;

  static std::unique_ptr<Primary> Make(txn::EngineKind kind) {
    auto p = std::make_unique<Primary>();
    p->collector = std::make_unique<log::PerThreadLogCollector>(256);
    p->engine =
        txn::MakeEngine(kind, &p->db, p->collector.get(), &p->clock);
    return p;
  }
  static std::unique_ptr<Primary> Mvtso() {
    return Make(txn::EngineKind::kMvtso);
  }
  static std::unique_ptr<Primary> Tpl() {
    return Make(txn::EngineKind::kTwoPhaseLocking);
  }
};

// Runs the synthetic workload on a fresh MVTSO primary and returns the
// coalesced log plus the primary (for state comparison).
struct SyntheticRun {
  std::unique_ptr<Primary> primary;
  TableId table;
  log::Log log;
};

inline SyntheticRun RunSyntheticPrimary(bool adversarial, int clients,
                                        std::uint64_t txns_per_client,
                                        std::uint32_t inserts_per_txn = 4,
                                        bool use_2pl = false,
                                        std::uint64_t seed = 0) {
  if (seed == 0) seed = TestSeed(1);
  SyntheticRun run;
  run.primary = use_2pl ? Primary::Tpl() : Primary::Mvtso();
  run.table = workload::SyntheticWorkload::CreateTable(&run.primary->db);
  workload::SyntheticWorkload wl(
      run.table, {.inserts_per_txn = inserts_per_txn,
                  .adversarial = adversarial});
  if (adversarial) {
    const Status s = wl.LoadHotRow(*run.primary->engine);
    (void)s;
  }
  std::vector<std::uint64_t> seqs(clients, 0);
  workload::RunClosedLoop(
      clients, std::chrono::milliseconds(0), txns_per_client,
      [&](std::uint32_t client, Rng& rng) {
        return wl.RunTxn(*run.primary->engine, rng, client, &seqs[client]);
      },
      seed);
  run.log = run.primary->collector->Coalesce();
  return run;
}

// Asserts structural log sanity: timestamps non-decreasing, transactions
// contiguous and never spanning segments, base_seq contiguous. (Delegates
// to the DST harness's oracle so the two checkers cannot drift.)
inline bool LogIsWellFormed(const log::Log& log) {
  return sim::LogWellFormed(log, nullptr);
}

}  // namespace c5::test

#endif  // C5_TESTS_TEST_UTIL_H_
