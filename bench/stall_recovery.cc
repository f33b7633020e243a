// Extension bench: bounded-lag RECOVERY after a transient shipping stall.
//
// Fig. 12 shows steady-state overload; this bench isolates the complementary
// operational property the paper's §8 deployment story relies on: after a
// transient fault (network blip, paused shipping channel), how fast does
// each protocol drain the accumulated backlog back to baseline lag? A
// protocol with a parallelism reserve (C5) drains at its full apply rate;
// a single-threaded backup drains at most at 1/(backlog growth rate) and
// can take arbitrarily long when the offered load nears its capacity.
//
// Method: live 2PL primary at a fixed write rate streams to the backup; the
// shipping path is paused for `stall_ms`, then released. The lag gauge
// (age of the oldest unreplicated commit) is sampled every 10 ms. Reported:
// baseline lag, peak lag after the stall, and drain time (release ->
// lag < 2x baseline).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/online_harness.h"

namespace c5 {
namespace {

struct StallResult {
  double baseline_ms = 0;   // median lag before the stall
  double peak_ms = 0;       // max lag gauge after release
  double drain_ms = -1;     // release -> lag < max(2x baseline, 5 ms)
};

StallResult RunStall(core::ProtocolKind kind, int stall_ms,
                     std::uint64_t write_tps) {
  // While paused, the backup's delivery blocks after taking the next
  // segment off its channel: a stalled shipping link, with the segment
  // already durable on the primary.
  std::atomic<bool> paused{false};
  bench::OnlineConfig config;
  config.protocol = kind;
  config.write_clients = bench::DefaultClients();
  config.workers = bench::DefaultWorkers();
  config.snapshot_interval = std::chrono::microseconds(2000);
  config.write_tps = write_tps;
  config.ship_delay = [&paused](std::size_t) {
    while (paused.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return std::chrono::microseconds(0);
  };
  bench::OnlineHarness harness(config);

  auto gauge_ms = [&harness] {
    return static_cast<double>(harness.lag().CurrentLagNanos()) * 1e-6;
  };

  StallResult result;
  // Phase 1: 400 ms warmup + baseline sampling.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  std::vector<double> baseline;
  for (int i = 0; i < 15; ++i) {
    baseline.push_back(gauge_ms());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::sort(baseline.begin(), baseline.end());
  result.baseline_ms = baseline[baseline.size() / 2];

  // Phase 2: stall.
  paused.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  paused.store(false, std::memory_order_release);

  // Phase 3: sample until drained (or 10 s cap).
  const double threshold = std::max(result.baseline_ms * 2.0, 5.0);
  Stopwatch drain;
  while (drain.ElapsedSeconds() < 10.0) {
    const double g = gauge_ms();
    result.peak_ms = std::max(result.peak_ms, g);
    if (g < threshold) {
      result.drain_ms = drain.ElapsedSeconds() * 1e3;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return result;
}

}  // namespace
}  // namespace c5

int main() {
  c5::bench::InitBenchRuntime();
  c5::bench::PrintHeader(
      "Stall recovery: lag drain after a transient shipping pause\n"
      "(live 2PL primary, paced inserts; gauge = age of oldest "
      "unreplicated commit)");
  const std::uint64_t tps = c5::bench::Scaled(12000);
  c5::bench::PrintRow("write rate: %llu txns/s, stall sweep below",
                      static_cast<unsigned long long>(tps));
  c5::bench::PrintRow("%-16s %10s %14s %12s %12s", "protocol", "stall(ms)",
                      "baseline(ms)", "peak(ms)", "drain(ms)");
  using c5::core::ProtocolKind;
  for (const ProtocolKind kind :
       {ProtocolKind::kC5MyRocks, ProtocolKind::kC5, ProtocolKind::kKuaFu,
        ProtocolKind::kSingleThread}) {
    for (const int stall : {100, 200, 400}) {
      const auto r = c5::RunStall(kind, stall, tps);
      c5::bench::PrintRow("%-16s %10d %14.1f %12.1f %12.1f",
                          c5::core::ToString(kind), stall, r.baseline_ms,
                          r.peak_ms, r.drain_ms);
    }
  }
  c5::bench::PrintRow(
      "Expected: peak ~= stall length for every protocol; drain time small "
      "and\nroughly flat for C5 variants (parallel apply reserve), growing "
      "with stall\nlength for less-parallel protocols as offered load "
      "approaches their ceiling.");
  return 0;
}
