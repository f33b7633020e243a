#ifndef C5_BENCH_BENCH_UTIL_H_
#define C5_BENCH_BENCH_UTIL_H_

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/thread_util.h"
#include "core/protocol_factory.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "replica/replica.h"
#include "storage/database.h"
#include "txn/mvtso_engine.h"
#include "txn/two_phase_locking_engine.h"
#include "workload/runner.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace c5::bench {

// Optional glibc malloc-arena tuning. On sandboxed kernels (gVisor-style
// user-space kernels) page faults on mmap-backed secondary arenas can cost
// tens of microseconds, which throttles allocation-heavy single threads by
// an order of magnitude (measured here: 18us -> 1.7us per scheduler record
// with one arena) — but a single arena serializes multi-worker allocation.
// Neither default is right everywhere, so the knob is env-controlled:
// C5_MALLOC_ARENAS=<n> caps the arena count; unset leaves glibc defaults.
inline void InitBenchRuntime() {
#if defined(__GLIBC__)
  if (const char* arenas = std::getenv("C5_MALLOC_ARENAS")) {
    const int n = std::atoi(arenas);
    if (n > 0) mallopt(M_ARENA_MAX, n);
  }
#endif
}

// Environment knobs shared by the harness binaries. C5_BENCH_SCALE scales
// the per-experiment transaction counts (1.0 = defaults sized for a ~24-core
// box and a few seconds per bench).
inline double Scale() {
  const char* s = std::getenv("C5_BENCH_SCALE");
  return s == nullptr ? 1.0 : std::atof(s);
}

inline std::uint64_t Scaled(std::uint64_t n) {
  const double v = static_cast<double>(n) * Scale();
  return v < 1 ? 1 : static_cast<std::uint64_t>(v);
}

inline int DefaultClients() {
  if (const char* c = std::getenv("C5_BENCH_CLIENTS")) {
    const int n = std::atoi(c);
    if (n > 0) return n;
  }
  const unsigned hw = HardwareConcurrency();
  return static_cast<int>(hw >= 24 ? 16 : (hw >= 16 ? 8 : (hw >= 8 ? 4 : 2)));
}

inline int DefaultWorkers() {
  if (const char* w = std::getenv("C5_BENCH_WORKERS")) {
    const int n = std::atoi(w);
    if (n > 0) return n;
  }
  // The paper sets workers to at most the primary's thread count and picks
  // the best-performing count; half the client count is a good default here
  // (workers are install-bound, clients are execution-bound).
  return std::max(2, DefaultClients() / 2);
}

// A primary world assembled for offline log generation.
struct OfflinePrimary {
  storage::Database db;
  TxnClock clock;
  log::PerThreadLogCollector collector{4096};
  std::unique_ptr<txn::Engine> engine;

  static std::unique_ptr<OfflinePrimary> Make(txn::EngineKind kind) {
    auto p = std::make_unique<OfflinePrimary>();
    p->engine = txn::MakeEngine(kind, &p->db, &p->collector, &p->clock);
    return p;
  }
  static std::unique_ptr<OfflinePrimary> Mvtso() {
    return Make(txn::EngineKind::kMvtso);
  }
  static std::unique_ptr<OfflinePrimary> Tpl() {
    return Make(txn::EngineKind::kTwoPhaseLocking);
  }
};

struct ReplayResult {
  double seconds = 0;
  std::uint64_t txns = 0;
  std::uint64_t writes = 0;
  // operator-new calls during the whole replay (scheduler + workers +
  // snapshotter), from the bench-binary-wide counting hook (alloc_hook.h).
  std::uint64_t allocs = 0;
  // Sampled per-record apply latency (install path only), nanoseconds.
  // Zero when the protocol does not sample (e.g. KuaFu).
  std::uint64_t apply_p50_ns = 0;
  std::uint64_t apply_p99_ns = 0;
  double TxnsPerSec() const {
    return seconds > 0 ? static_cast<double>(txns) / seconds : 0;
  }
  double WritesPerSec() const {
    return seconds > 0 ? static_cast<double>(writes) / seconds : 0;
  }
  double AllocsPerWrite() const {
    return writes > 0 ? static_cast<double>(allocs) / writes : 0;
  }
};

// Replays `log` through the given protocol into a fresh backup database
// created by `schema` and measures wall-clock apply time (offline
// methodology, §7.1: log fully materialized before the backup starts).
inline ReplayResult ReplayLog(core::ProtocolKind kind, log::Log& log,
                              const std::function<void(storage::Database*)>&
                                  schema,
                              int workers,
                              core::ProtocolOptions base_options = {}) {
  storage::Database backup;
  schema(&backup);
  log.ResetReplayState();
  log::OfflineSegmentSource source(&log);

  core::ProtocolOptions options = base_options;
  options.num_workers = workers;

  auto replica = core::MakeReplica(kind, &backup, options);
  AllocScope allocs;
  Stopwatch sw;
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  ReplayResult result;
  result.seconds = sw.ElapsedSeconds();
  result.allocs = allocs.Count();
  replica->Stop();
  result.txns = replica->stats().applied_txns.load();
  result.writes = replica->stats().applied_writes.load();
  const Histogram h = replica->ApplyLatencySnapshot();
  if (h.count() > 0) {
    result.apply_p50_ns = h.Quantile(0.5);
    result.apply_p99_ns = h.Quantile(0.99);
  }
  return result;
}

// ---- Machine-readable output --------------------------------------------
// Every harness can emit its table as a JSON object for the benchmark
// trajectory (BENCH_replay.json): pass `--json <path>` or set C5_BENCH_JSON.
// The writer is append-only and renders {"k": v, ...} in insertion order.

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string JsonNum(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "0";  // NaN/inf -> 0
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

class JsonWriter {
 public:
  // `raw` must already be valid JSON (an object, array, or literal).
  JsonWriter& Raw(const std::string& key, const std::string& raw) {
    fields_ += fields_.empty() ? "" : ", ";
    fields_ += "\"" + JsonEscape(key) + "\": " + raw;
    return *this;
  }
  JsonWriter& Num(const std::string& key, double v) {
    return Raw(key, JsonNum(v));
  }
  JsonWriter& Int(const std::string& key, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return Raw(key, buf);
  }
  JsonWriter& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + JsonEscape(v) + "\"");
  }
  std::string Object() const { return "{" + fields_ + "}"; }

 private:
  std::string fields_;
};

inline std::string JsonArray(const std::vector<std::string>& elems) {
  std::string out = "[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i > 0) out += ", ";
    out += elems[i];
  }
  return out + "]";
}

// Returns the JSON output path from `--json <path>` (or C5_BENCH_JSON), or
// an empty string when no JSON output was requested. A `--json` with no
// operand is a usage error, not a silent no-op: the run would otherwise
// burn minutes and write nothing.
inline std::string JsonOutputPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--json requires a path operand\n");
        std::exit(2);
      }
      return argv[i + 1];
    }
  }
  const char* env = std::getenv("C5_BENCH_JSON");
  return env == nullptr ? "" : env;
}

// Writes `json` to `path` (with a trailing newline). Returns false and prints
// to stderr on failure so bench mains can propagate a nonzero exit.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

// JSON fragment shared by every replay measurement.
inline std::string ReplayResultJson(const ReplayResult& r) {
  return JsonWriter()
      .Num("seconds", r.seconds)
      .Int("txns", r.txns)
      .Int("writes", r.writes)
      .Num("txns_per_sec", r.TxnsPerSec())
      .Num("writes_per_sec", r.WritesPerSec())
      .Int("allocs", r.allocs)
      .Num("allocs_per_write", r.AllocsPerWrite())
      .Int("apply_p50_ns", r.apply_p50_ns)
      .Int("apply_p99_ns", r.apply_p99_ns)
      .Object();
}

// Formatting helpers for the figure tables.
inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void PrintRow(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace c5::bench

#endif  // C5_BENCH_BENCH_UTIL_H_
