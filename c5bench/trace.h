// Request spans for the traced run (--trace 1): recording, the self-time
// math, and the Chrome trace-event export.
//
// A span is [start, end) on the monotonic clock, named after the layer whose
// public call it brackets ("api.execute", "index.scan", ...). Spans of one
// request share its request id; each names the span that caused it. Sampled
// requests (1 in kTraceSampleEvery per load thread) get a root
// "workload.request" span from due time to completion, children for the
// generator wait and each call into the system, and — for writes — a
// "replica.visible" child the poller records when the backup covers the
// commit. Buffers are preallocated per thread and never grow: a full buffer
// drops spans and counts them.
//
// Self time of a span = its duration minus the part of it covered by its
// children (overlapping children count once; a child reaching past its
// parent's end — replica.visible does — is clipped).

#ifndef C5BENCH_TRACE_H_
#define C5BENCH_TRACE_H_

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace c5bench {

inline constexpr std::uint64_t kTraceSampleEvery = 8;

enum class SpanName : std::uint8_t {
  kRequest,         // workload.request   due time -> completion (root)
  kGenWait,         // workload.gen_wait  due time -> issue
  kExecute,         // api.execute        Cluster::ExecuteWithRetry / tpcc::Run*
  kSnapshotOpen,    // api.snapshot_open  Cluster::OpenSnapshot
  kSessionRead,     // api.session_read   ClientSession::Read
  kIndexGet,        // index.get          Snapshot::Get
  kIndexScan,       // index.scan         Snapshot::Scan iteration
  kIndexAggregate,  // index.aggregate    Snapshot::Aggregate / CountLowStock
  kNewOrder,        // txn.neworder       tpcc::RunNewOrder
  kPayment,         // txn.payment        tpcc::RunPayment
  kDelivery,        // txn.delivery       tpcc::RunDelivery
  kStockLevel,      // workload.tpcc_stock_level  RunStockLevelOnBackup
  kVisible,         // replica.visible    commit return -> backup covers it
  kFlush,           // log.flush          Cluster::Flush (poller, every 1 ms)
  kCount,
};

inline const char* ToString(SpanName n) {
  static constexpr const char* kNames[] = {
      "workload.request", "workload.gen_wait", "api.execute",
      "api.snapshot_open", "api.session_read", "index.get",
      "index.scan", "index.aggregate", "txn.neworder",
      "txn.payment", "txn.delivery", "workload.tpcc_stock_level",
      "replica.visible", "log.flush"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

// (buffer index + 1) << 32 | slot; 0 means "no span".
using SpanId = std::uint64_t;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t req = 0;
  SpanId parent = 0;
  std::uint32_t rows = 0;  // rows touched (scans, aggregates)
  SpanName name = SpanName::kRequest;
};

// One thread's preallocated span store.
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t index, std::size_t capacity) : index_(index) {
    spans_.reserve(capacity);
  }

  SpanId Add(SpanName name, SpanId parent, std::uint64_t req,
             std::int64_t start, std::int64_t end, std::uint32_t rows = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{start, end, req, parent, rows, name});
    return (static_cast<SpanId>(index_ + 1) << 32) | (spans_.size() - 1);
  }

  // Sets the end of a span added with a provisional one (roots are added
  // before their children so the children can name them).
  void SetEnd(SpanId id, std::int64_t end) {
    if (id != 0) spans_[id & 0xFFFFFFFFu].end_ns = end;
  }

  std::uint32_t index() const { return index_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t index_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// The span recorder a workload op receives for one request. Inactive (the
// untraced run, or an unsampled request) it records nothing and reads no
// clock, so the untraced run pays one branch per call site.
class Tracer {
 public:
  Tracer() = default;
  Tracer(SpanBuffer* buf, SpanId root, std::uint64_t req)
      : buf_(buf), root_(root), req_(req) {}

  std::int64_t Mark() const {
    return buf_ != nullptr ? c5::MonotonicNowNanos() : 0;
  }

  // Records [start, now) under the request root.
  SpanId Span(SpanName name, std::int64_t start, std::uint32_t rows = 0) {
    if (buf_ == nullptr) return 0;
    return buf_->Add(name, root_, req_, start, c5::MonotonicNowNanos(), rows);
  }

  // Records [start, end) — for spans sharing one measured interval.
  SpanId SpanAt(SpanName name, std::int64_t start, std::int64_t end,
                SpanId parent = 0) {
    if (buf_ == nullptr) return 0;
    return buf_->Add(name, parent != 0 ? parent : root_, req_, start, end);
  }

 private:
  SpanBuffer* buf_ = nullptr;
  SpanId root_ = 0;
  std::uint64_t req_ = 0;
};

// Per-name aggregate over every recorded span.
struct SpanStats {
  std::vector<std::int64_t> durations_ns;
  double total_ns = 0;
  double self_ns = 0;
  std::uint64_t rows = 0;
};

using SpanSummary =
    std::array<SpanStats, static_cast<std::size_t>(SpanName::kCount)>;

inline SpanSummary Summarize(const std::vector<const SpanBuffer*>& buffers) {
  std::unordered_map<SpanId, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  SpanSummary out;
  for (const SpanBuffer* b : buffers) {
    const auto& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::int64_t covered = 0;
      const SpanId id = (static_cast<SpanId>(b->index() + 1) << 32) | i;
      if (auto it = children.find(id); it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
            continue;
          }
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
        if (open) covered += cur_hi - cur_lo;
      }
      SpanStats& st = out[static_cast<std::size_t>(s.name)];
      st.durations_ns.push_back(dur);
      st.total_ns += static_cast<double>(dur);
      st.self_ns += static_cast<double>(dur - covered);
      st.rows += s.rows;
    }
  }
  return out;
}

// The layer a span name belongs to: its prefix up to the first '.'.
inline std::string LayerOf(SpanName n) {
  const std::string s = ToString(n);
  return s.substr(0, s.find('.'));
}

// Writes Chrome trace-event JSON (load it in chrome://tracing or Perfetto)
// plus a "layers" object: per span name its count, total and self time, and
// per layer its self time and share of all self time. Returns false on an
// I/O error.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanBuffer*>& buffers,
                             const SpanSummary& summary) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::int64_t t0 = INT64_MAX;
  for (const SpanBuffer* b : buffers) {
    for (const Span& s : b->spans()) t0 = std::min(t0, s.start_ns);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    const auto& spans = b->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const SpanId id = (static_cast<SpanId>(b->index() + 1) << 32) | i;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                   ", \"req\": %" PRIu64 ", \"rows\": %u}}",
                   first ? "" : ",\n", ToString(s.name),
                   LayerOf(s.name).c_str(), b->index(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, id,
                   s.parent, s.req, s.rows);
      first = false;
    }
  }
  std::fputs("\n],\n\"layers\": {\"spans\": {", f);
  double all_self = 0;
  std::vector<std::pair<std::string, double>> layer_self;
  first = true;
  for (std::size_t i = 0; i < summary.size(); ++i) {
    const SpanStats& st = summary[i];
    if (st.durations_ns.empty()) continue;
    const auto name = static_cast<SpanName>(i);
    std::fprintf(f,
                 "%s\"%s\": {\"count\": %zu, \"total_us\": %.3f, "
                 "\"self_us\": %.3f}",
                 first ? "" : ", ", ToString(name), st.durations_ns.size(),
                 st.total_ns / 1e3, st.self_ns / 1e3);
    first = false;
    all_self += st.self_ns;
    const std::string layer = LayerOf(name);
    auto it = std::find_if(layer_self.begin(), layer_self.end(),
                           [&](const auto& p) { return p.first == layer; });
    if (it == layer_self.end()) {
      layer_self.emplace_back(layer, st.self_ns);
    } else {
      it->second += st.self_ns;
    }
  }
  std::fputs("}, \"self_by_layer\": {", f);
  first = true;
  for (const auto& [layer, self] : layer_self) {
    std::fprintf(f, "%s\"%s\": {\"self_us\": %.3f, \"share\": %.6f}",
                 first ? "" : ", ", layer.c_str(), self / 1e3,
                 all_self > 0 ? self / all_self : 0.0);
    first = false;
  }
  std::fputs("}}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace c5bench

#endif  // C5BENCH_TRACE_H_
