// Shared pieces of the repository benchmark: clocks and percentiles, the
// metric sink, the correctness oracle, workload inputs, and the
// outside-in tracing kit (a BlockStorage decorator, an AccessTap recorder
// and a request-id'd span buffer). Nothing here reaches into the store's
// internals: every span is taken around a call into a public seam.
#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/bandana.h"

namespace perfbench {

using namespace bandana;

// ---------------------------------------------------------------- basics

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Metric sink: name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per `period_ns`, and restores its affinity on destruction. A
/// single client thread otherwise stays on one CPU for a whole run, and on
/// a shared host each CPU runs at its own pace: rotating averages over
/// them, so run-to-run spread reflects the program, not the placement.
class CpuRotor {
 public:
  explicit CpuRotor(std::int64_t period_ns = 50'000'000);
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  /// Call once per request; moves to the next CPU when the period passed.
  void tick();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::int64_t period_ns_;
  std::int64_t due_ns_;
  cpu_set_t saved_{};
  bool restore_ = false;
};

// ---------------------------------------------------------------- inputs

/// Everything a workload serves, generated from the seed before timing:
/// the 8 paper tables' values, a training trace per table, and one or more
/// request pools ("segments"; the retrain workload gets one per drift
/// step). Request q of a segment is query q of every table whose query is
/// non-empty, in table order.
struct Inputs {
  std::vector<TableWorkloadConfig> cfgs;
  std::vector<EmbeddingTable> values;
  std::vector<Trace> train;
  std::vector<std::uint32_t> sizes;
  std::vector<std::vector<Trace>> segments;  ///< [segment][table]
  std::uint64_t total_vectors = 0;
  double ids_per_request = 0.0;
};

Inputs make_inputs(double scale, std::size_t train_queries,
                   std::size_t pool_requests, std::size_t segments,
                   std::uint64_t seed);

MultiGetRequest make_request(const std::vector<Trace>& seg, std::size_t q);

// ---------------------------------------------------------------- oracle

/// Byte-checks a served request against the bytes the benchmark
/// published. `ref` is read at check time, so a caller that swaps the
/// reference when a republish returns checks every later request against
/// the new bytes.
class Oracle {
 public:
  explicit Oracle(const std::vector<EmbeddingTable>& ref) : ref_(&ref) {}
  /// True when every returned vector matches. `zero_filled` (a cluster
  /// partial failure) always fails the request.
  bool check(const std::vector<Trace>& seg, std::size_t q,
             const MultiGetResult& res, std::uint64_t zero_filled = 0) const;

 private:
  const std::vector<EmbeddingTable>* ref_;
};

// ---------------------------------------------------------------- tracing

enum class SpanKind : std::uint8_t {
  kRequest,    ///< One served request, recorded by the client.
  kReadBlock,  ///< BlockStorage::read_block.
  kReadBlocks, ///< BlockStorage::read_blocks (one staged wave).
  kWrite,      ///< BlockStorage::write_block / write_blocks.
  kSync,       ///< BlockStorage::sync.
  kTap,        ///< One AccessTap::on_table_get call (an instant).
};

/// What the recording thread was doing, set by the benchmark around its
/// own calls (serve, trickle pump, one-shot republish, retrain).
enum class Phase : std::uint8_t { kServe, kPump, kRepublish, kRetrain };

struct Span {
  std::uint64_t req = 0;  ///< Request id; 0 = not attributable.
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint32_t blocks = 0;
  std::uint16_t thread = 0;
  SpanKind kind = SpanKind::kRequest;
  Phase phase = Phase::kServe;
  std::uint16_t node = 0;  ///< Cluster node of the storage / tap.
};

/// Storage reads and tap calls a thread made with no request id while
/// serving (async pool workers): aggregated per thread instead of kept as
/// spans, since from outside they belong to no request.
struct WorkerReads {
  std::uint16_t thread = 0;
  std::uint64_t calls = 0;
  std::uint64_t blocks = 0;
  std::uint64_t taps = 0;
  double total_us = 0.0;
  std::vector<float> us;  ///< Per-call durations, for percentiles.
};

/// Everything the tracer recorded: attributed spans plus the per-thread
/// aggregates of unattributed serving reads.
struct TraceDump {
  std::vector<Span> spans;
  std::vector<WorkerReads> workers;
};

/// In-memory span buffer: one append-only vector per recording thread (no
/// lock on the hot path), gathered when the run ends. Recording happens
/// only while `on` is set or on a `tl_always` thread; the benchmark's own
/// thread sets `tl_req` and
/// `tl_phase` around the calls it makes, so spans on pool workers carry
/// req 0 and are aggregated per worker thread, never guessed.
class Tracer {
 public:
  static Tracer& get();
  std::atomic<bool> on{false};
  void record(Span s);
  /// Everything recorded so far (call while no thread records).
  TraceDump gather() const;
  void clear();

  /// True while this thread's calls should be recorded.
  bool recording() const {
    return tl_always || on.load(std::memory_order_relaxed);
  }

  static thread_local std::uint64_t tl_req;
  static thread_local Phase tl_phase;
  /// Record this thread's calls regardless of `on` (the benchmark's pump,
  /// retrain and republish calls in a traced run).
  static thread_local bool tl_always;

 private:
  struct Buffer {
    std::uint16_t thread = 0;
    std::vector<Span> spans;
    WorkerReads unattributed;
  };
  Buffer& local();
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// BlockStorageFactory decorator: forwards every call to the real backend
/// and records a span around each read/write/sync while tracing is on.
BlockStorageFactory traced_storage_factory(BlockStorageFactory inner,
                                           std::uint16_t node = 0);

/// AccessTap that records one instant span per call and forwards to an
/// optional inner tap (the retrainer's sampler), so retraining still sees
/// the traffic.
class TracingTap final : public AccessTap {
 public:
  explicit TracingTap(AccessTap* inner = nullptr, std::uint16_t node = 0)
      : inner_(inner), node_(node) {}
  void on_table_get(TableId table, std::span<const VectorId> ids,
                    std::uint64_t hits, std::uint64_t misses) override;

 private:
  AccessTap* inner_;
  std::uint16_t node_;
};

/// Per-request breakdown of the traced requests: the request span, the
/// union of its storage child spans (clipped to it), its self time, and
/// the time from its last tap call to its return.
struct RequestBreakdown {
  std::uint64_t req = 0;
  double total_us = 0.0;
  double child_us = 0.0;
  double self_us = 0.0;
  double after_tap_us = -1.0;  ///< -1 when the request made no tap call.
  bool nested = true;          ///< Every child span lies inside the span.
};

std::vector<RequestBreakdown> breakdown(const std::vector<Span>& spans);

/// Write spans as CSV (req,kind,phase,thread,node,t0_ns,t1_ns,blocks).
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
