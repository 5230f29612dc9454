#include "workloads.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <future>
#include <limits>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace perfbench {

namespace fs = std::filesystem;

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},           {"throughput_rps", "1/s"},
      {"req_p50_us", "us"},       {"req_p99_us", "us"},
      {"nvm_blocks_per_req", "blocks/req"}, {"peak_rss_mb", "MiB"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      {"retrain_s", "s"},
      {"push_s", "s"},
      {"republish_s", "s"},
      {"failed_frac", "ratio"},
      {"core.multi_get_us.p50", "us"},
      {"core.multi_get_us.p99", "us"},
      {"core.self_us.p50", "us"},
      {"core.after_tap_us.p50", "us"},
      {"core.staged_blocks_per_req", "blocks/req"},
      {"core.deferred_lookups_per_req", "lookups/req"},
      {"core.retry_waves_per_req", "waves/req"},
      {"core.write_blocks_per_push", "blocks"},
      {"core.skipped_blocks_per_push", "blocks"},
      {"core.manifest_commits_per_cycle", "count"},
      {"core.mapping_swaps", "count"},
      {"core.retrain_drain_s", "s"},
      {"core.retrain_train_s", "s"},
      {"core.retrain_diff_s", "s"},
      {"cache.hit_rate", "ratio"},
      {"cache.prefetch_inserted_per_miss", "ratio"},
      {"cache.prefetch_useful", "ratio"},
      {"cache.post_swap_hit_rate", "ratio"},
      {"nvm.read_calls_per_req", "calls/req"},
      {"nvm.read_blocks_per_call", "blocks/call"},
      {"nvm.read_us.p50", "us"},
      {"nvm.read_us.p99", "us"},
      {"nvm.read_share", "ratio"},
      {"nvm.write_calls_per_push", "calls"},
      {"nvm.write_blocks_per_call", "blocks/call"},
      {"nvm.write_s_per_push", "s"},
      {"nvm.sync_calls_per_cycle", "calls"},
      {"nvm.sync_s_per_cycle", "s"},
      {"nvm.sim_req_p50_us", "sim_us"},
      {"nvm.sim_req_p99_us", "sim_us"},
      {"nvm.sim_write_wave_p99_us", "sim_us"},
      {"partition.partition_s", "s"},
      {"partition.curve_s", "s"},
      {"partition.tune_s", "s"},
      {"partition.peak_training_mb", "MiB"},
      {"partition.train_fanout", "blocks/query"},
      {"partition.effective_bw", "ratio"},
      {"cluster.sub_requests_per_req", "count"},
      {"cluster.node_lookup_skew", "ratio"},
      {"cluster.failovers", "count"},
      {"cluster.failed_lookups", "count"},
      {"trace.overhead_frac", "ratio"},
      {"loadgen.late_p99_us", "us"},
  };
  return list;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hot_async", "miss_file",
                                                 "retrain_push",
                                                 "cluster_async"};
  return names;
}

namespace {

constexpr int kSetups = 3;          // setup_s is the median of these
constexpr std::size_t kTrainQueries = 10'000;  // training trace per table
constexpr int kDepth = 6;           // async requests in flight
constexpr unsigned kWorkers = 3;    // async serving pool
constexpr std::size_t kProbe = 1500;  // traced sync probe (async workloads)
constexpr double kFailedUs = 1e12;  // a failed request's latency stand-in
constexpr std::int64_t kTraceSegmentNs = 250'000'000;  // async trace segments
constexpr std::size_t kTailChunk = 2000;  // requests per req_p99_us chunk

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Everything the timed phase observed, per request.
struct Sink {
  std::vector<double> lat[2];  ///< [traced] wall latency, us
  std::vector<double> sim;     ///< simulated service latency, us
  std::uint64_t attempted = 0, failed = 0, blocks = 0, hits = 0, lookups = 0;
  std::uint64_t sub_requests = 0;
  std::int64_t start_ns = now_ns();
  std::vector<std::uint32_t> per_second;  ///< completions per wall second

  void add(double lat_us, bool traced, const MultiGetResult* r, bool ok,
           std::uint64_t subs = 1) {
    const auto sec = static_cast<std::size_t>((now_ns() - start_ns) / 1'000'000'000);
    if (per_second.size() <= sec) per_second.resize(sec + 1);
    ++per_second[sec];
    ++attempted;
    if (!ok) ++failed;
    lat[traced ? 1 : 0].push_back(ok ? lat_us : kFailedUs);
    sub_requests += subs;
    if (r != nullptr) {
      sim.push_back(r->service_latency_us);
      blocks += r->block_reads;
      hits += r->hits();
      lookups += r->lookups();
    }
  }
  /// Pre-size and touch the sample buffers, so their growth during the
  /// timed phase neither allocates nor moves peak RSS with throughput.
  void reserve(std::size_t n) {
    for (auto* v : {&lat[0], &lat[1], &sim}) {
      v->resize(n);
      v->clear();
    }
  }
  std::vector<double> all_lat() const {
    std::vector<double> v = lat[0];
    v.insert(v.end(), lat[1].begin(), lat[1].end());
    return v;
  }
};

struct Snap {
  TableMetrics t;
  StoreMetrics s;
  RouterMetrics r;
  std::vector<std::uint64_t> node_lookups;
};

Snap snap(const Store& store) {
  return {store.total_metrics(), store.store_metrics(), {}, {}};
}

Snap snap(const StoreCluster& c) {
  const ClusterMetrics m = c.metrics();
  Snap s{m.tables, m.store, m.router, {}};
  for (const auto& n : m.per_node_tables) s.node_lookups.push_back(n.lookups);
  return s;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct Setup {
  std::vector<double> times;
  TrainerStats stats;
  StorePlan plan;
};

/// Train + build kSetups times (the caller's `reset` drops the previous
/// build and its files, untimed); the last build is the one served.
Setup timed_setup(const Inputs& in, const StoreConfig& cfg,
                  std::uint64_t dram_vectors, const std::function<void()>& reset,
                  const std::function<void(const StorePlan&)>& build) {
  TrainerConfig tcfg;
  tcfg.total_cache_vectors = dram_vectors;
  const Trainer trainer(cfg, tcfg);
  ThreadPool pool(host_threads());
  Setup s;
  for (int rep = 0; rep < kSetups; ++rep) {
    reset();
    TrainerStats st;
    const std::int64_t t0 = now_ns();
    StorePlan plan = trainer.train(in.train, in.sizes, &pool, {}, &st);
    build(plan);
    s.times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    s.stats = st;
    s.plan = std::move(plan);
  }
  return s;
}

/// Pre-seed every per-layer metric (0 = not exercised by this workload),
/// then fill the ones every workload has. `bd` holds the traced requests'
/// breakdowns: of the timed phase itself when `bd_is_timed` (sync
/// workloads), else of the sync probe, and then `core.multi_get_us` is the
/// client-side latency of the timed phase's traced requests.
void report_layers(Metrics& m, const Sink& sink, const Snap& a, const Snap& b,
                   const TraceDump& dump,
                   const std::vector<RequestBreakdown>& bd, bool bd_is_timed,
                   const Setup& setup) {
  for (const auto& [name, unit] : per_layer_metrics()) m.set(name, 0.0, unit);
  const double reqs = static_cast<double>(sink.attempted);
  m.set("failed_frac", ratio(static_cast<double>(sink.failed), reqs), "ratio");
  std::vector<double> self, after, total;
  for (const auto& r : bd) {
    self.push_back(r.self_us);
    total.push_back(r.total_us);
    if (r.after_tap_us >= 0.0) after.push_back(r.after_tap_us);
  }
  const std::vector<double>& mg = bd_is_timed ? total : sink.lat[1];
  m.set("core.multi_get_us.p50", percentile(mg, 0.5), "us");
  m.set("core.multi_get_us.p99", percentile(mg, 0.99), "us");
  m.set("core.self_us.p50", median(self), "us");
  m.set("core.after_tap_us.p50", median(after), "us");
  const auto d = [&](std::uint64_t StoreMetrics::*f) {
    return static_cast<double>(b.s.*f - a.s.*f);
  };
  m.set("core.staged_blocks_per_req", ratio(d(&StoreMetrics::staged_blocks), reqs),
        "blocks/req");
  m.set("core.deferred_lookups_per_req",
        ratio(d(&StoreMetrics::deferred_lookups), reqs), "lookups/req");
  m.set("core.retry_waves_per_req", ratio(d(&StoreMetrics::retry_waves), reqs),
        "waves/req");
  const auto dt = [&](std::uint64_t TableMetrics::*f) {
    return static_cast<double>(b.t.*f - a.t.*f);
  };
  const double lookups = dt(&TableMetrics::lookups);
  const double misses = lookups - dt(&TableMetrics::hits);
  m.set("cache.hit_rate", ratio(dt(&TableMetrics::hits), lookups), "ratio");
  m.set("cache.prefetch_inserted_per_miss",
        ratio(dt(&TableMetrics::prefetch_inserted), misses), "ratio");
  m.set("cache.prefetch_useful",
        ratio(dt(&TableMetrics::prefetch_hits), dt(&TableMetrics::prefetch_inserted)),
        "ratio");
  // Storage reads of the serving phase: attributed spans plus the
  // per-worker aggregates of unattributed ones.
  std::vector<double> read_us;
  double read_blocks = 0.0, read_total_us = 0.0;
  for (const Span& s : dump.spans) {
    if (s.phase != Phase::kServe) continue;
    if (s.kind != SpanKind::kReadBlock && s.kind != SpanKind::kReadBlocks) continue;
    const double us = static_cast<double>(s.t1 - s.t0) / 1e3;
    read_us.push_back(us);
    read_total_us += us;
    read_blocks += s.blocks;
  }
  for (const WorkerReads& w : dump.workers) {
    read_us.insert(read_us.end(), w.us.begin(), w.us.end());
    read_total_us += w.total_us;
    read_blocks += static_cast<double>(w.blocks);
  }
  const double traced_reqs = static_cast<double>(sink.lat[1].size());
  double traced_total_us = 0.0;
  for (const double v : sink.lat[1]) traced_total_us += v;
  m.set("nvm.read_calls_per_req",
        ratio(static_cast<double>(read_us.size()), traced_reqs), "calls/req");
  m.set("nvm.read_blocks_per_call",
        ratio(read_blocks, static_cast<double>(read_us.size())), "blocks/call");
  m.set("nvm.read_us.p50", percentile(read_us, 0.5), "us");
  m.set("nvm.read_us.p99", percentile(read_us, 0.99), "us");
  m.set("nvm.read_share", ratio(read_total_us, traced_total_us), "ratio");
  m.set("nvm.sim_req_p50_us", percentile(sink.sim, 0.5), "sim_us");
  m.set("nvm.sim_req_p99_us", percentile(sink.sim, 0.99), "sim_us");
  m.set("partition.partition_s", setup.stats.partition_us / 1e6, "s");
  m.set("partition.curve_s", setup.stats.curve_us / 1e6, "s");
  m.set("partition.tune_s", setup.stats.tune_us / 1e6, "s");
  m.set("partition.peak_training_mb",
        static_cast<double>(setup.stats.peak_training_bytes) / (1024.0 * 1024.0),
        "MiB");
  double fanout = 0.0;
  for (const auto& t : setup.plan.tables) fanout += t.shp_train_fanout;
  m.set("partition.train_fanout",
        ratio(fanout, static_cast<double>(setup.plan.tables.size())),
        "blocks/query");
  m.set("partition.effective_bw",
        ratio(dt(&TableMetrics::miss_bytes), dt(&TableMetrics::nvm_bytes_read)),
        "ratio");
  m.set("cluster.sub_requests_per_req",
        ratio(static_cast<double>(sink.sub_requests), reqs), "count");
  m.set("cluster.node_lookup_skew", 1.0, "ratio");
  m.set("trace.overhead_frac",
        ratio(median(sink.lat[1]), median(sink.lat[0])) - 1.0, "ratio");
}

/// p99 of each run of kTailChunk consecutive requests (20 samples beyond
/// it), then the median over the chunks: a host stall of a few hundred
/// milliseconds moves a few chunks, not the run's tail figure.
double chunked_p99(const std::vector<double>& lat) {
  if (lat.size() < 2 * kTailChunk) return percentile(lat, 0.99);
  std::vector<double> p99s;
  for (std::size_t i = 0; i + kTailChunk <= lat.size(); i += kTailChunk) {
    p99s.push_back(percentile(
        std::vector<double>(lat.begin() + static_cast<std::ptrdiff_t>(i),
                            lat.begin() + static_cast<std::ptrdiff_t>(i + kTailChunk)),
        0.99));
  }
  return median(std::move(p99s));
}

void report_end_to_end(Metrics& m, const Sink& sink, const Setup& setup,
                       double serve_wall_s) {
  const auto lat = sink.all_lat();
  m.set("setup_s", median(setup.times), "s");
  m.set("throughput_rps", ratio(static_cast<double>(sink.attempted), serve_wall_s),
        "1/s");
  m.set("req_p50_us", percentile(lat, 0.5), "us");
  m.set("req_p99_us", chunked_p99(lat), "us");
  m.set("nvm_blocks_per_req",
        ratio(static_cast<double>(sink.blocks), static_cast<double>(sink.attempted)),
        "blocks/req");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

std::string sizes_info(const std::string& name, const Inputs& in,
                       std::uint64_t dram, std::uint64_t file_bytes,
                       const std::string& load, const Sink& sink,
                       const Setup& setup) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"workload\": \"" << name << "\", \"model_vectors\": " << in.total_vectors
     << ", \"dram_vectors\": " << dram << ", \"block_file_bytes\": " << file_bytes
     << ", \"load\": \"" << load << "\", \"ids_per_request\": " << in.ids_per_request
     << ", \"latency_samples\": " << sink.attempted
     << ", \"traced_samples\": " << sink.lat[1].size() << ", \"per_second\": [";
  for (std::size_t i = 0; i < sink.per_second.size(); ++i) {
    os << (i ? ", " : "") << sink.per_second[i];
  }
  os << "], \"setup_runs_s\": [";
  for (std::size_t i = 0; i < setup.times.size(); ++i) {
    os << (i ? ", " : "") << setup.times[i];
  }
  os << "]}";
  return os.str();
}

/// Closed loop with `kDepth` async requests in flight from this thread.
/// `submit(req)` returns a future; `unwrap(value)` returns the
/// MultiGetResult, the count of zero-filled ids and the sub-request count;
/// `advance(us)` moves the simulated clock by the wall time between
/// arrivals. Each latency runs from submission to the moment this thread
/// sees the future ready; the oracle check runs after the slot's next
/// request was submitted. In trace mode, kTraceSegmentNs segments
/// alternate untraced and traced.
template <typename Future, typename Submit, typename Unwrap, typename Advance>
void closed_loop_async(const std::vector<Trace>& seg, std::size_t& cursor,
                       std::int64_t deadline, std::size_t max_requests,
                       bool trace_mode, Submit&& submit, Unwrap&& unwrap,
                       Advance&& advance, const Oracle& oracle, Sink* sink) {
  const std::size_t pool_n = seg.front().num_queries();
  Tracer& tr = Tracer::get();
  const std::int64_t start = now_ns();
  struct Slot {
    Future f;
    std::int64_t t0 = 0;
    std::size_t q = 0;
    bool traced = false;
    bool active = false;
  };
  std::vector<Slot> slots(kDepth);
  std::size_t launched = 0;
  std::int64_t last_launch = start;
  const auto launch = [&](Slot& s) {
    const std::int64_t now = now_ns();
    if (now >= deadline || launched >= max_requests) {
      s.active = false;
      return;
    }
    // The simulated device clock follows wall time between arrivals.
    advance(static_cast<double>(now - last_launch) / 1e3);
    last_launch = now;
    s.traced = trace_mode && ((now - start) / kTraceSegmentNs) % 2 == 1;
    tr.on.store(s.traced, std::memory_order_relaxed);
    ++launched;
    s.q = cursor++ % pool_n;
    MultiGetRequest req = make_request(seg, s.q);
    s.t0 = now_ns();
    s.f = submit(std::move(req));
    s.active = true;
  };
  for (auto& s : slots) launch(s);
  std::size_t active = slots.size();
  while (active > 0) {
    bool progressed = false;
    for (auto& s : slots) {
      if (!s.active) continue;
      if (s.f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      const std::int64_t t1 = now_ns();
      progressed = true;
      std::optional<decltype(s.f.get())> value;
      try {
        value.emplace(s.f.get());
      } catch (...) {
      }
      const std::size_t q = s.q;
      const bool traced = s.traced;
      const double lat = static_cast<double>(t1 - s.t0) / 1e3;
      launch(s);
      if (!s.active) --active;
      if (sink == nullptr) continue;
      if (!value) {
        sink->add(lat, traced, nullptr, false);
        continue;
      }
      const auto [res, zero_filled, subs] = unwrap(*value);
      sink->add(lat, traced, res, oracle.check(seg, q, *res, zero_filled), subs);
    }
    if (!progressed) std::this_thread::yield();
  }
  tr.on.store(false, std::memory_order_relaxed);
}

/// Sync closed loop from this thread. In trace mode every other request is
/// traced: it gets a request id, a request span, and the tracer is on for
/// exactly its duration.
template <typename Serve>
void closed_loop_sync(const std::vector<Trace>& seg, std::size_t& cursor,
                      std::int64_t deadline, std::size_t max_requests,
                      bool trace_mode, Serve&& serve, const Oracle& oracle,
                      Sink* sink, std::uint64_t& next_req) {
  const std::size_t pool_n = seg.front().num_queries();
  Tracer& tr = Tracer::get();
  CpuRotor rotor;
  for (std::size_t k = 0; k < max_requests && now_ns() < deadline; ++k) {
    rotor.tick();
    const std::size_t q = cursor++ % pool_n;
    const MultiGetRequest req = make_request(seg, q);
    const bool traced = trace_mode && (k % 2 == 1);
    const std::uint64_t id = traced ? next_req++ : 0;
    Tracer::tl_req = id;
    tr.on.store(traced, std::memory_order_relaxed);
    std::optional<MultiGetResult> res;
    std::uint64_t zero_filled = 0, subs = 1;
    const std::int64_t t0 = now_ns();
    try {
      res.emplace(serve(req, zero_filled, subs));
    } catch (...) {
    }
    const std::int64_t t1 = now_ns();
    tr.on.store(false, std::memory_order_relaxed);
    Tracer::tl_req = 0;
    if (traced) {
      Span s;
      s.req = id;
      s.kind = SpanKind::kRequest;
      s.t0 = t0;
      s.t1 = t1;
      tr.record(s);
    }
    if (sink == nullptr) continue;
    const double lat = static_cast<double>(t1 - t0) / 1e3;
    if (!res) {
      sink->add(lat, traced, nullptr, false);
      continue;
    }
    sink->add(lat, traced, &*res, oracle.check(seg, q, *res, zero_filled), subs);
  }
}

/// Traced sync probe of an async workload: 2 x kProbe requests on this
/// thread, every other one traced end to end, so self time and
/// tap-to-return can be attributed per request. Returns the probe's spans.
template <typename Serve>
std::vector<Span> sync_probe(const std::vector<Trace>& seg, std::size_t& cursor,
                             Serve&& serve, const Oracle& oracle, Outcome& out) {
  Tracer& tr = Tracer::get();
  tr.clear();
  Sink probe;
  std::uint64_t next_req = 1;
  closed_loop_sync(seg, cursor, std::numeric_limits<std::int64_t>::max(),
                   2 * kProbe, true, serve, oracle, &probe, next_req);
  out.attempted += probe.attempted;
  out.failed += probe.failed;
  if (probe.failed) out.correct = false;
  return tr.gather().spans;
}

/// Spin (yielding) until the steady clock reaches `due_ns`: a sleeping
/// generator wakes late by up to milliseconds on a busy host.
void spin_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) std::this_thread::yield();
}

void sleep_until(std::int64_t due_ns) {
  const std::int64_t left = due_ns - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::size_t non_nested(const std::vector<RequestBreakdown>& bd) {
  return static_cast<std::size_t>(
      std::count_if(bd.begin(), bd.end(), [](const auto& r) { return !r.nested; }));
}

std::string dump_spans(const Options& opt, const std::vector<Span>& spans) {
  const std::string path =
      opt.data_dir + "/spans-" + opt.workload + ".csv";
  write_spans(path, spans);
  return path;
}

std::string worker_summary(const std::vector<WorkerReads>& workers) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerReads& w = workers[i];
    os << (i ? ", " : "") << "{\"thread\": " << w.thread
       << ", \"read_calls\": " << w.calls << ", \"read_blocks\": " << w.blocks
       << ", \"read_us\": " << w.total_us << ", \"tap_calls\": " << w.taps << "}";
  }
  os << "]";
  return os.str();
}

void finish_outcome(Outcome& out, const Sink& sink) {
  out.attempted += sink.attempted;
  out.failed += sink.failed;
  if (sink.failed) out.correct = false;
}

StoreConfig store_config(bool simulate_timing) {
  StoreConfig cfg;
  cfg.simulate_timing = simulate_timing;
  return cfg;
}

BlockStorageFactory async_file_factory(const StoreConfig& cfg,
                                       const std::string& path) {
  AsyncFileBlockStorage::Options o;
  o.wave_buffer_blocks = cfg.device.queue_depth * cfg.device.channels;
  return async_file_storage_factory(path, o);
}

/// Flush the block file's dirty pages after set-up, so kernel writeback of
/// the published model does not land in the timed phase.
void settle_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw std::runtime_error("cannot open " + path);
  ::fdatasync(fd);
  ::close(fd);
}

void remove_files(const std::vector<std::string>& paths) {
  for (const auto& p : paths) {
    std::error_code ec;
    fs::remove(p, ec);
    fs::remove(p + ".tmp", ec);
  }
}

// ------------------------------------------------------------ hot_async

Outcome run_hot_async(const Options& opt) {
  constexpr double kScale = 0.25;
  const Inputs in = make_inputs(kScale, kTrainQueries, 40'000, 1, opt.seed);
  const StoreConfig cfg = store_config(true);
  const std::uint64_t dram = in.total_vectors / 2;  // half the model
  std::unique_ptr<Store> store;
  const Setup setup = timed_setup(
      in, cfg, dram, [&] { store.reset(); },
      [&](const StorePlan& plan) {
        StoreBuilder b(cfg);
        b.seed(opt.seed);
        if (opt.trace) b.storage(traced_storage_factory(memory_storage_factory()));
        store = std::make_unique<Store>(b.add_plan(plan, in.values).build());
      });
  TracingTap tap;
  if (opt.trace) store->set_access_tap(&tap);
  const Oracle oracle(in.values);
  ThreadPool pool(kWorkers);
  const auto& seg = in.segments[0];
  std::size_t cursor = 0;
  const auto submit = [&](MultiGetRequest&& r) {
    return store->multi_get_async(std::move(r), pool);
  };
  const auto unwrap = [](const MultiGetResult& r) {
    return std::tuple<const MultiGetResult*, std::uint64_t, std::uint64_t>{&r, 0, 1};
  };
  const auto advance = [&](double us) { store->advance_time_us(us); };
  Outcome out;
  // Warm-up: one pass over the request pool, untimed but checked.
  Sink warm;
  closed_loop_async<std::future<MultiGetResult>>(
      seg, cursor, std::numeric_limits<std::int64_t>::max(),
      seg.front().num_queries(), false, submit, unwrap, advance, oracle, &warm);
  finish_outcome(out, warm);
  Sink sink;
  sink.reserve(std::size_t{100'000} * static_cast<std::size_t>(opt.seconds));
  const Snap a = snap(*store);
  const std::int64_t t0 = now_ns();
  closed_loop_async<std::future<MultiGetResult>>(
      seg, cursor, t0 + std::int64_t{opt.seconds} * 1'000'000'000,
      std::numeric_limits<std::size_t>::max(), opt.trace, submit, unwrap,
      advance, oracle, &sink);
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  const Snap b = snap(*store);
  finish_outcome(out, sink);
  if (!opt.trace) {
    report_end_to_end(out.metrics, sink, setup, wall);
  } else {
    const TraceDump dump = Tracer::get().gather();
    const auto probe_spans = sync_probe(
        seg, cursor,
        [&](const MultiGetRequest& r, std::uint64_t&, std::uint64_t&) {
          return store->multi_get(r);
        },
        oracle, out);
    const auto bd = breakdown(probe_spans);
    report_layers(out.metrics, sink, a, b, dump, bd, false, setup);
    out.metrics.set("nvm.sim_write_wave_p99_us",
                    store->write_latency_us().percentile(0.99), "sim_us");
    out.info = "{\"probe_spans\": \"" + dump_spans(opt, probe_spans) +
               "\", \"workers\": " + worker_summary(dump.workers) + "}";
  }
  store->set_access_tap(nullptr);
  const std::string sizes =
      sizes_info(opt.workload, in, dram, 0, "closed loop, 6 in flight, 3 workers",
                 sink, setup);
  out.info = out.info.empty() ? sizes : "[" + sizes + ", " + out.info + "]";
  return out;
}

// ------------------------------------------------------------ miss_file

Outcome run_miss_file(const Options& opt) {
  constexpr double kScale = 0.5;
  const Inputs in = make_inputs(kScale, kTrainQueries, 20'000, 1, opt.seed);
  const StoreConfig cfg = store_config(false);
  const std::uint64_t dram = in.total_vectors / 25;  // 4% of the model
  const std::string file = opt.data_dir + "/miss_file.blocks";
  std::unique_ptr<Store> store;
  const Setup setup = timed_setup(
      in, cfg, dram,
      [&] {
        store.reset();
        remove_files({file});
      },
      [&](const StorePlan& plan) {
        BlockStorageFactory f = async_file_factory(cfg, file);
        if (opt.trace) f = traced_storage_factory(std::move(f));
        StoreBuilder b(cfg);
        b.seed(opt.seed).storage(std::move(f));
        store = std::make_unique<Store>(b.add_plan(plan, in.values).build());
      });
  const std::uint64_t file_bytes =
      store->storage().num_blocks() * store->storage().block_bytes();
  settle_file(file);
  TracingTap tap;
  if (opt.trace) store->set_access_tap(&tap);
  const Oracle oracle(in.values);
  const auto& seg = in.segments[0];
  std::size_t cursor = 0;
  std::uint64_t next_req = 1;
  const auto serve = [&](const MultiGetRequest& r, std::uint64_t&,
                         std::uint64_t&) { return store->multi_get(r); };
  Outcome out;
  Sink warm;
  closed_loop_sync(seg, cursor, std::numeric_limits<std::int64_t>::max(), 5'000,
                   false, serve, oracle, &warm, next_req);
  finish_outcome(out, warm);
  Sink sink;
  sink.reserve(std::size_t{40'000} * static_cast<std::size_t>(opt.seconds));
  const Snap a = snap(*store);
  const std::int64_t t0 = now_ns();
  sink.start_ns = t0;
  closed_loop_sync(seg, cursor, t0 + std::int64_t{opt.seconds} * 1'000'000'000,
                   std::numeric_limits<std::size_t>::max(), opt.trace, serve,
                   oracle, &sink, next_req);
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  const Snap b = snap(*store);
  finish_outcome(out, sink);
  if (!opt.trace) {
    report_end_to_end(out.metrics, sink, setup, wall);
  } else {
    const TraceDump dump = Tracer::get().gather();
    const auto bd = breakdown(dump.spans);
    report_layers(out.metrics, sink, a, b, dump, bd, true, setup);
    out.info = "{\"spans\": \"" + dump_spans(opt, dump.spans) +
               "\", \"traced_requests\": " + std::to_string(bd.size()) +
               ", \"non_nested\": " + std::to_string(non_nested(bd)) + "}";
  }
  store->set_access_tap(nullptr);
  const std::string sizes =
      sizes_info(opt.workload, in, dram, file_bytes, "closed loop, 1 sync client",
                 sink, setup);
  out.info = out.info.empty() ? sizes : "[" + sizes + ", " + out.info + "]";
  return out;
}

// ------------------------------------------------------------ cluster_async

Outcome run_cluster_async(const Options& opt) {
  constexpr double kScale = 0.25;
  constexpr std::uint32_t kNodes = 4;
  const Inputs in = make_inputs(kScale, kTrainQueries, 40'000, 1, opt.seed);
  const StoreConfig cfg = store_config(true);
  const std::uint64_t dram = in.total_vectors / 25;
  ClusterConfig cc;
  cc.nodes = kNodes;
  cc.replicas = 2;
  cc.hot_tables = 2;
  cc.placement = PlacementKind::kPlanAware;
  // Range-split the largest tables (the paper's 200K-vector class).
  cc.split_min_vectors = *std::max_element(in.sizes.begin(), in.sizes.end());
  cc.store = cfg;
  cc.seed = opt.seed;
  std::unique_ptr<StoreCluster> cluster;
  const StoreCluster::NodeSetup node_setup =
      opt.trace ? StoreCluster::NodeSetup([](std::uint32_t n, StoreBuilder& b) {
        b.storage(traced_storage_factory(memory_storage_factory(),
                                         static_cast<std::uint16_t>(n)));
      })
                : StoreCluster::NodeSetup(nullptr);
  const Setup setup = timed_setup(
      in, cfg, dram, [&] { cluster.reset(); },
      [&](const StorePlan& plan) {
        cluster = std::make_unique<StoreCluster>(cc, plan, in.values, nullptr,
                                                 nullptr, node_setup);
      });
  std::vector<std::unique_ptr<TracingTap>> taps;
  if (opt.trace) {
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      taps.push_back(
          std::make_unique<TracingTap>(nullptr, static_cast<std::uint16_t>(n)));
      cluster->node(n).set_access_tap(taps.back().get());
    }
  }
  const Oracle oracle(in.values);
  ThreadPool pool(kWorkers);
  const auto& seg = in.segments[0];
  std::size_t cursor = 0;
  ClusterRouter& router = cluster->router();
  const auto submit = [&](MultiGetRequest&& r) {
    return router.multi_get_async(std::move(r), pool);
  };
  const auto unwrap = [](const ClusterMultiGetResult& r) {
    return std::tuple<const MultiGetResult*, std::uint64_t, std::uint64_t>{
        &r.result, r.failed_lookups, r.sub_requests};
  };
  const auto advance = [&](double us) { cluster->advance_time_us(us); };
  Outcome out;
  Sink warm;
  closed_loop_async<std::future<ClusterMultiGetResult>>(
      seg, cursor, std::numeric_limits<std::int64_t>::max(), 10'000, false,
      submit, unwrap, advance, oracle, &warm);
  finish_outcome(out, warm);
  Sink sink;
  sink.reserve(std::size_t{100'000} * static_cast<std::size_t>(opt.seconds));
  const Snap a = snap(*cluster);
  const std::int64_t t0 = now_ns();
  sink.start_ns = t0;
  closed_loop_async<std::future<ClusterMultiGetResult>>(
      seg, cursor, t0 + std::int64_t{opt.seconds} * 1'000'000'000,
      std::numeric_limits<std::size_t>::max(), opt.trace, submit,
      unwrap, advance, oracle, &sink);
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  const Snap b = snap(*cluster);
  finish_outcome(out, sink);
  if (!opt.trace) {
    report_end_to_end(out.metrics, sink, setup, wall);
  } else {
    const TraceDump dump = Tracer::get().gather();
    const auto probe_spans = sync_probe(
        seg, cursor,
        [&](const MultiGetRequest& r, std::uint64_t& zero_filled,
            std::uint64_t& subs) {
          ClusterMultiGetResult res = router.multi_get(r);
          zero_filled = res.failed_lookups;
          subs = res.sub_requests;
          return std::move(res.result);
        },
        oracle, out);
    const auto bd = breakdown(probe_spans);
    report_layers(out.metrics, sink, a, b, dump, bd, false, setup);
    double max_l = 0.0, sum_l = 0.0;
    for (std::size_t n = 0; n < b.node_lookups.size(); ++n) {
      const double l = static_cast<double>(b.node_lookups[n] - a.node_lookups[n]);
      max_l = std::max(max_l, l);
      sum_l += l;
    }
    out.metrics.set("cluster.node_lookup_skew",
                    ratio(max_l, sum_l / static_cast<double>(kNodes)), "ratio");
    out.metrics.set("cluster.failovers",
                    static_cast<double>(b.r.failovers - a.r.failovers), "count");
    out.metrics.set("cluster.failed_lookups",
                    static_cast<double>(b.r.failed_lookups - a.r.failed_lookups),
                    "count");
    double wave_p99 = 0.0;
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      wave_p99 = std::max(wave_p99,
                          cluster->node(n).write_latency_us().percentile(0.99));
    }
    out.metrics.set("nvm.sim_write_wave_p99_us", wave_p99, "sim_us");
    out.info = "{\"probe_spans\": \"" + dump_spans(opt, probe_spans) +
               "\", \"workers\": " + worker_summary(dump.workers) + "}";
  }
  for (std::uint32_t n = 0; n < kNodes; ++n) cluster->node(n).set_access_tap(nullptr);
  const std::string sizes = sizes_info(
      opt.workload, in, dram, 0, "closed loop, 6 in flight, 3 workers, 4 nodes",
      sink, setup);
  out.info = out.info.empty() ? sizes : "[" + sizes + ", " + out.info + "]";
  return out;
}

// ------------------------------------------------------------ retrain_push

Outcome run_retrain_push(const Options& opt) {
  constexpr double kScale = 0.25;
  constexpr double kRate = 2500.0;      // open-loop requests per second
  constexpr std::size_t kServe = 5000;  // requests per serve phase
  constexpr std::size_t kSegments = 4;  // drift steps pre-generated
  constexpr std::size_t kPostSwap = 500;
  // The generator's own lag (send time minus the later of due time and the
  // previous completion) above this p99 means it could not keep its
  // schedule: the run is invalid. Lateness the store causes by stalling a
  // request is measured as latency instead.
  constexpr double kOwnLagLimitUs = 5'000.0;
  Inputs in = make_inputs(kScale, kTrainQueries, 12'000, kSegments, opt.seed);
  const StoreConfig cfg = store_config(true);
  const std::uint64_t dram = in.total_vectors / 25;
  const std::string file = opt.data_dir + "/retrain_push.blocks";
  const std::string manifest = opt.data_dir + "/retrain_push.manifest";
  std::unique_ptr<Store> store;
  const Setup setup = timed_setup(
      in, cfg, dram,
      [&] {
        store.reset();
        remove_files({file, manifest});
      },
      [&](const StorePlan& plan) {
        BlockStorageFactory f = async_file_factory(cfg, file);
        if (opt.trace) f = traced_storage_factory(std::move(f));
        StoreBuilder b(cfg);
        b.seed(opt.seed).storage(std::move(f)).manifest(manifest);
        store = std::make_unique<Store>(b.add_plan(plan, in.values).build());
      });
  const std::uint64_t file_bytes =
      store->storage().num_blocks() * store->storage().block_bytes();
  settle_file(file);
  RetrainerConfig rc;
  rc.sampler.seed = opt.seed;
  rc.trainer.total_cache_vectors = dram;
  rc.republish.blocks_per_interval = 8;
  rc.republish.interval_us = 1000.0;
  rc.min_sampled_queries = 0;
  Outcome out;
  Sink sink;
  sink.reserve(std::size_t{6'000} * static_cast<std::size_t>(opt.seconds));
  std::vector<double> late_us, own_lag_us, retrain_s, push_s, republish_s;
  std::uint64_t post_hits = 0, post_lookups = 0, cycles = 0, pushes = 0;
  Snap a, b;
  RetrainerStats rs0, rs1;
  double serve_wall = 0.0;
  std::uint64_t next_req = 1;
  {
    OnlineRetrainer retrainer(
        *store, rc, [&](TableId t) -> const EmbeddingTable& { return in.values[t]; });
    TracingTap tap(&retrainer.sampler());
    if (opt.trace) store->set_access_tap(&tap);
    const Oracle oracle(in.values);
    Tracer& tr = Tracer::get();
    const auto serve = [&](const MultiGetRequest& r, std::uint64_t&,
                           std::uint64_t&) { return store->multi_get(r); };
    std::size_t cursor = 0;
    Sink warm;
    closed_loop_sync(in.segments[0], cursor,
                     std::numeric_limits<std::int64_t>::max(), 3'000, false, serve,
                     oracle, &warm, next_req);
    finish_outcome(out, warm);

    const double period_ns = 1e9 / kRate;
    std::size_t post_left = 0;
    std::uint64_t slot = 0;
    std::int64_t prev_done = 0;
    // One open-loop request slot: wait for the due time, serve, time the
    // request from when it was due. Every other slot is traced in trace mode.
    const auto serve_slot = [&](const std::vector<Trace>& seg, std::size_t q,
                                std::int64_t due) -> void {
      spin_until(due);
      const MultiGetRequest req = make_request(seg, q);
      const bool traced = opt.trace && (slot++ % 2 == 1);
      const std::uint64_t id = traced ? next_req++ : 0;
      Tracer::tl_req = id;
      tr.on.store(traced, std::memory_order_relaxed);
      const std::int64_t send = now_ns();
      std::optional<MultiGetResult> res;
      try {
        res.emplace(store->multi_get(req));
      } catch (...) {
      }
      const std::int64_t done = now_ns();
      tr.on.store(false, std::memory_order_relaxed);
      Tracer::tl_req = 0;
      if (traced) {
        Span s;
        s.req = id;
        s.kind = SpanKind::kRequest;
        s.t0 = send;
        s.t1 = done;
        tr.record(s);
      }
      store->advance_time_us(1e6 / kRate);
      const double late = static_cast<double>(send - due) / 1e3;
      late_us.push_back(late);
      own_lag_us.push_back(static_cast<double>(send - std::max(due, prev_done)) / 1e3);
      prev_done = done;
      const double lat = static_cast<double>(done - due) / 1e3;
      if (!res) {
        sink.add(lat, traced, nullptr, false);
      } else {
        sink.add(lat, traced, &*res, oracle.check(seg, q, *res));
        if (post_left > 0) {
          --post_left;
          post_hits += res->hits();
          post_lookups += res->lookups();
        }
      }
    };
    // Serving pauses while the benchmark runs a retrain or a republish; the
    // tracer records those calls whole in trace mode.
    const auto paused = [&](Phase phase, auto&& f) {
      Tracer::tl_phase = phase;
      Tracer::tl_always = opt.trace;
      const std::int64_t t0 = now_ns();
      f();
      const double s = static_cast<double>(now_ns() - t0) / 1e9;
      Tracer::tl_always = false;
      Tracer::tl_phase = Phase::kServe;
      return s;
    };

    a = snap(*store);
    rs0 = retrainer.stats();
    const std::int64_t begin = now_ns();
    sink.start_ns = begin;
    const std::int64_t deadline = begin + std::int64_t{opt.seconds} * 1'000'000'000;
    for (std::size_t c = 0; c == 0 || now_ns() < deadline; ++c) {
      const auto& seg = in.segments[c % kSegments];
      const std::size_t pool_n = seg.front().num_queries();
      // 1. Serve.
      std::int64_t start = now_ns();
      for (std::size_t k = 0; k < kServe; ++k) {
        serve_slot(seg, cursor++ % pool_n,
                   start + static_cast<std::int64_t>(k * period_ns));
      }
      serve_wall += static_cast<double>(now_ns() - start) / 1e9;
      // 2. Drift: the next segment was generated after one more drift step.
      const auto& drifted = in.segments[(c + 1) % kSegments];
      const std::size_t drift_n = drifted.front().num_queries();
      // 3. Retrain, serving paused.
      retrain_s.push_back(paused(Phase::kRetrain, [&] { retrainer.retrain_now(); }));
      // 4. Pump once per request slot until every table swapped. The pump
      // runs on its own thread on the same schedule, so a slow pump shows
      // as interference on serving, not as a stalled generator.
      double pump_s = 0.0;
      const bool pushed = retrainer.republishing();
      std::atomic<bool> pumping{pushed};
      std::atomic<std::uint64_t> swaps{retrainer.stats().swaps};
      start = now_ns();
      std::exception_ptr pump_error;
      std::thread pumper([&] {
        Tracer::tl_phase = Phase::kPump;
        Tracer::tl_always = opt.trace;
        try {
          for (std::size_t k = 0; pumping.load(); ++k) {
            sleep_until(start + static_cast<std::int64_t>(k * period_ns));
            const std::int64_t p0 = now_ns();
            retrainer.pump();
            pump_s += static_cast<double>(now_ns() - p0) / 1e9;
            swaps.store(retrainer.stats().swaps);
            if (!retrainer.republishing()) pumping.store(false);
          }
        } catch (...) {
          pump_error = std::current_exception();
          pumping.store(false);
        }
      });
      std::uint64_t seen_swaps = swaps.load();
      for (std::size_t k = 0; pumping.load(); ++k) {
        serve_slot(drifted, cursor++ % drift_n,
                   start + static_cast<std::int64_t>(k * period_ns));
        if (swaps.load() != seen_swaps) {
          seen_swaps = swaps.load();
          post_left = kPostSwap;
        }
      }
      pumper.join();
      if (pump_error) std::rethrow_exception(pump_error);
      serve_wall += static_cast<double>(now_ns() - start) / 1e9;
      if (pushed) {
        ++pushes;
        push_s.push_back(pump_s);
      }
      // 5. One-shot republish of ~1% of one table's vectors; the oracle's
      // reference switches to the new bytes when the call returns.
      const auto t = static_cast<TableId>(c % in.values.size());
      EmbeddingTable next = in.values[t];
      Rng rng(splitmix64(opt.seed ^ (0xC0FFEEULL + c)));
      for (std::uint32_t i = 0; i < next.num_vectors() / 100; ++i) {
        next.vector(static_cast<VectorId>(rng.next_below(next.num_vectors())))[0] +=
            1.0f;
      }
      republish_s.push_back(
          paused(Phase::kRepublish, [&] { store->republish(t, next); }));
      in.values[t] = std::move(next);
      post_left = kPostSwap;
      ++cycles;
    }
    b = snap(*store);
    rs1 = retrainer.stats();
    if (percentile(own_lag_us, 0.99) > kOwnLagLimitUs) out.valid = false;
    store->set_access_tap(nullptr);
  }
  finish_outcome(out, sink);
  if (!opt.trace) {
    report_end_to_end(out.metrics, sink, setup, serve_wall);
  } else {
    const TraceDump dump = Tracer::get().gather();
    const auto bd = breakdown(dump.spans);
    report_layers(out.metrics, sink, a, b, dump, bd, true, setup);
    Metrics& m = out.metrics;
    const double cyc = static_cast<double>(cycles);
    const double psh = static_cast<double>(pushes);
    m.set("retrain_s", median(retrain_s), "s");
    m.set("push_s", median(push_s), "s");
    m.set("republish_s", median(republish_s), "s");
    m.set("core.write_blocks_per_push",
          ratio(static_cast<double>(rs1.blocks_written - rs0.blocks_written), psh),
          "blocks");
    m.set("core.skipped_blocks_per_push",
          ratio(static_cast<double>(rs1.blocks_skipped - rs0.blocks_skipped), psh),
          "blocks");
    m.set("core.manifest_commits_per_cycle",
          ratio(static_cast<double>(b.s.manifest_commits - a.s.manifest_commits), cyc),
          "count");
    m.set("core.mapping_swaps",
          static_cast<double>(b.s.mapping_swaps - a.s.mapping_swaps), "count");
    const double retrains = static_cast<double>(rs1.retrains - rs0.retrains);
    m.set("core.retrain_drain_s",
          ratio(static_cast<double>(rs1.drain_us - rs0.drain_us) / 1e6, retrains), "s");
    m.set("core.retrain_train_s",
          ratio(static_cast<double>(rs1.train_us - rs0.train_us) / 1e6, retrains), "s");
    m.set("core.retrain_diff_s",
          ratio(static_cast<double>(rs1.diff_us - rs0.diff_us) / 1e6, retrains), "s");
    m.set("cache.post_swap_hit_rate",
          ratio(static_cast<double>(post_hits), static_cast<double>(post_lookups)),
          "ratio");
    double w_calls = 0, w_blocks = 0, w_s = 0, s_calls = 0, s_s = 0;
    for (const Span& s : dump.spans) {
      const double sec = static_cast<double>(s.t1 - s.t0) / 1e9;
      if (s.kind == SpanKind::kWrite && s.phase == Phase::kPump) {
        ++w_calls;
        w_blocks += s.blocks;
        w_s += sec;
      } else if (s.kind == SpanKind::kSync) {
        ++s_calls;
        s_s += sec;
      }
    }
    m.set("nvm.write_calls_per_push", ratio(w_calls, psh), "calls");
    m.set("nvm.write_blocks_per_call", ratio(w_blocks, w_calls), "blocks/call");
    m.set("nvm.write_s_per_push", ratio(w_s, psh), "s");
    m.set("nvm.sync_calls_per_cycle", ratio(s_calls, cyc), "calls");
    m.set("nvm.sync_s_per_cycle", ratio(s_s, cyc), "s");
    m.set("nvm.sim_write_wave_p99_us", store->write_latency_us().percentile(0.99),
          "sim_us");
    m.set("loadgen.late_p99_us", percentile(late_us, 0.99), "us");
    out.info = "{\"spans\": \"" + dump_spans(opt, dump.spans) +
               "\", \"traced_requests\": " + std::to_string(bd.size()) +
               ", \"non_nested\": " + std::to_string(non_nested(bd)) + "}";
  }
  std::ostringstream load;
  load << "open loop, " << kRate << " req/s, " << cycles << " cycles, late_p99_us "
       << percentile(late_us, 0.99) << ", own_lag_p99_us "
       << percentile(own_lag_us, 0.99);
  const std::string sizes =
      sizes_info(opt.workload, in, dram, file_bytes, load.str(), sink, setup);
  out.info = out.info.empty() ? sizes : "[" + sizes + ", " + out.info + "]";
  return out;
}

}  // namespace

Outcome run_workload(const Options& opt) {
  if (opt.workload == "hot_async") return run_hot_async(opt);
  if (opt.workload == "miss_file") return run_miss_file(opt);
  if (opt.workload == "retrain_push") return run_retrain_push(opt);
  if (opt.workload == "cluster_async") return run_cluster_async(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace perfbench
