#include "kit.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    os << (i ? ", " : "") << "\"" << json_escape(order_[i])
       << "\": {\"value\": " << value << ", \"unit\": \"" << json_escape(unit)
       << "\"}";
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotor::CpuRotor(std::int64_t period_ns)
    : period_ns_(period_ns), due_ns_(now_ns() + period_ns) {
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    return;
  }
  restore_ = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
}

CpuRotor::~CpuRotor() {
  if (restore_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotor::tick() {
  if (cpus_.size() < 2) return;
  const std::int64_t now = now_ns();
  if (now < due_ns_) return;
  due_ns_ = now + period_ns_;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

// ---------------------------------------------------------------- inputs

Inputs make_inputs(double scale, std::size_t train_queries,
                   std::size_t pool_requests, std::size_t segments,
                   std::uint64_t seed) {
  PaperWorkloadOptions opts;
  opts.scale = scale;
  opts.dim = 32;  // 128-byte vectors: the store's default geometry
  Inputs in;
  in.cfgs = paper_tables(opts);
  in.segments.resize(segments);
  std::uint64_t ids = 0;
  for (std::size_t t = 0; t < in.cfgs.size(); ++t) {
    TraceGenerator gen(in.cfgs[t], splitmix64(seed * 1000 + t));
    in.values.push_back(gen.make_embeddings());
    in.sizes.push_back(in.cfgs[t].num_vectors);
    in.total_vectors += in.cfgs[t].num_vectors;
    in.train.push_back(gen.generate(train_queries));
    for (std::size_t s = 0; s < segments; ++s) {
      // Segment s serves after s drift steps (the retrain schedule).
      if (s > 0) gen.apply_drift();
      in.segments[s].push_back(gen.generate(pool_requests));
      ids += in.segments[s].back().total_lookups();
    }
  }
  in.ids_per_request =
      static_cast<double>(ids) / static_cast<double>(pool_requests * segments);
  return in;
}

MultiGetRequest make_request(const std::vector<Trace>& seg, std::size_t q) {
  MultiGetRequest req;
  for (std::size_t t = 0; t < seg.size(); ++t) {
    const auto ids = seg[t].query(q);
    if (!ids.empty()) req.add(static_cast<TableId>(t), ids);
  }
  return req;
}

bool Oracle::check(const std::vector<Trace>& seg, std::size_t q,
                   const MultiGetResult& res,
                   std::uint64_t zero_filled) const {
  if (zero_filled != 0) return false;
  std::size_t g = 0;
  for (std::size_t t = 0; t < seg.size(); ++t) {
    const auto ids = seg[t].query(q);
    if (ids.empty()) continue;
    if (g >= res.vectors.size()) return false;
    const auto& bytes = res.vectors[g++];
    const auto& table = (*ref_)[t];
    const std::size_t vb = table.vector_bytes();
    if (bytes.size() != ids.size() * vb) return false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (std::memcmp(bytes.data() + i * vb,
                      table.vector_bytes_view(ids[i]).data(), vb) != 0) {
        return false;
      }
    }
  }
  return g == res.vectors.size();
}

// ---------------------------------------------------------------- tracing

thread_local std::uint64_t Tracer::tl_req = 0;
thread_local Phase Tracer::tl_phase = Phase::kServe;
thread_local bool Tracer::tl_always = false;

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->thread = static_cast<std::uint16_t>(buffers_.size() - 1);
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

void Tracer::record(Span s) {
  Buffer& b = local();
  s.thread = b.thread;
  if (s.req == 0 && s.phase == Phase::kServe) {
    WorkerReads& w = b.unattributed;
    if (s.kind == SpanKind::kTap) {
      ++w.taps;
      return;
    }
    if (s.kind == SpanKind::kReadBlock || s.kind == SpanKind::kReadBlocks) {
      const double us = static_cast<double>(s.t1 - s.t0) / 1e3;
      ++w.calls;
      w.blocks += s.blocks;
      w.total_us += us;
      w.us.push_back(static_cast<float>(us));
      return;
    }
  }
  b.spans.push_back(s);
}

TraceDump Tracer::gather() const {
  std::lock_guard lock(mu_);
  TraceDump d;
  for (const auto& b : buffers_) {
    d.spans.insert(d.spans.end(), b->spans.begin(), b->spans.end());
    if (b->unattributed.calls + b->unattributed.taps > 0) {
      d.workers.push_back(b->unattributed);
      d.workers.back().thread = b->thread;
    }
  }
  return d;
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  for (auto& b : buffers_) {
    b->spans.clear();
    b->unattributed = {};
  }
}

namespace {

class TracedStorage final : public BlockStorage {
 public:
  TracedStorage(std::unique_ptr<BlockStorage> inner, std::uint16_t node)
      : inner_(std::move(inner)), node_(node) {}

  std::size_t block_bytes() const override { return inner_->block_bytes(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  void read_block(BlockId b, std::span<std::byte> out) const override {
    timed(SpanKind::kReadBlock, 1, [&] { inner_->read_block(b, out); });
  }
  void write_block(BlockId b, std::span<const std::byte> in) override {
    timed(SpanKind::kWrite, 1, [&] { inner_->write_block(b, in); });
  }
  void read_blocks(std::span<const BlockReadOp> ops) const override {
    timed(SpanKind::kReadBlocks, ops.size(),
          [&] { inner_->read_blocks(ops); });
  }
  void write_blocks(std::span<const BlockWriteOp> ops) override {
    timed(SpanKind::kWrite, ops.size(), [&] { inner_->write_blocks(ops); });
  }
  void sync() override {
    timed(SpanKind::kSync, 0, [&] { inner_->sync(); });
  }
  bool prefers_batched_reads() const override {
    return inner_->prefers_batched_reads();
  }
  bool prefers_batched_writes() const override {
    return inner_->prefers_batched_writes();
  }
  BlockStorageWriteStats write_stats() const override {
    return inner_->write_stats();
  }
  WaveBufferLease lease_wave_buffer(std::size_t bytes) const override {
    return inner_->lease_wave_buffer(bytes);
  }
  bool same_backing(const BlockStorage& other) const override {
    const auto* peer = dynamic_cast<const TracedStorage*>(&other);
    return inner_->same_backing(peer ? *peer->inner_ : other);
  }

 private:
  template <typename F>
  void timed(SpanKind kind, std::size_t blocks, F&& f) const {
    Tracer& tr = Tracer::get();
    if (!tr.recording()) {
      f();
      return;
    }
    Span s;
    s.req = Tracer::tl_req;
    s.phase = Tracer::tl_phase;
    s.kind = kind;
    s.blocks = static_cast<std::uint32_t>(blocks);
    s.node = node_;
    s.t0 = now_ns();
    f();
    s.t1 = now_ns();
    tr.record(s);
  }

  std::unique_ptr<BlockStorage> inner_;
  std::uint16_t node_;
};

}  // namespace

BlockStorageFactory traced_storage_factory(BlockStorageFactory inner,
                                           std::uint16_t node) {
  return [inner = std::move(inner), node](std::uint64_t num_blocks,
                                          std::size_t block_bytes) {
    return std::unique_ptr<BlockStorage>(std::make_unique<TracedStorage>(
        inner(num_blocks, block_bytes), node));
  };
}

void TracingTap::on_table_get(TableId table, std::span<const VectorId> ids,
                              std::uint64_t hits, std::uint64_t misses) {
  Tracer& tr = Tracer::get();
  if (tr.recording()) {
    Span s;
    s.req = Tracer::tl_req;
    s.phase = Tracer::tl_phase;
    s.kind = SpanKind::kTap;
    s.blocks = static_cast<std::uint32_t>(ids.size());
    s.node = node_;
    s.t0 = s.t1 = now_ns();
    tr.record(s);
  }
  if (inner_ != nullptr) inner_->on_table_get(table, ids, hits, misses);
}

std::vector<RequestBreakdown> breakdown(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> by_req;
  for (const Span& s : spans) {
    if (s.req != 0) by_req[s.req].push_back(&s);
  }
  std::vector<RequestBreakdown> out;
  for (auto& [req, group] : by_req) {
    const Span* root = nullptr;
    for (const Span* s : group) {
      if (s->kind == SpanKind::kRequest) root = s;
    }
    if (root == nullptr) continue;
    RequestBreakdown b;
    b.req = req;
    b.total_us = static_cast<double>(root->t1 - root->t0) / 1e3;
    // Union of the storage child spans, clipped to the request span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    std::int64_t last_tap = -1;
    for (const Span* s : group) {
      if (s == root) continue;
      if (s->t0 < root->t0 || s->t1 > root->t1) b.nested = false;
      if (s->kind == SpanKind::kTap) {
        last_tap = std::max(last_tap, s->t1);
        continue;
      }
      if (s->kind == SpanKind::kRequest) continue;
      iv.emplace_back(std::max(s->t0, root->t0), std::min(s->t1, root->t1));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur0 = 0, cur1 = -1;
    for (const auto& [a, z] : iv) {
      if (z <= a) continue;
      if (a > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = a;
        cur1 = z;
      } else {
        cur1 = std::max(cur1, z);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    b.child_us = static_cast<double>(covered) / 1e3;
    b.self_us = b.total_us - b.child_us;
    if (last_tap >= 0) {
      b.after_tap_us = static_cast<double>(root->t1 - last_tap) / 1e3;
    }
    out.push_back(b);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "req,kind,phase,thread,node,t0_ns,t1_ns,blocks\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%u,%u,%u,%u,%lld,%lld,%u\n",
                 static_cast<unsigned long long>(s.req),
                 static_cast<unsigned>(s.kind), static_cast<unsigned>(s.phase),
                 s.thread, s.node, static_cast<long long>(s.t0),
                 static_cast<long long>(s.t1), s.blocks);
  }
  std::fclose(f);
}

}  // namespace perfbench
