// The benchmark's own self-test, at tiny sizes: the oracle must flag one
// corrupted byte in a returned copy (the store is never touched), and every
// traced request's child spans must nest inside its request span with self
// time plus child time adding up to the span.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "kit.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int self_test(const std::string& data_dir) {
  const Inputs in = make_inputs(0.02, 600, 300, 1, 7);
  StoreConfig cfg;
  cfg.simulate_timing = false;
  TrainerConfig tcfg;
  tcfg.total_cache_vectors = in.total_vectors / 25;
  ThreadPool pool(2);
  const StorePlan plan = Trainer(cfg, tcfg).train(in.train, in.sizes, &pool);
  const std::string file = data_dir + "/self_test.blocks";
  AsyncFileBlockStorage::Options o;
  o.wave_buffer_blocks = cfg.device.queue_depth * cfg.device.channels;
  Store store = StoreBuilder(cfg)
                    .storage(traced_storage_factory(async_file_storage_factory(file, o)))
                    .add_plan(plan, in.values)
                    .build();
  TracingTap tap;
  store.set_access_tap(&tap);
  const Oracle oracle(in.values);
  const auto& seg = in.segments[0];

  Tracer& tr = Tracer::get();
  tr.clear();
  bool all_ok = true, flagged_all = true;
  for (std::size_t q = 0; q < seg.front().num_queries(); ++q) {
    const MultiGetRequest req = make_request(seg, q);
    Tracer::tl_req = q + 1;
    tr.on.store(true);
    const std::int64_t t0 = now_ns();
    const MultiGetResult res = store.multi_get(req);
    const std::int64_t t1 = now_ns();
    tr.on.store(false);
    Tracer::tl_req = 0;
    Span s;
    s.req = q + 1;
    s.t0 = t0;
    s.t1 = t1;
    tr.record(s);
    all_ok = all_ok && oracle.check(seg, q, res);
    // Corrupt one byte of a copy: the first, a middle and the last byte of
    // the returned vectors, one at a time.
    if (res.vectors.empty() || res.vectors.back().empty()) continue;
    for (const int where : {0, 1, 2}) {
      MultiGetResult copy = res;
      auto& bytes = where == 0 ? copy.vectors.front() : copy.vectors.back();
      const std::size_t i = where == 0 ? 0 : where == 1 ? bytes.size() / 2 : bytes.size() - 1;
      bytes[i] ^= std::byte{0x01};
      flagged_all = flagged_all && !oracle.check(seg, q, copy);
    }
  }
  store.set_access_tap(nullptr);
  expect(all_ok, "oracle accepts every served request");
  expect(flagged_all, "oracle flags one corrupted byte in a returned copy");
  {
    const MultiGetResult res = store.multi_get(make_request(seg, 0));
    expect(oracle.check(seg, 0, res),
           "the store still serves the published bytes after the corruption checks");
    expect(!oracle.check(seg, 0, res, 1), "oracle fails a zero-filled request");
  }

  const auto spans = tr.gather().spans;
  const auto bd = breakdown(spans);
  bool nested = !bd.empty(), sums = !bd.empty(), tapped = !bd.empty();
  std::size_t with_children = 0;
  for (const auto& r : bd) {
    nested = nested && r.nested;
    sums = sums && std::abs(r.self_us + r.child_us - r.total_us) < 1e-6 &&
           r.self_us >= 0.0;
    tapped = tapped && r.after_tap_us >= 0.0 && r.after_tap_us <= r.total_us;
    if (r.child_us > 0.0) ++with_children;
  }
  expect(bd.size() == seg.front().num_queries(), "every traced request has a breakdown");
  expect(nested, "child spans nest inside their request span");
  expect(sums, "self time plus child time equals the request span");
  expect(tapped, "every request's last tap call lies inside its span");
  expect(with_children > 0, "storage reads are attributed to requests");

  // Nesting must be detected, not assumed: a child outside its parent.
  std::vector<Span> bad;
  Span root;
  root.req = 1;
  root.t0 = 100;
  root.t1 = 200;
  Span child = root;
  child.kind = SpanKind::kReadBlocks;
  child.t0 = 150;
  child.t1 = 250;
  bad = {root, child};
  const auto bad_bd = breakdown(bad);
  expect(bad_bd.size() == 1 && !bad_bd[0].nested &&
             std::abs(bad_bd[0].child_us - 0.05) < 1e-9,
         "a child span crossing its parent is flagged and clipped");

  // A serving read with no request id (a pool worker's) is aggregated for
  // its thread, not kept as a span nor guessed onto a request.
  tr.clear();
  Span worker_read;
  worker_read.kind = SpanKind::kReadBlock;
  worker_read.blocks = 1;
  worker_read.t0 = 0;
  worker_read.t1 = 2'000;
  tr.record(worker_read);
  const TraceDump dump = tr.gather();
  expect(dump.spans.empty() && dump.workers.size() == 1 &&
             dump.workers[0].calls == 1 &&
             std::abs(dump.workers[0].total_us - 2.0) < 1e-9,
         "an unattributed serving read is aggregated per worker thread");

  std::error_code ec;
  std::filesystem::remove(file, ec);
  std::printf("%s\n", g_failures == 0 ? "self-test passed" : "self-test FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
