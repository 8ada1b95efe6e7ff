// open_loop_mixed: a threaded engine (scheduler_workers = 2) fed by one
// generator thread on a fixed schedule — batch k is due when its last
// row's event time has passed on the wall clock, and the generator never
// slows down when the engine does. Durability is on; a checkpointer
// thread calls Checkpoint() every kCheckpointMs (the loop the engine's
// checkpoint_interval_ms runs, done from outside so each checkpoint can
// be timed), and one closed-loop ad-hoc client issues one-time queries
// with a fixed think time.
//
// Latency is measured from the due time of the batch that closes a
// window to the sink call; which batch closes which window comes from a
// synchronous reference run of the same input.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common.h"
#include "layers.h"
#include "monitor/trace.h"
#include "spans.h"
#include "util/string_util.h"

namespace dc::perfbench {
namespace {

// Offered load, kept well below what the engine sustains here so that
// queueing stays small and latency reflects service time and stalls.
constexpr int kRowsPerSecond = 50000;
constexpr int kBatchRows = 1000;
constexpr Micros kTsStep = kMicrosPerSecond / kRowsPerSecond;
constexpr int kSlideMs = 100;
constexpr int kCheckpointMs = 200;
constexpr int kThinkMs = 20;
constexpr int kSetupReps = 25;  // setup-only repetitions for setup_s

/// A stoppable sleep shared by the helper threads.
class StopFlag {
 public:
  /// Sleeps up to `ms`; false once Stop() was called.
  bool SleepFor(int ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return !cv_.wait_for(lock, std::chrono::milliseconds(ms),
                         [&] { return stop_; });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

void SleepUntil(double t) {
  const double now = NowUs();
  if (t > now) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::micro>(t - now));
  }
}

struct Phase {
  double setup_us = 0;
  std::vector<double> due, start;  // per batch; index n = the seal
  std::vector<double> lag_us, adhoc_us, checkpoint_us, push_us, submit_us,
      sink_us;
  std::vector<QueryLogPtr> logs;
  double recovery_us = 0;
  double peak_rss_mb = 0;
  LayerInputs layers;
};

Phase RunPhase(const Inputs& in, const std::vector<QuerySpec>& queries,
               const Options& opt, bool traced, SpanLog* spans, Tally& tally) {
  Phase p;
  EngineOptions eo;
  eo.scheduler_workers = 2;
  eo.enable_tracing = traced;
  eo.durability.dir = FreshDir(opt.work_dir, "wal_open");
  eo.durability.fsync = kFsync;

  const double s0 = NowUs();
  auto engine = std::make_unique<Engine>(eo);
  p.logs = RunSetup(*engine, /*with_acks=*/false, queries, tally, &p.submit_us);
  p.setup_us = NowUs() - s0;
  tally.Op(engine->recovery_status(), "fresh engine");

  StopFlag stop;
  std::mutex mu;  // guards the helper threads' sample vectors
  std::thread checkpointer([&] {
    while (stop.SleepFor(kCheckpointMs)) {
      const double t0 = NowUs();
      Status s;
      {
        trace::Span span("bench.checkpoint", "bench");
        s = engine->Checkpoint();
      }
      const double us = NowUs() - t0;
      tally.Op(s, "Checkpoint");
      std::lock_guard<std::mutex> lock(mu);
      p.checkpoint_us.push_back(us);
    }
  });
  std::thread adhoc([&] {
    while (stop.SleepFor(kThinkMs)) {
      const double t0 = NowUs();
      Result<ColumnSet> res = [&] {
        trace::Span span("bench.query", "bench");
        return engine->Query(kAdhocSql);
      }();
      const double us = NowUs() - t0;
      if (tally.Op(res.status(), "Query")) {
        tally.Gate(AdhocResultOk(*res, nullptr, in.rows),
                   "one-time query result");
      }
      std::lock_guard<std::mutex> lock(mu);
      p.adhoc_us.push_back(us);
    }
  });
  std::thread harvester;
  if (traced) {
    harvester = std::thread([&] {
      while (stop.SleepFor(20)) spans->MaybeHarvest();
    });
  }

  // The generator: this thread.
  const size_t n = in.pkts.size();
  const double t0 = NowUs() + 20 * kMicrosPerMilli;
  for (size_t k = 0; k <= n; ++k) {
    const double due =
        k < n ? t0 + static_cast<double>(in.last_ts[k] - in.last_ts[0])
              : p.due.back() + kBatchRows * kTsStep;  // the seal
    p.due.push_back(due);
    if (k % 100 == 0) {
      RunResult partial;
      partial.Add("batches_pushed", "count", static_cast<double>(k));
      partial.Add("gen_lag_max_ms", "ms", Quantile(p.lag_us, 1.0) / 1000);
      PublishPartial(partial);
    }
    SleepUntil(due);
    const double start = NowUs();
    p.start.push_back(start);
    p.lag_us.push_back(start - due);
    if (k < n) {
      trace::Span span("bench.push", "bench");
      tally.Op(engine->PushColumns("pkts", in.pkts[k]), "PushColumns");
    } else {
      trace::Span span("bench.seal", "bench");
      tally.Op(engine->SealStream("pkts"), "SealStream");
    }
    p.push_us.push_back(NowUs() - start);
  }
  tally.Gate(engine->WaitIdle(60000), "engine drained after the seal");
  stop.Stop();
  checkpointer.join();
  adhoc.join();
  if (harvester.joinable()) harvester.join();
  p.peak_rss_mb = PeakRssMb();

  LayerInputs& li = p.layers;
  li.factory = UniqueFactoryStats(*engine, p.logs);
  li.sched = engine->SchedStats();
  li.sharing = engine->GetSharingStats();
  if (Result<BasketStats> bs = engine->StreamStats("pkts"); bs.ok()) {
    li.basket = *bs;
  }
  ReadStorageCounters(*engine, &li);
  li.engine_latency = EngineLatency(*engine, p.logs);
  li.deliveries = TotalEmissions(p.logs);
  for (const QueryLogPtr& l : p.logs) {
    std::lock_guard<std::mutex> lock(l->mu);
    p.sink_us.insert(p.sink_us.end(), l->sink_us.begin(), l->sink_us.end());
  }
  engine.reset();

  // Restart from the directory the run left behind.
  const double r0 = NowUs();
  {
    std::unique_ptr<Engine> recovered;
    {
      trace::Span span("bench.recover", "bench");
      recovered = std::make_unique<Engine>(eo);
    }
    p.recovery_us = NowUs() - r0;
    tally.Op(recovered->recovery_status(), "recovery");
    li.replayed_records =
        recovered->metrics().GetCounter("recovery.replayed_records")->Value();
  }
  std::error_code ec;
  std::filesystem::remove_all(eo.durability.dir, ec);
  if (traced) spans->Harvest();
  return p;
}

/// Latency figures of one phase against the synchronous reference.
struct Latency {
  std::vector<double> emit_us, slide_us;
  uint64_t within = 0, expected = 0;
  double last_delivery = 0;
};

Latency Measure(const Phase& p, const Reference& ref, Tally& tally) {
  Latency lat;
  std::vector<double> batch_done(p.due.size(), 0);  // last delivery per batch
  for (size_t q = 0; q < p.logs.size(); ++q) {
    const QueryLog& l = *p.logs[q];
    const std::vector<uint64_t>& want = ref.hashes[q];
    lat.expected += want.size();
    tally.Gate(l.hashes == want,
               StrFormat("query %s: %zu emissions vs synchronous %zu (or a "
                         "digest differs)",
                         l.name.c_str(), l.hashes.size(), want.size()));
    const size_t m = std::min(l.at.size(), want.size());
    for (size_t j = 0; j < m; ++j) {
      const int32_t b = ref.batch[q][j];
      const double us = l.at[j] - p.due[b];
      lat.emit_us.push_back(us);
      lat.within += us <= kEmitLimitMs * 1000 ? 1 : 0;
      batch_done[b] = std::max(batch_done[b], l.at[j]);
      lat.last_delivery = std::max(lat.last_delivery, l.at[j]);
    }
  }
  for (size_t b = 0; b < batch_done.size(); ++b) {
    if (batch_done[b] > 0) {
      lat.slide_us.push_back(batch_done[b] - p.start[b]);
    }
  }
  return lat;
}

}  // namespace

RunResult RunOpenLoopMixed(const Options& opt, Tally& tally) {
  // A traced run measures an untraced and a traced half on one input.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int batches = std::max(
      20, static_cast<int>(phase_s * kRowsPerSecond / kBatchRows));
  const Inputs in = MakeInputs(opt.seed, batches, kBatchRows, kTsStep, 0);
  const std::vector<QuerySpec> queries = OpenLoopQueries(kSlideMs);

  std::vector<double> setup_us;
  EngineOptions eo;
  eo.scheduler_workers = 2;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_us.push_back(TimeSetup(eo, /*durable=*/true, opt, false, queries,
                                 tally));
  }
  SpanLog spans;
  std::vector<Phase> phases;
  phases.push_back(RunPhase(in, queries, opt, false, &spans, tally));
  if (opt.trace) {
    phases.push_back(RunPhase(in, queries, opt, true, &spans, tally));
  }
  for (const Phase& p : phases) setup_us.push_back(p.setup_us);

  // Gate (b): every query delivers what a synchronous engine delivers
  // on the same input; it also says which batch closed each window.
  const Reference ref = RunReference(queries, false, in,
                                     ExecMode::kIncremental, true, tally);
  std::vector<Latency> lats;
  for (const Phase& p : phases) lats.push_back(Measure(p, ref, tally));

  RunResult out;
  const Phase& p = phases[0];
  const Latency& lat = lats[0];
  if (!opt.trace) {
    const double span_s = (lat.last_delivery - p.due.front()) / 1e6;
    out.Add("setup_s", "s", Median(setup_us) / 1e6);
    out.Add("rows_per_s", "rows/s", static_cast<double>(in.rows) / span_s);
    out.Add("slide_p50_us", "us", Quantile(lat.slide_us, 0.50));
    out.Add("slide_p99_us", "us", Quantile(lat.slide_us, 0.99));
    out.Add("emit_p50_ms", "ms", Quantile(lat.emit_us, 0.50) / 1000);
    out.Add("emit_p99_ms", "ms", Quantile(lat.emit_us, 0.99) / 1000);
    out.Add("emit_in_limit_ratio", "ratio",
            lat.expected == 0 ? 0
                              : static_cast<double>(lat.within) /
                                    static_cast<double>(lat.expected));
    out.Add("adhoc_p50_ms", "ms", Quantile(p.adhoc_us, 0.50) / 1000);
    out.Add("adhoc_p95_ms", "ms", Quantile(p.adhoc_us, 0.95) / 1000);
    out.Add("peak_rss_mb", "MB", p.peak_rss_mb);
  } else {
    const Phase& t = phases[1];
    LayerInputs li = t.layers;
    li.submit_us = t.submit_us;
    li.push_us = t.push_us;
    li.checkpoint_us = t.checkpoint_us;
    li.sink_us = t.sink_us;
    li.recovery_us = t.recovery_us;
    li.logged_input_bytes = static_cast<double>(in.bytes);
    li.span_rows = static_cast<double>(in.rows);
    li.span_wal_records = static_cast<double>(li.wal_records);
    li.gen_lag_p99_ms = Quantile(t.lag_us, 0.99) / 1000;
    li.wal = ReplayWal(in.pkts, FreshDir(opt.work_dir, "replay"));
    li.spans = spans.Take();
    li.overhead_pct = (Quantile(lats[1].emit_us, 0.5) /
                           Quantile(lats[0].emit_us, 0.5) -
                       1) *
                      100;
    AddLayerMetrics(li, &out);
  }

  out.Note("offered_rows_per_s", "rows/s", kRowsPerSecond);
  out.Note("gen_lag_p50_ms", "ms", Quantile(p.lag_us, 0.50) / 1000);
  out.Note("gen_lag_p99_ms", "ms", Quantile(p.lag_us, 0.99) / 1000);
  out.Note("gen_lag_max_ms", "ms", Quantile(p.lag_us, 1.0) / 1000);
  out.Note("engine_latency_p50_ms", "ms",
           static_cast<double>(p.layers.engine_latency.Percentile(0.5)) / 1000);
  out.Note("engine_latency_p99_ms", "ms",
           static_cast<double>(p.layers.engine_latency.Percentile(0.99)) /
               1000);
  out.Note("emit_samples", "count", static_cast<double>(lat.emit_us.size()));
  out.Note("emit_expected", "count", static_cast<double>(lat.expected));
  out.Note("slide_samples", "count", static_cast<double>(lat.slide_us.size()));
  out.Note("adhoc_samples", "count", static_cast<double>(p.adhoc_us.size()));
  out.Note("checkpoint_p50_ms", "ms", Quantile(p.checkpoint_us, 0.5) / 1000);
  out.Note("checkpoint_samples", "count",
           static_cast<double>(p.checkpoint_us.size()));
  out.Note("recovery_s", "s", p.recovery_us / 1e6);

  // Emissions and digests repeat run to run; timing-driven counts
  // (fires, checkpoints, WAL syncs) do not in a threaded engine.
  uint64_t emitted = 0, digest = 0;
  for (const QueryLogPtr& l : p.logs) {
    emitted += l->hashes.size();
    for (uint64_t h : l->hashes) digest = FoldDigest(digest, h);
  }
  out.counts = {{"emissions", emitted}};
  out.digest = digest;
  return out;
}

}  // namespace dc::perfbench
