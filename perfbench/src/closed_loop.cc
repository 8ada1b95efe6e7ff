// The two closed-loop workloads on a synchronous engine
// (scheduler_workers = 0): one client pushes a batch, pumps, optionally
// checkpoints, and only then sends the next batch.
//
//  * shared_windows: 32 standing queries on one stream (plus a join
//    partner stream), durability off — factory, sharing and exec work.
//  * ingest_durable: two light queries, WAL on (kFsync), a client
//    Checkpoint() every N batches, then a restart that recovers from the
//    same directory and resumes the input.
//
// A run repeats rounds (fresh engine, whole input) until --seconds have
// passed; every round must reproduce the reference emissions exactly.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "common.h"
#include "layers.h"
#include "monitor/trace.h"
#include "spans.h"
#include "util/string_util.h"

namespace dc::perfbench {
namespace {

constexpr int kBatchRows = 1000;
constexpr Micros kTsStep = 100;  // 10 K rows/s of event time
// Batches between one-time queries; they run midway between
// checkpoints, so their latency is the query's own.
constexpr int kAdhocEvery = 10;
constexpr int kSetupReps = 25;   // setup-only repetitions for setup_s

struct ClosedLoopConfig {
  bool durable = false;
  int batches = 0;           // per round
  int ack_every = 0;         // > 0: an acks stream, 1 row per N pkts rows
  int checkpoint_every = 0;  // 0 = never
  int resume_at = 0;         // durable: batches before the restart
  std::vector<QuerySpec> queries;
  bool with_acks() const { return ack_every > 0; }
};

struct Round {
  bool warmup = false;  // gated, but left out of every figure
  bool traced = false;
  double setup_us = 0;
  double busy_us = 0;  // push + pump (+ checkpoint) of the main loop
  uint64_t rows = 0;
  std::vector<double> slide_us, emit_us, adhoc_us, checkpoint_us, push_us,
      pump_us, submit_us, sink_us;
  double recovery_us = 0;
  // Figures read from the engine at the end of the main loop.
  LayerInputs layers;
  std::vector<std::vector<uint64_t>> hashes;   // main loop, per query
  std::vector<std::vector<uint64_t>> resumed;  // recovered engine
  std::vector<std::pair<std::string, uint64_t>> counts;
};

std::vector<uint64_t> HashesOf(const std::vector<ColumnSet>& emissions) {
  std::vector<uint64_t> out;
  out.reserve(emissions.size());
  for (const ColumnSet& e : emissions) out.push_back(EmissionHash(e));
  return out;
}

/// The restart half of ingest_durable: recover a fresh engine from
/// `eo.durability.dir`, feed it the rest of the input, and collect what
/// each query emits.
void RecoverAndResume(const ClosedLoopConfig& cfg, const Inputs& in,
                      const EngineOptions& eo, Tally& tally, Round* r) {
  std::unique_ptr<Engine> engine;
  const double t0 = NowUs();
  {
    trace::Span span("bench.recover", "bench");
    engine = std::make_unique<Engine>(eo);
  }
  r->recovery_us = NowUs() - t0;
  tally.Op(engine->recovery_status(), "recovery");
  r->layers.replayed_records =
      engine->metrics().GetCounter("recovery.replayed_records")->Value();
  std::map<std::string, int> by_name;
  for (const ContinuousQueryInfo& q : engine->Queries()) by_name[q.name] = q.id;
  for (size_t i = cfg.resume_at; i < in.pkts.size(); ++i) {
    tally.Op(engine->PushColumns("pkts", in.pkts[i]), "resumed PushColumns");
    engine->Pump();
  }
  tally.Op(engine->SealStream("pkts"), "resumed SealStream");
  engine->Pump();
  for (const QuerySpec& q : cfg.queries) {
    auto it = by_name.find(q.name);
    if (!tally.Gate(it != by_name.end(), "recovered query " + q.name)) {
      r->resumed.emplace_back();
      continue;
    }
    Result<std::vector<ColumnSet>> got = engine->TakeResults(it->second);
    tally.Op(got.status(), "TakeResults");
    r->resumed.push_back(got.ok() ? HashesOf(*got) : std::vector<uint64_t>{});
  }
}

Round RunRound(const ClosedLoopConfig& cfg, const Inputs& in,
               const Options& opt, bool traced, SpanLog* spans,
               Tally& tally) {
  Round r;
  r.traced = traced;
  EngineOptions eo;
  eo.scheduler_workers = 0;
  eo.enable_tracing = traced;
  if (cfg.durable) {
    eo.durability.dir = FreshDir(opt.work_dir, "wal");
    eo.durability.fsync = kFsync;
  }

  const double s0 = NowUs();
  auto engine = std::make_unique<Engine>(eo);
  const std::vector<QueryLogPtr> logs =
      RunSetup(*engine, cfg.with_acks(), cfg.queries, tally, &r.submit_us);
  r.setup_us = NowUs() - s0;
  tally.Op(engine->recovery_status(), "fresh engine");

  const int main_batches = cfg.durable ? cfg.resume_at : cfg.batches;
  std::vector<double> batch_start(in.pkts.size() + 1, 0);
  uint64_t delivered = 0;
  auto step = [&](int i, bool seal) {
    g_current_batch = i;
    const double t0 = NowUs();
    batch_start[i] = t0;
    if (seal) {
      trace::Span span("bench.seal", "bench");
      tally.Op(engine->SealStream("pkts"), "SealStream");
      if (cfg.with_acks()) tally.Op(engine->SealStream("acks"), "SealStream");
    } else {
      trace::Span span("bench.push", "bench");
      tally.Op(engine->PushColumns("pkts", in.pkts[i]), "PushColumns");
      if (cfg.with_acks()) {
        tally.Op(engine->PushColumns("acks", in.acks[i]), "PushColumns");
      }
    }
    const double t1 = NowUs();
    {
      trace::Span span("bench.pump", "bench");
      engine->Pump();
    }
    const double t2 = NowUs();
    if (!seal && cfg.checkpoint_every > 0 && i > 0 &&
        i % cfg.checkpoint_every == 0) {
      trace::Span span("bench.checkpoint", "bench");
      tally.Op(engine->Checkpoint(), "Checkpoint");
      r.checkpoint_us.push_back(NowUs() - t2);
    }
    const double t3 = NowUs();
    r.push_us.push_back(t1 - t0);
    r.pump_us.push_back(t2 - t1);
    r.busy_us += t3 - t0;
    const uint64_t now_delivered = TotalEmissions(logs);
    if (now_delivered > delivered) {
      r.slide_us.push_back(t3 - t0);
    }
    delivered = now_delivered;
    if (!seal && i % kAdhocEvery == kAdhocEvery / 2) {
      const Result<BasketStats> before = engine->StreamStats("pkts");
      const double q0 = NowUs();
      Result<ColumnSet> res = [&] {
        trace::Span span("bench.query", "bench");
        return engine->Query(kAdhocSql);
      }();
      r.adhoc_us.push_back(NowUs() - q0);
      if (tally.Op(res.status(), "Query") && before.ok()) {
        // Synchronous engine: the basket holds exactly the rows the
        // stats name, so the answer is known.
        const ZoneTotals want = AdhocExpected(
            in, before->appended_total - before->resident_rows,
            before->appended_total);
        tally.Gate(AdhocResultOk(*res, &want, 0), "one-time query result");
      }
    }
    if (traced) spans->MaybeHarvest();
  };
  for (int i = 0; i < main_batches; ++i) {
    step(i, false);
    r.rows += in.pkts[i][0]->size();
    if (cfg.with_acks()) r.rows += in.acks[i][0]->size();
  }
  if (!cfg.durable) step(main_batches, true);

  // Per-emission latency: delivery time minus the start of the client
  // step (push or seal) it was delivered in.
  for (const QueryLogPtr& l : logs) {
    for (size_t j = 0; j < l->at.size(); ++j) {
      r.emit_us.push_back(l->at[j] - batch_start[l->batch[j]]);
    }
    r.sink_us.insert(r.sink_us.end(), l->sink_us.begin(), l->sink_us.end());
    r.hashes.push_back(l->hashes);
  }

  LayerInputs& li = r.layers;
  li.factory = UniqueFactoryStats(*engine, logs);
  li.sched = engine->SchedStats();
  li.sharing = engine->GetSharingStats();
  if (Result<BasketStats> bs = engine->StreamStats("pkts"); bs.ok()) {
    li.basket = *bs;
  }
  ReadStorageCounters(*engine, &li);
  li.engine_latency = EngineLatency(*engine, logs);
  li.deliveries = delivered;
  r.counts = {{"emissions", delivered},
              {"factory.fragments", li.factory.fragments_computed},
              {"sharing.hits", li.sharing.sharing_hits},
              {"sched.fires", li.sched.fires},
              {"wal.records", li.wal_records},
              {"wal.bytes", li.wal_bytes}};
  engine.reset();

  if (cfg.durable) {
    RecoverAndResume(cfg, in, eo, tally, &r);
    std::error_code ec;
    std::filesystem::remove_all(eo.durability.dir, ec);
  }
  if (traced) spans->Harvest();
  return r;
}

bool SameHashes(const std::vector<uint64_t>& got,
                const std::vector<uint64_t>& want, size_t want_from,
                size_t want_to) {
  if (got.size() != want_to - want_from) return false;
  return std::equal(got.begin(), got.end(), want.begin() + want_from);
}

/// Gates (a) and (c) for one round against the reference.
void CheckRound(const ClosedLoopConfig& cfg, const Reference& ref,
                const Round& r, int round, Tally& tally) {
  for (size_t q = 0; q < cfg.queries.size(); ++q) {
    const std::string what =
        StrFormat("round %d query %s", round, cfg.queries[q].name.c_str());
    const std::vector<uint64_t>& want = ref.hashes[q];
    const std::vector<uint64_t> none;
    const std::vector<uint64_t>& got = q < r.hashes.size() ? r.hashes[q] : none;
    if (!cfg.durable) {
      tally.Gate(SameHashes(got, want, 0, want.size()),
                 what + StrFormat(": %zu emissions vs reference %zu (or a "
                                  "digest differs)",
                                  got.size(), want.size()));
      continue;
    }
    // The main loop stopped after resume_at batches: exactly the
    // reference emissions delivered before that point.
    const size_t head = static_cast<size_t>(
        std::count_if(ref.batch[q].begin(), ref.batch[q].end(),
                      [&](int32_t b) { return b < cfg.resume_at; }));
    tally.Gate(SameHashes(got, want, 0, head),
               what + StrFormat(": head %zu emissions vs reference %zu",
                                got.size(), head));
    // The recovered engine: a contiguous suffix of the reference that
    // covers everything after the head.
    const std::vector<uint64_t>& tail =
        q < r.resumed.size() ? r.resumed[q] : none;
    const bool covers = tail.size() >= want.size() - head &&
                        tail.size() <= want.size();
    tally.Gate(covers && SameHashes(tail, want, want.size() - tail.size(),
                                    want.size()),
               what + StrFormat(": recovered %zu emissions, not a covering "
                                "suffix of reference %zu (head %zu)",
                                tail.size(), want.size(), head));
  }
}

RunResult RunClosedLoop(const ClosedLoopConfig& cfg, const Options& opt,
                        Tally& tally) {
  const Inputs in =
      MakeInputs(opt.seed, cfg.batches, kBatchRows, kTsStep, cfg.ack_every);
  RunResult out;
  SpanLog spans;
  std::vector<double> setup_us;
  std::vector<Round> rounds;
  // One warm-up round (allocator, page cache, lazy set-up) first.
  rounds.push_back(RunRound(cfg, in, opt, false, &spans, tally));
  rounds.back().warmup = true;
  const double start = NowUs();
  for (int i = 0; i < kSetupReps; ++i) {
    EngineOptions eo;
    eo.scheduler_workers = 0;
    setup_us.push_back(TimeSetup(eo, cfg.durable, opt, cfg.with_acks(),
                                 cfg.queries, tally));
  }
  // Untraced runs measure only; traced runs alternate untraced and
  // traced rounds so the tracing overhead is measured on the same input.
  while (rounds.size() < 3 || NowUs() - start < opt.seconds * 1e6) {
    const bool traced = opt.trace && rounds.size() % 2 == 0;
    rounds.push_back(RunRound(cfg, in, opt, traced, &spans, tally));
    setup_us.push_back(rounds.back().setup_us);
    const Round& last = rounds.back();
    RunResult partial;
    partial.Add("rounds", "count", static_cast<double>(rounds.size()));
    partial.Add("setup_s", "s", Median(setup_us) / 1e6);
    partial.Add("last_round_rows_per_s", "rows/s",
                static_cast<double>(last.rows) / (last.busy_us / 1e6));
    PublishPartial(partial);
  }
  const double peak_rss = PeakRssMb();

  // The reference (full re-evaluation, sharing off) runs after the
  // measured rounds so it does not set the peak RSS.
  const Reference ref = RunReference(cfg.queries, cfg.with_acks(), in,
                                     ExecMode::kFullReeval,
                                     /*sharing=*/false, tally);
  uint64_t expected = 0;
  for (size_t q = 0; q < ref.hashes.size(); ++q) {
    for (int32_t b : ref.batch[q]) {
      if (!cfg.durable || b < cfg.resume_at) ++expected;
    }
  }
  for (size_t i = 0; i < rounds.size(); ++i) {
    CheckRound(cfg, ref, rounds[i], static_cast<int>(i), tally);
    tally.Gate(rounds[i].counts == rounds[0].counts,
               StrFormat("round %zu exact counts repeat round 0", i));
  }

  std::vector<double> slide, emit, adhoc, ckpt, recovery, rate;
  std::vector<double> busy_per_row[2];
  uint64_t within = 0, emitted = 0;
  int untraced = 0;
  for (const Round& r : rounds) {
    if (r.warmup) continue;
    busy_per_row[r.traced ? 1 : 0].push_back(r.busy_us /
                                             static_cast<double>(r.rows));
    if (r.traced) continue;
    ++untraced;
    slide.insert(slide.end(), r.slide_us.begin(), r.slide_us.end());
    emit.insert(emit.end(), r.emit_us.begin(), r.emit_us.end());
    adhoc.insert(adhoc.end(), r.adhoc_us.begin(), r.adhoc_us.end());
    ckpt.insert(ckpt.end(), r.checkpoint_us.begin(), r.checkpoint_us.end());
    if (cfg.durable) recovery.push_back(r.recovery_us);
    rate.push_back(static_cast<double>(r.rows) / (r.busy_us / 1e6));
    for (double e : r.emit_us) within += e <= kEmitLimitMs * 1000 ? 1 : 0;
    emitted += expected;
  }

  if (!opt.trace) {
    out.Add("setup_s", "s", Median(setup_us) / 1e6);
    out.Add("rows_per_s", "rows/s", Median(rate));
    out.Add("slide_p50_us", "us", Quantile(slide, 0.50));
    out.Add("slide_p99_us", "us", Quantile(slide, 0.99));
    out.Add("emit_p50_ms", "ms", Quantile(emit, 0.50) / 1000);
    out.Add("emit_p99_ms", "ms", Quantile(emit, 0.99) / 1000);
    out.Add("emit_in_limit_ratio", "ratio",
            emitted == 0 ? 0
                         : static_cast<double>(within) /
                               static_cast<double>(emitted));
    out.Add("adhoc_p50_ms", "ms", Quantile(adhoc, 0.50) / 1000);
    out.Add("adhoc_p95_ms", "ms", Quantile(adhoc, 0.95) / 1000);
    out.Add("peak_rss_mb", "MB", peak_rss);
  } else {
    // Per-layer figures from the traced rounds.
    LayerInputs li;
    std::vector<SpanEvent> events = spans.Take();
    for (const Round& r : rounds) {
      if (!r.traced) continue;
      const LayerInputs& rl = r.layers;
      li.factory = rl.factory;
      li.sched = rl.sched;
      li.sharing = rl.sharing;
      li.basket = rl.basket;
      li.wal_records = rl.wal_records;
      li.wal_bytes = rl.wal_bytes;
      li.wal_syncs = rl.wal_syncs;
      li.wal_truncations = rl.wal_truncations;
      li.snapshot_bytes = rl.snapshot_bytes;
      li.replayed_records = rl.replayed_records;
      li.engine_latency = rl.engine_latency;
      li.deliveries = rl.deliveries;
      li.recovery_us = r.recovery_us;
      li.span_rows += static_cast<double>(r.rows);
      li.span_wal_records += static_cast<double>(rl.wal_records);
      li.submit_us.insert(li.submit_us.end(), r.submit_us.begin(),
                          r.submit_us.end());
      li.push_us.insert(li.push_us.end(), r.push_us.begin(), r.push_us.end());
      li.pump_us.insert(li.pump_us.end(), r.pump_us.begin(), r.pump_us.end());
      li.checkpoint_us.insert(li.checkpoint_us.end(), r.checkpoint_us.begin(),
                              r.checkpoint_us.end());
      li.sink_us.insert(li.sink_us.end(), r.sink_us.begin(), r.sink_us.end());
    }
    if (cfg.durable) {
      li.logged_input_bytes = static_cast<double>(in.bytes) *
                              cfg.resume_at / static_cast<double>(cfg.batches);
      std::vector<std::vector<BatPtr>> logged(in.pkts.begin(),
                                              in.pkts.begin() + cfg.resume_at);
      li.wal = ReplayWal(logged, FreshDir(opt.work_dir, "replay"));
    }
    li.spans = std::move(events);
    li.overhead_pct =
        (Median(busy_per_row[1]) / Median(busy_per_row[0]) - 1) * 100;
    AddLayerMetrics(li, &out);
  }

  // Figures the human summary shows beside the metrics.
  out.Note("rounds_untraced", "count", untraced);
  out.Note("input_rows_per_round", "rows", static_cast<double>(in.rows));
  out.Note("slide_samples", "count", static_cast<double>(slide.size()));
  out.Note("emit_samples", "count", static_cast<double>(emit.size()));
  out.Note("adhoc_samples", "count", static_cast<double>(adhoc.size()));
  if (cfg.durable) {
    out.Note("checkpoint_p50_ms", "ms", Quantile(ckpt, 0.50) / 1000);
    out.Note("checkpoint_samples", "count", static_cast<double>(ckpt.size()));
    out.Note("recovery_s", "s", Median(recovery) / 1e6);
  }
  out.Note("engine_latency_p50_ms", "ms",
           static_cast<double>(
               rounds.back().layers.engine_latency.Percentile(0.5)) /
               1000);
  out.Note("engine_latency_p99_ms", "ms",
           static_cast<double>(
               rounds.back().layers.engine_latency.Percentile(0.99)) /
               1000);
  out.counts = rounds[0].counts;
  uint64_t digest = 0;
  for (const std::vector<uint64_t>& q : rounds[0].hashes) {
    for (uint64_t h : q) digest = FoldDigest(digest, h);
  }
  out.digest = digest;
  return out;
}

int Scaled(int n, double scale, int min) {
  return std::max(min, static_cast<int>(n * scale));
}

}  // namespace

RunResult RunSharedWindows(const Options& opt, Tally& tally) {
  ClosedLoopConfig cfg;
  cfg.batches = Scaled(600, opt.scale, 40);
  cfg.ack_every = 4;
  cfg.queries = SharedWindowQueries(250);
  return RunClosedLoop(cfg, opt, tally);
}

RunResult RunIngestDurable(const Options& opt, Tally& tally) {
  ClosedLoopConfig cfg;
  cfg.durable = true;
  cfg.batches = Scaled(1200, opt.scale, 60);
  cfg.resume_at = cfg.batches * 9 / 10;
  cfg.checkpoint_every = 50;
  cfg.queries = DurableQueries();
  return RunClosedLoop(cfg, opt, tally);
}

}  // namespace dc::perfbench
