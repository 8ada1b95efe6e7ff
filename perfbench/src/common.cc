#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "monitor/trace.h"
#include "util/string_util.h"
#include "workload/generators.h"

namespace dc::perfbench {

// --- Tally / result line -----------------------------------------------------

bool Tally::Op(const Status& s, const char* what) {
  ++attempted_;
  if (s.ok()) return true;
  ++failed_;
  fprintf(stderr, "perfbench: %s failed: %s\n", what, s.ToString().c_str());
  return false;
}

bool Tally::Gate(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  fprintf(stderr, "perfbench: gate failed: %s\n", what.c_str());
  return false;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return StrFormat("%.17g", v);
}

std::string ResultLine(const std::vector<Metric>& metrics, bool correct,
                       uint64_t attempted, uint64_t failed) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(),
                     JsonNumber(metrics[i].value).c_str(),
                     metrics[i].unit.c_str());
  }
  return out + "}}";
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  printf("%s\n", title);
  for (const Metric& m : ms) {
    printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Watchdog {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  RunResult partial;
  Tally* tally = nullptr;
  std::thread thread;
};

Watchdog& TheWatchdog() {
  static Watchdog* w = new Watchdog();
  return *w;
}

}  // namespace

void PrintResult(const RunResult& r, const Tally& tally) {
  PrintTable("metrics:", r.metrics);
  if (!r.report.empty()) PrintTable("workload figures:", r.report);
  std::string counts = "{";
  for (size_t i = 0; i < r.counts.size(); ++i) {
    counts += StrFormat("%s\"%s\": %" PRIu64, i == 0 ? "" : ", ",
                        r.counts[i].first.c_str(), r.counts[i].second);
  }
  printf("COUNTS %s}\n", counts.c_str());
  printf("DIGEST %016" PRIx64 "\n", r.digest);
  printf("failed_ratio %.6f (%" PRIu64 " of %" PRIu64 ")\n",
         tally.attempted() == 0
             ? 1.0
             : static_cast<double>(tally.failed()) /
                   static_cast<double>(tally.attempted()),
         tally.failed(), tally.attempted());
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  printf("%s\n", ResultLine(r.metrics, correct, std::max<uint64_t>(
                                                    tally.attempted(), 1),
                            tally.failed())
                     .c_str());
  fflush(stdout);
}

void StartWatchdog(double deadline_seconds, Tally* tally) {
  Watchdog& w = TheWatchdog();
  w.tally = tally;
  w.thread = std::thread([deadline_seconds] {
    Watchdog& wd = TheWatchdog();
    std::unique_lock<std::mutex> lock(wd.mu);
    const bool stopped = wd.cv.wait_for(
        lock, std::chrono::duration<double>(deadline_seconds),
        [&] { return wd.stop; });
    if (stopped) return;
    fprintf(stderr,
            "perfbench: run exceeded its %.0f s deadline; reporting it as "
            "failed with partial metrics\n",
            deadline_seconds);
    printf("%s\n", ResultLine(wd.partial.metrics, false,
                              wd.tally->attempted() + 1,
                              wd.tally->failed() + 1)
                       .c_str());
    fflush(stdout);
    fflush(stderr);
    // Engine threads may be blocked for good (that is what a stall is);
    // they cannot be joined, so end the process here.
    _exit(0);
  });
}

void PublishPartial(const RunResult& partial) {
  Watchdog& w = TheWatchdog();
  std::lock_guard<std::mutex> lock(w.mu);
  w.partial = partial;
}

void StopWatchdog() {
  Watchdog& w = TheWatchdog();
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.stop = true;
  }
  w.cv.notify_all();
  if (w.thread.joinable()) w.thread.join();
}

// --- Statistics -------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Emission digests --------------------------------------------------------

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

uint64_t EmissionHash(const ColumnSet& emission) {
  const uint64_t rows = emission.NumRows();
  uint64_t acc = Mix64(rows + 0x9e3779b97f4a7c15ull);
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t h = kFnvBasis;
    for (const BatPtr& col : emission.cols) {
      if (col->IsNull(r)) {
        h = FnvBytes(h, "N", 1);
        continue;
      }
      switch (col->type()) {
        case TypeId::kF64: {
          char buf[32];
          const int n = snprintf(buf, sizeof buf, "%.9g", col->F64Data()[r]);
          h = FnvBytes(h, buf, static_cast<size_t>(n));
          break;
        }
        case TypeId::kStr: {
          const std::string_view s = col->StrAt(r);
          h = FnvBytes(h, s.data(), s.size());
          break;
        }
        case TypeId::kBool: {
          const uint8_t b = col->BoolData()[r];
          h = FnvBytes(h, &b, 1);
          break;
        }
        default: {
          const int64_t v = col->I64Data()[r];
          h = FnvBytes(h, &v, sizeof v);
          break;
        }
      }
      h = FnvBytes(h, "|", 1);
    }
    acc += Mix64(h);  // commutative: row order does not matter
  }
  return acc == 0 ? 1 : acc;
}

uint64_t FoldDigest(uint64_t digest, uint64_t emission_hash) {
  return Mix64(digest ^ emission_hash) + 0x632be59bd9b4e019ull;
}

Emitter::Sink MakeSink(const QueryLogPtr& log) {
  return [log](const ColumnSet& emission) {
    trace::Span span("bench.sink", "bench", log->fid);
    const double start = NowUs();
    const int32_t batch = g_current_batch.load(std::memory_order_relaxed);
    const uint64_t h = EmissionHash(emission);
    std::lock_guard<std::mutex> lock(log->mu);
    log->hashes.push_back(h);
    log->at.push_back(start);
    log->batch.push_back(batch);
    log->sink_us.push_back(NowUs() - start);
  };
}

// --- Inputs ------------------------------------------------------------------

namespace {

uint64_t BatchBytes(const std::vector<BatPtr>& cols) {
  uint64_t b = 0;
  for (const BatPtr& c : cols) b += c->size() * sizeof(int64_t);
  return b;
}

}  // namespace

Inputs MakeInputs(uint64_t seed, int batches, int batch_rows, Micros ts_step,
                  int ack_every) {
  Inputs in;
  workload::PacketConfig pc;
  pc.seed = seed;
  pc.ts_step = ts_step;
  workload::PacketConfig ac;
  ac.seed = seed ^ 0x5bd1e995ull;
  ac.ts_step = ts_step * std::max(ack_every, 1);
  const int ack_rows = ack_every > 0 ? batch_rows / ack_every : 0;
  for (int k = 0; k < batches; ++k) {
    const uint64_t off = static_cast<uint64_t>(k) * batch_rows;
    in.pkts.push_back(workload::PacketBatch(pc, off, batch_rows));
    in.rows += batch_rows;
    in.bytes += BatchBytes(in.pkts.back());
    in.last_ts.push_back(in.pkts.back()[0]->I64Data()[batch_rows - 1]);
    if (ack_rows > 0) {
      in.acks.push_back(workload::PacketBatch(
          ac, static_cast<uint64_t>(k) * ack_rows, ack_rows));
      in.rows += ack_rows;
      in.bytes += BatchBytes(in.acks.back());
    }
  }
  return in;
}

// --- Queries -----------------------------------------------------------------

std::vector<std::string> Ddl(bool with_acks) {
  std::vector<std::string> ddl = {
      workload::PacketDdl("pkts"),
      "CREATE TABLE hosts (hid int, zone int)",
  };
  if (with_acks) {
    ddl.push_back(
        "CREATE STREAM acks (ats timestamp, asrc int, adst int, aport int, "
        "abytes int)");
  }
  // Two INSERT statements of kHosts/2 rows each.
  for (int part = 0; part < 2; ++part) {
    std::string ins = "INSERT INTO hosts VALUES ";
    for (int h = part * kHosts / 2; h < (part + 1) * kHosts / 2; ++h) {
      ins += StrFormat("%s(%d, %d)", h == part * kHosts / 2 ? "" : ", ", h,
                       h % kZones);
    }
    ddl.push_back(ins);
  }
  return ddl;
}

namespace {

std::string Win(int size_ms, int slide_ms) {
  return StrFormat("[RANGE %d MILLISECONDS SLIDE %d MILLISECONDS]", size_ms,
                   slide_ms);
}

std::string PortAgg(int size, int slide, int having) {
  return StrFormat(
      "SELECT port, count(*), sum(bytes) FROM pkts %s GROUP BY port "
      "HAVING count(*) > %d ORDER BY port",
      Win(size, slide).c_str(), having);
}

std::string PortAggWhere(int u, int min_bytes, int having) {
  return StrFormat(
      "SELECT port, count(*), sum(bytes) FROM pkts %s WHERE bytes > %d "
      "GROUP BY port HAVING count(*) > %d ORDER BY port",
      Win(4 * u, u).c_str(), min_bytes, having);
}

std::string Scalar(int size, int slide) {
  return StrFormat("SELECT count(*), sum(bytes), max(bytes) FROM pkts %s",
                   Win(size, slide).c_str());
}

std::string TopSrc(int u, int limit) {
  return StrFormat(
      "SELECT src, sum(bytes) FROM pkts %s GROUP BY src "
      "ORDER BY sum(bytes) DESC, src LIMIT %d",
      Win(4 * u, 2 * u).c_str(), limit);
}

std::string RowsAgg(int rows, int slide, int having) {
  return StrFormat(
      "SELECT port, count(*), avg(bytes) FROM pkts [ROWS %d SLIDE %d] "
      "GROUP BY port HAVING count(*) > %d ORDER BY port",
      rows, slide, having);
}

std::string DstOnPort(int u, int port) {
  return StrFormat(
      "SELECT dst, count(*) FROM pkts %s WHERE port = %d GROUP BY dst "
      "HAVING count(*) > 2 ORDER BY dst",
      Win(4 * u, u).c_str(), port);
}

std::string TableJoin(int u) {
  return StrFormat(
      "SELECT zone, count(*), sum(bytes) FROM pkts %s JOIN hosts "
      "ON dst = hid GROUP BY zone ORDER BY zone",
      Win(4 * u, u).c_str());
}

std::string StreamJoin(int u) {
  return StrFormat(
      "SELECT count(*), sum(bytes), sum(abytes) FROM pkts %s JOIN acks %s "
      "ON dst = asrc",
      Win(4 * u, 2 * u).c_str(), Win(4 * u, 2 * u).c_str());
}

void AddQ(std::vector<QuerySpec>* qs, const std::string& sql) {
  qs->push_back({StrFormat("q%02zu", qs->size()), sql});
}

}  // namespace

std::vector<QuerySpec> SharedWindowQueries(int u) {
  std::vector<QuerySpec> qs;
  // Tier-P family: one prefix, HAVING constants differ (one node).
  for (int k = 0; k < 8; ++k) AddQ(&qs, PortAgg(4 * u, u, k * 100));
  // Same prefix, coarser slides subsumed by the u grid.
  AddQ(&qs, PortAgg(8 * u, 2 * u, 0));
  AddQ(&qs, PortAgg(8 * u, 2 * u, 1000));
  AddQ(&qs, PortAgg(8 * u, 4 * u, 0));
  AddQ(&qs, PortAgg(8 * u, 4 * u, 2000));
  // WHERE constants differ: two prefixes, three HAVING tails each.
  for (int c : {300, 900}) {
    for (int k : {0, 50, 100}) AddQ(&qs, PortAggWhere(u, c, k));
  }
  // Scalar family over two grids (2u and u).
  AddQ(&qs, Scalar(4 * u, 2 * u));
  AddQ(&qs, Scalar(8 * u, 2 * u));
  AddQ(&qs, Scalar(16 * u, 4 * u));
  AddQ(&qs, Scalar(4 * u, u));
  // Top-k sources (wide GROUP BY), ROWS windows, a point predicate.
  for (int n : {5, 10, 20}) AddQ(&qs, TopSrc(u, n));
  AddQ(&qs, RowsAgg(10000, 2500, 0));
  AddQ(&qs, RowsAgg(10000, 2500, 100));
  AddQ(&qs, DstOnPort(u, 80));
  AddQ(&qs, DstOnPort(u, 443));
  // Tier-F duplicate of the first query.
  AddQ(&qs, PortAgg(4 * u, u, 0));
  // Stream x table and stream x stream windowed joins.
  AddQ(&qs, TableJoin(u));
  AddQ(&qs, StreamJoin(u));
  return qs;
}

std::vector<QuerySpec> OpenLoopQueries(int u) {
  std::vector<QuerySpec> qs;
  for (int k = 0; k < 4; ++k) AddQ(&qs, PortAgg(4 * u, u, k * 100));
  AddQ(&qs, PortAgg(8 * u, 2 * u, 0));
  AddQ(&qs, PortAgg(8 * u, 2 * u, 1000));
  AddQ(&qs, PortAggWhere(u, 300, 0));
  AddQ(&qs, PortAggWhere(u, 900, 50));
  AddQ(&qs, Scalar(4 * u, 2 * u));
  AddQ(&qs, Scalar(8 * u, 2 * u));
  AddQ(&qs, TopSrc(u, 5));
  AddQ(&qs, TopSrc(u, 10));
  AddQ(&qs, RowsAgg(4000, 1000, 0));
  AddQ(&qs, DstOnPort(u, 80));
  AddQ(&qs, PortAgg(4 * u, u, 0));
  AddQ(&qs, TableJoin(u));
  return qs;
}

std::vector<QuerySpec> DurableQueries() {
  return {
      {"agg",
       "SELECT port, count(*), sum(bytes) FROM pkts "
       "[RANGE 1 SECONDS SLIDE 250 MILLISECONDS] GROUP BY port"},
      {"scalar",
       "SELECT count(*), avg(bytes) FROM pkts "
       "[RANGE 2 SECONDS SLIDE 500 MILLISECONDS]"},
  };
}

ZoneTotals AdhocExpected(const Inputs& in, uint64_t first, uint64_t end) {
  ZoneTotals z;
  const uint64_t batch_rows = in.pkts.empty() ? 1 : in.pkts[0][0]->size();
  for (uint64_t r = first; r < end && r / batch_rows < in.pkts.size(); ++r) {
    const std::vector<BatPtr>& b = in.pkts[r / batch_rows];
    const uint64_t i = r % batch_rows;
    const int64_t dst = b[2]->I64Data()[i];
    if (dst < 0 || dst >= kHosts) continue;
    z.count[dst % kZones] += 1;
    z.bytes[dst % kZones] += b[4]->I64Data()[i];
  }
  return z;
}

bool AdhocResultOk(const ColumnSet& result, const ZoneTotals* want,
                   uint64_t max_rows) {
  if (result.NumCols() != 3) return false;
  ZoneTotals got;
  uint64_t rows = 0;
  for (uint64_t r = 0; r < result.NumRows(); ++r) {
    const int64_t zone = result.cols[0]->I64Data()[r];
    const int64_t count = result.cols[1]->I64Data()[r];
    if (zone < 0 || zone >= kZones || count <= 0) return false;
    got.count[zone] = count;
    got.bytes[zone] = result.cols[2]->I64Data()[r];
    rows += static_cast<uint64_t>(count);
  }
  if (want == nullptr) return rows <= max_rows;
  return std::equal(got.count, got.count + kZones, want->count) &&
         std::equal(got.bytes, got.bytes + kZones, want->bytes);
}

std::vector<QueryLogPtr> RunSetup(Engine& engine, bool with_acks,
                                  const std::vector<QuerySpec>& queries,
                                  Tally& tally,
                                  std::vector<double>* submit_us) {
  for (const std::string& stmt : Ddl(with_acks)) {
    tally.Op(engine.Execute(stmt), "Execute");
  }
  std::vector<QueryLogPtr> logs;
  for (const QuerySpec& q : queries) {
    auto log = std::make_shared<QueryLog>();
    log->name = q.name;
    Engine::ContinuousOptions co;
    co.mode = ExecMode::kIncremental;
    co.name = q.name;
    co.sink = MakeSink(log);
    const double t0 = NowUs();
    Result<int> qid = [&] {
      trace::Span span("bench.submit", "bench");
      return engine.SubmitContinuous(q.sql, co);
    }();
    if (submit_us != nullptr) {
      submit_us->push_back(NowUs() - t0);
    }
    if (tally.Op(qid.status(), "SubmitContinuous")) {
      log->qid = *qid;
      FactoryPtr f = engine.GetFactory(*qid);
      log->fid = f ? f->id() : -1;
    } else {
      fprintf(stderr, "  sql: %s\n", q.sql.c_str());
    }
    logs.push_back(std::move(log));
  }
  return logs;
}

double TimeSetup(EngineOptions eo, bool durable, const Options& opt,
                 bool with_acks, const std::vector<QuerySpec>& queries,
                 Tally& tally) {
  if (durable) {
    eo.durability.dir = FreshDir(opt.work_dir, "setup");
    eo.durability.fsync = kFsync;
  }
  double us = 0;
  {
    const double s0 = NowUs();
    Engine engine(eo);
    RunSetup(engine, with_acks, queries, tally, nullptr);
    us = NowUs() - s0;
  }
  if (durable) {
    std::error_code ec;
    std::filesystem::remove_all(eo.durability.dir, ec);
  }
  return us;
}

Reference RunReference(const std::vector<QuerySpec>& queries, bool with_acks,
                       const Inputs& in, ExecMode mode, bool sharing,
                       Tally& tally) {
  EngineOptions eo;
  eo.scheduler_workers = 0;
  eo.enable_sharing = sharing;
  Engine engine(eo);
  for (const std::string& stmt : Ddl(with_acks)) {
    tally.Op(engine.Execute(stmt), "reference Execute");
  }
  std::vector<QueryLogPtr> logs;
  for (const QuerySpec& q : queries) {
    auto log = std::make_shared<QueryLog>();
    Engine::ContinuousOptions co;
    co.mode = mode;
    co.name = q.name;
    co.sink = MakeSink(log);
    tally.Op(engine.SubmitContinuous(q.sql, co).status(),
             "reference SubmitContinuous");
    logs.push_back(std::move(log));
  }
  for (size_t i = 0; i < in.pkts.size(); ++i) {
    g_current_batch = static_cast<int32_t>(i);
    tally.Op(engine.PushColumns("pkts", in.pkts[i]), "reference PushColumns");
    if (with_acks) {
      tally.Op(engine.PushColumns("acks", in.acks[i]), "reference PushColumns");
    }
    engine.Pump();
  }
  g_current_batch = static_cast<int32_t>(in.pkts.size());
  tally.Op(engine.SealStream("pkts"), "reference SealStream");
  if (with_acks) tally.Op(engine.SealStream("acks"), "reference SealStream");
  engine.Pump();
  Reference ref;
  for (const QueryLogPtr& l : logs) {
    ref.hashes.push_back(l->hashes);
    ref.batch.push_back(l->batch);
  }
  return ref;
}

uint64_t TotalEmissions(const std::vector<QueryLogPtr>& logs) {
  uint64_t n = 0;
  for (const QueryLogPtr& l : logs) {
    std::lock_guard<std::mutex> lock(l->mu);
    n += l->hashes.size();
  }
  return n;
}

FactoryStats UniqueFactoryStats(Engine& engine,
                                const std::vector<QueryLogPtr>& logs) {
  FactoryStats sum;
  std::set<const Factory*> seen;
  for (const QueryLogPtr& l : logs) {
    FactoryPtr f = engine.GetFactory(l->qid);
    if (!f || !seen.insert(f.get()).second) continue;
    const FactoryStats s = f->Stats();
    sum.invocations += s.invocations;
    sum.emissions += s.emissions;
    sum.tuples_in += s.tuples_in;
    sum.tuples_out += s.tuples_out;
    sum.total_exec_micros += s.total_exec_micros;
    sum.cached_bytes += s.cached_bytes;
    sum.fragments_computed += s.fragments_computed;
    sum.sharing_hits += s.sharing_hits;
  }
  return sum;
}

Histogram EngineLatency(Engine& engine, const std::vector<QueryLogPtr>& logs) {
  Histogram pooled;
  for (const QueryLogPtr& l : logs) {
    pooled.Merge(engine.metrics()
                     .GetHistogram("query." + l->name + ".latency_us")
                     ->Snapshot());
  }
  return pooled;
}

std::string FreshDir(const std::string& work_dir, const std::string& leaf) {
  const std::filesystem::path p = std::filesystem::path(work_dir) / leaf;
  std::error_code ec;
  std::filesystem::remove_all(p, ec);
  std::filesystem::create_directories(p, ec);
  return p.string();
}

}  // namespace dc::perfbench
