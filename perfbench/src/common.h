// Shared pieces of the DataCell end-to-end benchmark: run options, the
// pass/fail tally, the result line, query logs fed by sinks, emission
// digests, the generated inputs and the standing-query sets.
//
// The benchmark drives the engine only through its public API (Engine,
// sinks, introspection, the public WAL codec); see perfbench/RATIONALE.md.

#ifndef DATACELL_PERFBENCH_COMMON_H_
#define DATACELL_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/clock.h"

namespace dc::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Input-size multiplier (the benchmark's own test runs at 0.05).
  double scale = 1.0;
  /// Scratch directory for WAL/snapshot files and span dumps; inside
  /// the checkout (perfbench/run.py passes .bench_build/perfbench/run).
  std::string work_dir;
};

/// Attempted/failed operations. Every engine call the benchmark makes
/// and every correctness gate counts as one attempt. Thread-safe.
class Tally {
 public:
  /// Counts one operation; logs and counts a failure when !s.ok().
  bool Op(const Status& s, const char* what);
  /// Counts one correctness gate.
  bool Gate(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Everything a run reports. `metrics` is what the last stdout line
/// carries; `report` adds workload-specific figures for the human
/// summary printed above it.
struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  /// Exact counts that must repeat run to run for one seed.
  std::vector<std::pair<std::string, uint64_t>> counts;
  uint64_t digest = 0;
  void Add(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  void Note(const std::string& name, const std::string& unit, double v) {
    report.push_back({name, unit, v});
  }
};

/// Prints the human summary, the COUNTS/DIGEST lines and the final JSON
/// result line, then flushes stdout.
void PrintResult(const RunResult& r, const Tally& tally);

/// Deadline watchdog: if the run is still going at `deadline`, prints a
/// failed result line carrying whatever `Publish` last stored and ends
/// the process (a stalled engine thread cannot be joined).
void StartWatchdog(double deadline_seconds, Tally* tally);
void PublishPartial(const RunResult& partial);
void StopWatchdog();

// --- Statistics -------------------------------------------------------------

/// Steady-clock time in µs with nanosecond resolution (the benchmark's
/// own timings; engine spans use the engine's whole-µs SteadyMicros).
inline double NowUs() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1000.0;
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; sorts a copy.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);
double PeakRssMb();

// --- Emission digests --------------------------------------------------------

/// Order-insensitive hash of one emission's rows (a multiset hash, so
/// unordered GROUP BY output compares equal across execution paths);
/// doubles are rounded to 9 significant digits. Zero-row emissions hash
/// to a fixed non-zero value.
uint64_t EmissionHash(const ColumnSet& emission);
/// Folds a sequence of emission hashes into one digest.
uint64_t FoldDigest(uint64_t digest, uint64_t emission_hash);

/// The client-side batch index sinks stamp into each delivery; the
/// closed loops and the synchronous references set it before each push.
inline std::atomic<int32_t> g_current_batch{0};

/// What one standing query delivered. Sinks append under `mu` (in the
/// threaded engine they run on emitter threads).
struct QueryLog {
  std::string name;
  int qid = -1;
  int fid = -1;  // factory id (factory.fire span argument)
  std::mutex mu;
  std::vector<uint64_t> hashes;
  std::vector<double> at;        // NowUs() at sink entry
  std::vector<int32_t> batch;    // g_current_batch at sink entry
  std::vector<double> sink_us;   // time spent inside the sink
};
using QueryLogPtr = std::shared_ptr<QueryLog>;

/// A sink that records into `log` under a "bench.sink" trace span.
Emitter::Sink MakeSink(const QueryLogPtr& log);

// --- Inputs ------------------------------------------------------------------

struct Inputs {
  std::vector<std::vector<BatPtr>> pkts;  // one entry per client batch
  std::vector<std::vector<BatPtr>> acks;  // empty when unused
  uint64_t rows = 0;                      // pkts + acks rows
  uint64_t bytes = 0;                     // raw column bytes of all batches
  /// Event time of the last row of pkts batch k (open loop: its due time).
  std::vector<Micros> last_ts;
};

/// `batches` workload::PacketBatch batches of `batch_rows` rows on
/// stream "pkts" (ts_step µs apart), plus, when `ack_every` > 0, a
/// second packet stream "acks" with one row per `ack_every` pkts rows
/// over the same event-time span. All derived from `seed`.
Inputs MakeInputs(uint64_t seed, int batches, int batch_rows, Micros ts_step,
                  int ack_every);

// --- Queries -----------------------------------------------------------------

struct QuerySpec {
  std::string name;
  std::string sql;
};

/// Stream/table DDL shared by every workload: pkts (and acks) packet
/// streams plus the `hosts` dimension table with `kHosts` rows.
inline constexpr int kHosts = 1000;
inline constexpr int kZones = 16;
std::vector<std::string> Ddl(bool with_acks);

/// The 32-query shared_windows mix; `slide_ms` is the finest slide.
std::vector<QuerySpec> SharedWindowQueries(int slide_ms);
/// The 16-query open-loop subset of the same templates.
std::vector<QuerySpec> OpenLoopQueries(int slide_ms);
/// The two light bench_wal queries of ingest_durable.
std::vector<QuerySpec> DurableQueries();

/// The ad-hoc client's one-time query: the live pkts basket joined with
/// the hosts table, per zone.
inline constexpr const char* kAdhocSql =
    "SELECT zone, count(*), sum(bytes) FROM pkts JOIN hosts ON dst = hid "
    "GROUP BY zone ORDER BY zone";
/// kAdhocSql's answer over pkts rows [first, end) of `in`.
struct ZoneTotals {
  int64_t count[kZones] = {};
  int64_t bytes[kZones] = {};
};
ZoneTotals AdhocExpected(const Inputs& in, uint64_t first, uint64_t end);
/// Checks a kAdhocSql result against `want` exactly, or, when `want` is
/// null (a threaded engine, where the basket moves during the query),
/// checks its shape: known zones, positive counts, at most `max_rows`.
bool AdhocResultOk(const ColumnSet& result, const ZoneTotals* want,
                   uint64_t max_rows);

/// Sets an engine up: DDL, then one SubmitContinuous per spec with a
/// recording sink; returns the logs in spec order. Times each submit
/// into `submit_us` when given.
std::vector<QueryLogPtr> RunSetup(Engine& engine, bool with_acks,
                                  const std::vector<QuerySpec>& queries,
                                  Tally& tally,
                                  std::vector<double>* submit_us);

/// Wall time of one setup (engine construction + DDL + submits) with
/// options `eo`; durable setups get a fresh directory under work_dir.
double TimeSetup(EngineOptions eo, bool durable, const Options& opt,
                 bool with_acks, const std::vector<QuerySpec>& queries,
                 Tally& tally);

/// A reference run on a synchronous engine without durability: per
/// query, the emission hashes of the whole input (seal included) and the
/// client batch index each emission was delivered in (the seal is batch
/// in.pkts.size()).
struct Reference {
  std::vector<std::vector<uint64_t>> hashes;
  std::vector<std::vector<int32_t>> batch;
};
Reference RunReference(const std::vector<QuerySpec>& queries, bool with_acks,
                       const Inputs& in, ExecMode mode, bool sharing,
                       Tally& tally);

/// Emissions delivered so far over all logs.
uint64_t TotalEmissions(const std::vector<QueryLogPtr>& logs);

/// Sum of FactoryStats over the distinct factories behind `logs`.
FactoryStats UniqueFactoryStats(Engine& engine,
                                const std::vector<QueryLogPtr>& logs);

/// Pooled engine-side `query.<name>.latency_us` histogram.
Histogram EngineLatency(Engine& engine, const std::vector<QueryLogPtr>& logs);

/// WAL fsync policy of the durable workloads. Appends go to the page
/// cache and checkpoints sync everything: the WAL's CPU cost and the
/// checkpoint stay in the figures, while the shared VM disk's fsync
/// latency, which varies with other tenants, stays out of every push.
inline constexpr storage::FsyncPolicy kFsync = storage::FsyncPolicy::kNever;

/// Delivery limit of emit_in_limit_ratio: the Linear Road response
/// budget the repository's latency guard already uses.
inline constexpr double kEmitLimitMs = 250;

/// Fresh, empty directory `<work_dir>/<leaf>`.
std::string FreshDir(const std::string& work_dir, const std::string& leaf);

/// Workload entry points.
RunResult RunSharedWindows(const Options& opt, Tally& tally);
RunResult RunIngestDurable(const Options& opt, Tally& tally);
RunResult RunOpenLoopMixed(const Options& opt, Tally& tally);

}  // namespace dc::perfbench

#endif  // DATACELL_PERFBENCH_COMMON_H_
