// Per-layer metrics of the traced run: one struct of raw figures filled
// by each workload, one function that turns it into the named metrics
// BENCHMARK.json lists under "per_layer".

#ifndef DATACELL_PERFBENCH_LAYERS_H_
#define DATACELL_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "spans.h"

namespace dc::perfbench {

/// The public WAL codec replayed on a run's own batches: the cost of
/// framing them (storage::EncodeBatch, storage::Crc32) and of writing
/// them to a file in `dir` (no fsync, as with kFsync).
struct WalReplay {
  double encode_us_per_record = 0;
  double crc_us_per_record = 0;
  double write_us_per_record = 0;
};
WalReplay ReplayWal(const std::vector<std::vector<BatPtr>>& batches,
                    const std::string& dir);

struct LayerInputs {
  std::vector<double> submit_us;
  std::vector<double> push_us;
  std::vector<double> pump_us;
  std::vector<double> checkpoint_us;
  std::vector<double> sink_us;
  double recovery_us = 0;
  uint64_t replayed_records = 0;
  BasketStats basket;
  FactoryStats factory;
  SchedulerStats sched;
  SharingStats sharing;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_truncations = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t deliveries = 0;
  /// Raw bytes of the input batches the durable engine logged.
  double logged_input_bytes = 0;
  /// Input rows and WAL records the span set covers (they normalize
  /// self times and size the WAL share of basket.append).
  double span_rows = 0;
  double span_wal_records = 0;
  WalReplay wal;
  std::vector<SpanEvent> spans;
  Histogram engine_latency;
  double gen_lag_p99_ms = 0;
  /// (traced - untraced) / untraced of the workload's main timing, in %.
  double overhead_pct = 0;
};

void AddLayerMetrics(const LayerInputs& in, RunResult* out);

/// Copies the wal.* / snapshot.* counters out of an engine's registry.
void ReadStorageCounters(Engine& engine, LayerInputs* in);

}  // namespace dc::perfbench

#endif  // DATACELL_PERFBENCH_LAYERS_H_
