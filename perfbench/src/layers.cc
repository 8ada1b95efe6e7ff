#include "layers.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "storage/wal.h"
#include "util/string_util.h"

namespace dc::perfbench {

WalReplay ReplayWal(const std::vector<std::vector<BatPtr>>& batches,
                    const std::string& dir) {
  WalReplay r;
  if (batches.empty()) return r;
  const std::string path = dir + "/replay.wal";
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  double enc = 0, crc = 0, wr = 0;
  uint64_t seq = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    const uint64_t rows = batches[i][0]->size();
    const double t0 = NowUs();
    const std::string payload = storage::EncodeBatch(i, seq, rows, batches[i]);
    const double t1 = NowUs();
    const uint32_t c = storage::Crc32(payload.data(), payload.size());
    const double t2 = NowUs();
    seq += rows;
    enc += t1 - t0;
    crc += t2 - t1;
    if (fd >= 0) {
      const uint32_t header[2] = {static_cast<uint32_t>(payload.size()), c};
      const bool ok = ::write(fd, header, sizeof header) ==
                      static_cast<ssize_t>(sizeof header);
      if (ok) ::write(fd, payload.data(), payload.size());
      wr += NowUs() - t2;
    }
  }
  if (fd >= 0) ::close(fd);
  ::unlink(path.c_str());
  const double n = static_cast<double>(batches.size());
  r.encode_us_per_record = enc / n;
  r.crc_us_per_record = crc / n;
  r.write_us_per_record = wr / n;
  return r;
}

void ReadStorageCounters(Engine& engine, LayerInputs* in) {
  auto& m = engine.metrics();
  in->wal_records = m.GetCounter("wal.records")->Value();
  in->wal_bytes = m.GetCounter("wal.bytes")->Value();
  in->wal_syncs = m.GetCounter("wal.syncs")->Value();
  in->wal_truncations = m.GetCounter("wal.truncations")->Value();
  in->snapshot_bytes = m.GetCounter("snapshot.bytes")->Value();
}

void AddLayerMetrics(const LayerInputs& in, RunResult* out) {
  auto add = [out](const char* name, const char* unit, double v) {
    out->Add(name, unit, v);
  };
  // sql + plan
  add("plan.submit_us", "us", Median(in.submit_us));
  // core.basket
  add("engine.push_us", "us", Median(in.push_us));
  add("basket.append_us", "us", MedianDurUs(in.spans, SpanKind::kAppend));
  add("basket.stall_us", "us", static_cast<double>(in.basket.stall_micros));
  add("basket.resident_hwm_rows", "rows",
      static_cast<double>(in.basket.resident_hwm_rows));
  // storage.wal
  add("wal.encode_us_per_record", "us", in.wal.encode_us_per_record);
  add("wal.crc_us_per_record", "us", in.wal.crc_us_per_record);
  add("wal.write_us_per_record", "us", in.wal.write_us_per_record);
  add("wal.bytes_per_input_byte", "ratio",
      in.logged_input_bytes > 0
          ? static_cast<double>(in.wal_bytes) / in.logged_input_bytes
          : 0);
  add("wal.records", "count", static_cast<double>(in.wal_records));
  add("wal.syncs", "count", static_cast<double>(in.wal_syncs));
  add("wal.truncations", "count", static_cast<double>(in.wal_truncations));
  // storage.snapshot
  add("checkpoint.us", "us", Median(in.checkpoint_us));
  add("snapshot.bytes", "bytes", static_cast<double>(in.snapshot_bytes));
  add("recovery.us", "us", in.recovery_us);
  add("recovery.replayed_records", "count",
      static_cast<double>(in.replayed_records));
  // core.factory + exec + bat, core.sharing
  const double emissions = static_cast<double>(in.factory.emissions);
  add("engine.pump_us", "us", Median(in.pump_us));
  add("factory.exec_us", "us",
      static_cast<double>(in.factory.total_exec_micros));
  add("factory.exec_us_per_emission", "us",
      emissions > 0
          ? static_cast<double>(in.factory.total_exec_micros) / emissions
          : 0);
  add("factory.fragments", "count",
      static_cast<double>(in.factory.fragments_computed));
  add("factory.tuples_in", "count", static_cast<double>(in.factory.tuples_in));
  add("factory.cached_bytes", "bytes",
      static_cast<double>(in.factory.cached_bytes));
  add("sharing.hits", "count", static_cast<double>(in.sharing.sharing_hits));
  // core.scheduler
  add("sched.fires", "count", static_cast<double>(in.sched.fires));
  add("sched.emissions_per_fire", "ratio",
      in.sched.fires > 0 ? emissions / static_cast<double>(in.sched.fires)
                         : 0);
  add("sched.spurious_pops", "count",
      static_cast<double>(in.sched.spurious_pops));
  add("sched.steals", "count", static_cast<double>(in.sched.steals));
  add("sched.queue_wait_us", "us", QueueWaitMedianUs(in.spans));
  // core.emitter
  add("emitter.sink_us", "us", Median(in.sink_us));
  add("emitter.wait_us", "us", EmitterWaitMedianUs(in.spans));
  add("emitter.deliveries", "count", static_cast<double>(in.deliveries));
  // The engine's own ingest->delivery histogram, and the generator.
  add("engine.latency_p50_us", "us",
      static_cast<double>(in.engine_latency.Percentile(0.50)));
  add("engine.latency_p99_us", "us",
      static_cast<double>(in.engine_latency.Percentile(0.99)));
  add("gen.lag_p99_ms", "ms", in.gen_lag_p99_ms);
  // Self time per layer, per 1000 input rows.
  LayerTimes self = SelfTimes(in.spans);
  AttributeWal(in.span_wal_records * (in.wal.encode_us_per_record +
                                      in.wal.crc_us_per_record +
                                      in.wal.write_us_per_record),
               &self);
  const double krows = std::max(in.span_rows / 1000.0, 1e-9);
  for (int l = 0; l < kNumLayers; ++l) {
    out->Add(StrFormat("self.%s_us_per_krow", LayerName(l)), "us/krow",
             self[l] / krows);
  }
  add("trace.overhead_pct", "%", in.overhead_pct);
}

}  // namespace dc::perfbench
