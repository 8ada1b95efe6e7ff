// Span collection for the traced run. The benchmark wraps every public
// engine call in a "bench.*" trace::Span; with EngineOptions::
// enable_tracing the engine adds its own basket.append / basket.stall /
// factory.fire / emitter.drain spans to the same per-thread rings. The
// rings are harvested (trace::DumpJson, then cleared) before they wrap,
// and the merged spans give each layer's self time: a span's duration
// minus the part its child spans on the same thread cover.

#ifndef DATACELL_PERFBENCH_SPANS_H_
#define DATACELL_PERFBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/clock.h"

namespace dc::perfbench {

enum class SpanKind : uint8_t {
  kSubmit,      // bench.submit      SubmitContinuous
  kPush,        // bench.push        PushColumns
  kPump,        // bench.pump        Pump
  kCheckpoint,  // bench.checkpoint  Checkpoint
  kRecover,     // bench.recover     Engine ctor over a populated dir
  kQuery,       // bench.query       one-time Query
  kSink,        // bench.sink        the benchmark's own sink
  kSeal,        // bench.seal        SealStream
  kAppend,      // basket.append     (engine)
  kStall,       // basket.stall      (engine)
  kFire,        // factory.fire      (engine)
  kDrain,       // emitter.drain     (engine)
  kOther,
};

struct SpanEvent {
  SpanKind kind = SpanKind::kOther;
  int32_t tid = 0;
  Micros ts = 0;
  Micros dur = 0;
  int64_t arg = 0;
  Micros end() const { return ts + dur; }
};

/// Layers self time is attributed to (the repository's modules).
enum Layer : int {
  kSqlPlan,          // bench.submit self
  kCoreBasket,       // bench.push, bench.seal, basket.append self
  kStorageWal,       // WAL share of basket.append (see AttributeWal)
  kStorageSnapshot,  // bench.checkpoint, bench.recover self
  kCoreScheduler,    // bench.pump self
  kCoreFactoryExec,  // factory.fire self (shared nodes run inside fires)
  kCoreEmitter,      // emitter.drain self
  kOneshotQuery,     // bench.query self (sql + plan + exec)
  kClientSink,       // bench.sink self (the benchmark's own work)
  kBasketWait,       // basket.stall (waiting, not work)
  kNumLayers,
};
const char* LayerName(int layer);

using LayerTimes = std::array<double, kNumLayers>;

/// Thread-safe accumulator of harvested spans.
class SpanLog {
 public:
  /// Moves every buffered span out of the trace rings into this log.
  void Harvest();
  /// Harvests when the rings hold enough events that one could wrap
  /// before the next check.
  void MaybeHarvest();
  std::vector<SpanEvent> Take();

 private:
  std::mutex mu_;
  std::vector<SpanEvent> events_;
};

/// Self time per layer (µs), summed over `events`.
LayerTimes SelfTimes(const std::vector<SpanEvent>& events);

/// Moves the estimated WAL cost out of kCoreBasket into kStorageWal
/// (capped at what kCoreBasket holds): the WAL append runs inside
/// basket.append through a basket hook and has no span of its own.
void AttributeWal(double wal_us, LayerTimes* t);

/// Median gap from each bench.push end to the next factory.fire start
/// on any thread (before the following push ends): scheduler queue wait.
double QueueWaitMedianUs(const std::vector<SpanEvent>& events);

/// Median gap from the end of the latest factory.fire of a query's
/// factory to each bench.sink call for that query: emitter wait.
double EmitterWaitMedianUs(const std::vector<SpanEvent>& events);

/// Median duration of the spans of `kind`.
double MedianDurUs(const std::vector<SpanEvent>& events, SpanKind kind);

}  // namespace dc::perfbench

#endif  // DATACELL_PERFBENCH_SPANS_H_
