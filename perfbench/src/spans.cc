#include "spans.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common.h"
#include "monitor/trace.h"

namespace dc::perfbench {

const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "sql_plan",        "core_basket",  "storage_wal",
      "storage_snapshot", "core_scheduler", "core_factory_exec",
      "core_emitter",    "oneshot_query", "client_sink",
      "basket_wait"};
  return kNames[layer];
}

namespace {

SpanKind KindOf(const char* name, size_t n) {
  static const std::pair<const char*, SpanKind> kKinds[] = {
      {"bench.submit", SpanKind::kSubmit},
      {"bench.push", SpanKind::kPush},
      {"bench.pump", SpanKind::kPump},
      {"bench.checkpoint", SpanKind::kCheckpoint},
      {"bench.recover", SpanKind::kRecover},
      {"bench.query", SpanKind::kQuery},
      {"bench.sink", SpanKind::kSink},
      {"bench.seal", SpanKind::kSeal},
      {"basket.append", SpanKind::kAppend},
      {"basket.stall", SpanKind::kStall},
      {"factory.fire", SpanKind::kFire},
      {"emitter.drain", SpanKind::kDrain},
  };
  for (const auto& [k, kind] : kKinds) {
    if (std::strlen(k) == n && std::strncmp(k, name, n) == 0) return kind;
  }
  return SpanKind::kOther;
}

int64_t FieldAfter(const char* obj, const char* key) {
  const char* p = std::strstr(obj, key);
  return p == nullptr ? 0 : std::strtoll(p + std::strlen(key), nullptr, 10);
}

/// Parses trace::DumpJson's fixed event layout:
/// {"name":"..","cat":"..","ph":"X","ts":N,"dur":N,"pid":1,"tid":N,
///  "args":{"v":N}}
void ParseDump(const std::string& json, std::vector<SpanEvent>* out) {
  const char* p = json.c_str();
  static const char kName[] = "{\"name\":\"";
  while ((p = std::strstr(p, kName)) != nullptr) {
    const char* name = p + sizeof(kName) - 1;
    const char* name_end = std::strchr(name, '"');
    if (name_end == nullptr) break;
    SpanEvent ev;
    ev.kind = KindOf(name, static_cast<size_t>(name_end - name));
    ev.ts = FieldAfter(name_end, "\"ts\":");
    ev.dur = FieldAfter(name_end, "\"dur\":");
    ev.tid = static_cast<int32_t>(FieldAfter(name_end, "\"tid\":"));
    ev.arg = FieldAfter(name_end, "\"v\":");
    if (ev.kind != SpanKind::kOther) out->push_back(ev);
    p = name_end;
  }
}

int LayerOf(SpanKind k) {
  switch (k) {
    case SpanKind::kSubmit: return kSqlPlan;
    case SpanKind::kPush:
    case SpanKind::kSeal:
    case SpanKind::kAppend: return kCoreBasket;
    case SpanKind::kCheckpoint:
    case SpanKind::kRecover: return kStorageSnapshot;
    case SpanKind::kPump: return kCoreScheduler;
    case SpanKind::kFire: return kCoreFactoryExec;
    case SpanKind::kDrain: return kCoreEmitter;
    case SpanKind::kQuery: return kOneshotQuery;
    case SpanKind::kSink: return kClientSink;
    case SpanKind::kStall: return kBasketWait;
    case SpanKind::kOther: break;
  }
  return -1;
}

}  // namespace

void SpanLog::Harvest() {
  std::vector<SpanEvent> parsed;
  ParseDump(trace::DumpJson(), &parsed);
  trace::ClearForTest();
  std::lock_guard<std::mutex> lock(mu_);
  events_.insert(events_.end(), parsed.begin(), parsed.end());
}

void SpanLog::MaybeHarvest() {
  // Each thread's ring holds 8192 events; the count is a total over all
  // threads, so no single ring can be near wrapping below this.
  if (trace::BufferedEventsForTest() > 4000) Harvest();
}

std::vector<SpanEvent> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(events_);
}

LayerTimes SelfTimes(const std::vector<SpanEvent>& events) {
  LayerTimes t{};
  std::map<int32_t, std::vector<const SpanEvent*>> by_tid;
  for (const SpanEvent& e : events) by_tid[e.tid].push_back(&e);
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
              });
    struct Open {
      const SpanEvent* ev;
      Micros child = 0;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      const int layer = LayerOf(o.ev->kind);
      if (layer >= 0) {
        t[layer] +=
            static_cast<double>(std::max<Micros>(o.ev->dur - o.child, 0));
      }
    };
    for (const SpanEvent* e : evs) {
      while (!stack.empty() && stack.back().ev->end() <= e->ts) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        stack.back().child +=
            std::min(e->end(), stack.back().ev->end()) - e->ts;
      }
      stack.push_back({e});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return t;
}

void AttributeWal(double wal_us, LayerTimes* t) {
  const double moved = std::clamp(wal_us, 0.0, (*t)[kCoreBasket]);
  (*t)[kCoreBasket] -= moved;
  (*t)[kStorageWal] += moved;
}

double QueueWaitMedianUs(const std::vector<SpanEvent>& events) {
  std::vector<Micros> push_ends, fire_starts;
  for (const SpanEvent& e : events) {
    if (e.kind == SpanKind::kPush) push_ends.push_back(e.end());
    if (e.kind == SpanKind::kFire) fire_starts.push_back(e.ts);
  }
  std::sort(push_ends.begin(), push_ends.end());
  std::sort(fire_starts.begin(), fire_starts.end());
  std::vector<double> waits;
  for (size_t i = 0; i < push_ends.size(); ++i) {
    auto it = std::lower_bound(fire_starts.begin(), fire_starts.end(),
                               push_ends[i]);
    if (it == fire_starts.end()) break;
    if (i + 1 < push_ends.size() && *it >= push_ends[i + 1]) continue;
    waits.push_back(static_cast<double>(*it - push_ends[i]));
  }
  return Median(waits);
}

double EmitterWaitMedianUs(const std::vector<SpanEvent>& events) {
  std::map<int64_t, std::vector<Micros>> fire_ends;  // factory id -> ends
  for (const SpanEvent& e : events) {
    if (e.kind == SpanKind::kFire) fire_ends[e.arg].push_back(e.end());
  }
  for (auto& [fid, ends] : fire_ends) std::sort(ends.begin(), ends.end());
  std::vector<double> waits;
  for (const SpanEvent& e : events) {
    if (e.kind != SpanKind::kSink) continue;
    auto f = fire_ends.find(e.arg);
    if (f == fire_ends.end()) continue;
    auto it = std::upper_bound(f->second.begin(), f->second.end(), e.ts);
    if (it == f->second.begin()) continue;
    waits.push_back(static_cast<double>(e.ts - *(it - 1)));
  }
  return Median(waits);
}

double MedianDurUs(const std::vector<SpanEvent>& events, SpanKind kind) {
  std::vector<double> d;
  for (const SpanEvent& e : events) {
    if (e.kind == kind) d.push_back(static_cast<double>(e.dur));
  }
  return Median(d);
}

}  // namespace dc::perfbench
