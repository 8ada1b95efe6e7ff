// E8 — columnar kernel microbenchmarks (paper §3, "A Column-oriented
// DBMS"): the bulk operators DataCell reuses. Validates that the substrate
// behaves like a column store: selection scans at memory speed, candidate
// lists keep downstream operators proportional to selectivity, hash
// join/group scale with input, not with window bookkeeping.

#include <benchmark/benchmark.h>

#include "bat/ops_aggregate.h"
#include "bat/ops_arith.h"
#include "bat/ops_group.h"
#include "bat/ops_join.h"
#include "bat/ops_select.h"
#include "bat/ops_sort.h"
#include "util/random.h"

namespace dc {
namespace {

BatPtr RandomI64(uint64_t n, int64_t lo, int64_t hi, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = rng.UniformInt(lo, hi);
  return Bat::MakeI64(std::move(v));
}

BatPtr RandomF64(uint64_t n, uint64_t seed = 2) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.UniformDouble(0, 1000);
  return Bat::MakeF64(std::move(v));
}

void BM_SelectCmp(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t sel_pct = state.range(0);
  auto col = RandomI64(n, 0, 99);
  const Value lit = Value::I64(sel_pct);
  for (auto _ : state) {
    auto cand = ops::SelectCmp(*col, CmpOp::kLt, lit);
    benchmark::DoNotOptimize(cand->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectCmp)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

void BM_SelectThenGather(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t sel_pct = state.range(0);
  auto key = RandomI64(n, 0, 99);
  auto payload = RandomF64(n);
  const Value lit = Value::I64(sel_pct);
  for (auto _ : state) {
    auto cand = ops::SelectCmp(*key, CmpOp::kLt, lit);
    auto out = payload->Gather(*cand);
    benchmark::DoNotOptimize(out->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SelectThenGather)->Arg(1)->Arg(10)->Arg(100);

void BM_MapArith(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto a = RandomF64(n, 3);
  auto b = RandomF64(n, 4);
  for (auto _ : state) {
    auto out = ops::MapArith(*a, ArithOp::kMul, *b);
    benchmark::DoNotOptimize((*out)->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MapArith);

void BM_HashJoin(benchmark::State& state) {
  const uint64_t n = state.range(0);
  auto left = RandomI64(n, 0, static_cast<int64_t>(n) - 1, 5);
  auto right = RandomI64(n / 4, 0, static_cast<int64_t>(n) - 1, 6);
  for (auto _ : state) {
    auto jr = ops::HashJoin(*left, *right);
    benchmark::DoNotOptimize(jr->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_HashJoin)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 20);

void BM_GroupBy(benchmark::State& state) {
  const uint64_t n = 1 << 19;
  const int64_t cardinality = state.range(0);
  auto keys = RandomI64(n, 0, cardinality - 1, 7);
  for (auto _ : state) {
    auto groups = ops::GroupBy({keys.get()});
    benchmark::DoNotOptimize(groups->num_groups);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GroupBy)->Arg(16)->Arg(1024)->Arg(65536);

void BM_ScalarAggregate(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto col = RandomF64(n, 8);
  for (auto _ : state) {
    ops::AggState st;
    st.AddColumn(*col, nullptr);
    benchmark::DoNotOptimize(st.dsum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_ScalarAggregate);

void BM_Sort(benchmark::State& state) {
  const uint64_t n = state.range(0);
  auto col = RandomI64(n, 0, 1 << 30, 9);
  for (auto _ : state) {
    auto order = ops::SortOrder({{col.get(), true}});
    benchmark::DoNotOptimize(order->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 17);

// Ablation for the compiler's predicate strategy: a
// conjunction evaluated as a candidate chain (select on the shrinking
// candidate list) vs the boolean-map fallback (materialize full bool
// columns, AND them, then filter). The chain wins whenever the first
// conjunct is selective, which is why the optimizer orders conjuncts
// cheapest/most-selective first.
void BM_AblationCandidateChain(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t first_sel = state.range(0);  // % passing the first conjunct
  auto a = RandomI64(n, 0, 99, 12);
  auto b = RandomI64(n, 0, 99, 13);
  for (auto _ : state) {
    auto c1 = ops::SelectCmp(*a, CmpOp::kLt, Value::I64(first_sel));
    auto c2 = ops::SelectCmp(*b, CmpOp::kLt, Value::I64(50), &*c1);
    benchmark::DoNotOptimize(c2->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AblationCandidateChain)->Arg(1)->Arg(50)->Arg(100);

void BM_AblationBoolMapFallback(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  const int64_t first_sel = state.range(0);
  auto a = RandomI64(n, 0, 99, 12);
  auto b = RandomI64(n, 0, 99, 13);
  for (auto _ : state) {
    auto m1 = ops::MapCmpConst(*a, CmpOp::kLt, Value::I64(first_sel));
    auto m2 = ops::MapCmpConst(*b, CmpOp::kLt, Value::I64(50));
    auto both = ops::MapAnd(**m1, **m2);
    auto cand = ops::SelectTrue(**both);
    benchmark::DoNotOptimize(cand->size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AblationBoolMapFallback)->Arg(1)->Arg(50)->Arg(100);

void BM_CandidateIntersect(benchmark::State& state) {
  const uint64_t n = 1 << 20;
  auto a = RandomI64(n, 0, 99, 10);
  auto b = RandomI64(n, 0, 99, 11);
  auto ca = *ops::SelectCmp(*a, CmpOp::kLt, Value::I64(50));
  auto cb = *ops::SelectCmp(*b, CmpOp::kLt, Value::I64(50));
  for (auto _ : state) {
    auto out = Candidates::Intersect(ca, cb);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_CandidateIntersect);

}  // namespace
}  // namespace dc

BENCHMARK_MAIN();
