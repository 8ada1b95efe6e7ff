// Copyright 2026 The DataCell Authors.
//
// Seeded torn-write / truncation fuzzer for the durability files
// (docs/DURABILITY.md). Each round copies one pristine post-checkpoint
// durability directory, mutates a single file (truncate to a random
// length, or flip one byte), and recovers:
//
//   * recovery must never crash or hang;
//   * if it reports OK, every query that survived in the catalog must —
//     after resuming the tape and sealing — emit a contiguous suffix of
//     the uninterrupted oracle (CRC framing turns arbitrary damage into
//     a shorter valid prefix, never divergent output);
//   * if the damage makes the snapshot/WAL pair inconsistent, recovery
//     must refuse loudly (non-OK status), not mis-emit.
//
// Deterministic and seeded like the other fuzzers: DC_FUZZ_SEED overrides
// the base seed, DC_FUZZ_ROUNDS the round count. On failure the round is
// greedily shrunk (truncations restore half the chopped tail at a time)
// to the mildest mutation that still fails, and the repro line printed.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "storage/wal.h"
#include "tests/crash_util.h"
#include "tests/durability_workload.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dc {
namespace {

using storage::FsyncPolicy;
using testutil::CopyDir;
using testutil::DurableSyncOptions;
using testutil::MakeTempDir;
using testutil::RemoveDirRecursive;
using testutil::WorkloadDdl;
using testutil::WorkloadFeed;
using testutil::WorkloadQueries;
using testutil::WorkloadRows;
using testutil::WorkloadSeal;
using testutil::WorkloadSubmit;
using testutil::WorkloadTake;
using testutil::WRow;

constexpr int kRows = 40;
const std::vector<size_t> kCkpts = {14, 28};

struct Mutation {
  std::string file;  // basename within the durability dir
  enum Kind { kTruncate, kFlip } kind = kTruncate;
  uint64_t arg = 0;  // kTruncate: new length; kFlip: byte offset
};

std::string Describe(const Mutation& m) {
  return StrFormat("%s(%s, %llu)",
                   m.kind == Mutation::kTruncate ? "truncate" : "flip",
                   m.file.c_str(), static_cast<unsigned long long>(m.arg));
}

/// True iff `got` is a contiguous suffix of `want` (non-asserting —
/// rounds report through return strings so the shrinker can re-run them).
bool SuffixOf(const std::vector<std::string>& got,
              const std::vector<std::string>& want) {
  if (got.size() > want.size()) return false;
  return std::equal(got.begin(), got.end(), want.end() - got.size());
}

/// One fuzz round against a mutated copy of the pristine dir. Returns ""
/// on success (including a loud refusal), else a failure description.
std::string RunRound(const std::string& pristine,
                     const std::vector<WRow>& rows,
                     const std::vector<std::vector<std::string>>& oracle,
                     const Mutation& m) {
  const std::string fdir = MakeTempDir("fuzz");
  CopyDir(pristine, fdir);
  {
    const std::string path = fdir + "/" + m.file;
    if (m.kind == Mutation::kTruncate) {
      if (::truncate(path.c_str(), static_cast<off_t>(m.arg)) != 0) {
        RemoveDirRecursive(fdir);
        return "mutation failed: " + Describe(m);
      }
    } else {
      FILE* f = fopen(path.c_str(), "r+b");
      if (f == nullptr) {
        RemoveDirRecursive(fdir);
        return "mutation failed: " + Describe(m);
      }
      fseek(f, static_cast<long>(m.arg), SEEK_SET);
      const int c = fgetc(f);
      fseek(f, static_cast<long>(m.arg), SEEK_SET);
      fputc((c ^ 0xa5) & 0xff, f);
      fclose(f);
    }
  }

  std::string err;
  {
    Engine rec(DurableSyncOptions(fdir, nullptr, FsyncPolicy::kInterval));
    if (!rec.recovery_status().ok()) {
      // A loud, documented refusal is a correct outcome for damage the
      // snapshot/WAL pair cannot cover.
      RemoveDirRecursive(fdir);
      return "";
    }

    // Rebuild whatever part of the catalog the damage erased; queries we
    // must resubmit see a basket state the original never did, so only
    // the intact ones participate in the oracle comparison.
    if (!rec.StreamStats("s").ok() &&
        !rec.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
             .ok()) {
      err = "re-create of stream s failed";
    }
    if (err.empty() && !rec.StreamStats("r").ok() &&
        !rec.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok()) {
      err = "re-create of stream r failed";
    }
    std::map<std::string, int> by_sql;
    for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
    std::vector<int> qids;
    std::vector<bool> intact;
    const std::vector<std::string> sqls = WorkloadQueries();
    for (size_t i = 0; err.empty() && i < sqls.size(); ++i) {
      if (auto it = by_sql.find(sqls[i]); it != by_sql.end()) {
        qids.push_back(it->second);
        intact.push_back(true);
        continue;
      }
      auto q = rec.SubmitContinuous(
          sqls[i], testutil::WithMode(ExecMode::kIncremental));
      if (!q.ok()) {
        err = "resubmit failed: " + q.status().ToString();
        break;
      }
      qids.push_back(*q);
      intact.push_back(false);
    }

    if (err.empty()) {
      const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
      const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
      if (lo_s > rows.size() || lo_r > rows.size()) {
        err = StrFormat("replayed beyond the tape: s=%llu r=%llu",
                        static_cast<unsigned long long>(lo_s),
                        static_cast<unsigned long long>(lo_r));
      } else {
        WorkloadFeed(rec, rows, lo_s, lo_r, rows.size());
        WorkloadSeal(rec);
        for (size_t i = 0; err.empty() && i < qids.size(); ++i) {
          auto r = rec.TakeResults(qids[i]);
          if (!r.ok()) {
            err = "TakeResults: " + r.status().ToString();
            break;
          }
          if (!intact[i]) continue;
          const std::vector<std::string> got = testutil::EmissionStrings(*r);
          if (!SuffixOf(got, oracle[i])) {
            err = StrFormat(
                "query %d: recovered emissions (%d) are not a suffix of the "
                "oracle (%d)",
                static_cast<int>(i), static_cast<int>(got.size()),
                static_cast<int>(oracle[i].size()));
          }
        }
      }
    }
  }
  RemoveDirRecursive(fdir);
  return err;
}

TEST(WalFuzz, RandomTornAndTruncatedFilesNeverDiverge) {
  uint64_t base_seed = 20260809;
  if (const char* s = std::getenv("DC_FUZZ_SEED")) base_seed = strtoull(s, nullptr, 10);
  int rounds = 3;
  if (const char* s = std::getenv("DC_FUZZ_ROUNDS")) rounds = atoi(s);

  const std::vector<WRow> rows = WorkloadRows(kRows);

  // Uninterrupted oracle (fresh dir, full tape, sealed).
  std::vector<std::vector<std::string>> oracle;
  {
    const std::string odir = MakeTempDir("fuzzoracle");
    Engine e(DurableSyncOptions(odir, nullptr, FsyncPolicy::kInterval));
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
    RemoveDirRecursive(odir);
  }
  for (const auto& per_query : oracle) ASSERT_GT(per_query.size(), 3u);

  // Pristine mid-stream state: two checkpoints deep, unsealed, gracefully
  // shut down — catalog.wal, the s.<n>.wal and r.<n>.wal log segments
  // still retained, snapshot.dc, snapshot.prev.dc.
  const std::string pristine = MakeTempDir("fuzzpristine");
  {
    Engine e(DurableSyncOptions(pristine, nullptr, FsyncPolicy::kInterval));
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    size_t lo = 0;
    for (size_t c : kCkpts) {
      WorkloadFeed(e, rows, lo, lo, c);
      lo = c;
      ASSERT_TRUE(e.Checkpoint().ok());
    }
    WorkloadFeed(e, rows, lo, lo, rows.size());
  }
  std::vector<std::string> files;
  for (const auto& ent : std::filesystem::directory_iterator(pristine)) {
    if (ent.is_regular_file()) files.push_back(ent.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 5u) << "pristine dir is missing durability files";

  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = base_seed + static_cast<uint64_t>(round);
    Rng rng(seed);
    Mutation m;
    m.file = files[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(files.size()) - 1))];
    const auto size = static_cast<int64_t>(
        std::filesystem::file_size(pristine + "/" + m.file));
    if (size < 2 || rng.UniformInt(0, 1) == 0) {
      m.kind = Mutation::kTruncate;
      m.arg = static_cast<uint64_t>(rng.UniformInt(0, std::max<int64_t>(size - 1, 0)));
    } else {
      m.kind = Mutation::kFlip;
      m.arg = static_cast<uint64_t>(rng.UniformInt(0, size - 1));
    }

    std::string err = RunRound(pristine, rows, oracle, m);
    if (err.empty()) continue;

    // Greedy shrink: restore half the chopped tail at a time, keeping the
    // mildest truncation that still fails.
    if (m.kind == Mutation::kTruncate) {
      Mutation best = m;
      std::string best_err = err;
      uint64_t lo_len = m.arg;
      uint64_t hi_len = static_cast<uint64_t>(size);
      while (hi_len - lo_len > 1) {
        Mutation cand = m;
        cand.arg = lo_len + (hi_len - lo_len) / 2;
        const std::string cand_err = RunRound(pristine, rows, oracle, cand);
        if (!cand_err.empty()) {
          best = cand;
          best_err = cand_err;
          lo_len = cand.arg;
        } else {
          hi_len = cand.arg;
        }
      }
      m = best;
      err = best_err;
    }
    ADD_FAILURE() << "fuzz round " << round << " failed: " << err
                  << "\n  mutation: " << Describe(m)
                  << "\n  repro: DC_FUZZ_SEED="
                  << seed << " DC_FUZZ_ROUNDS=1 ./wal_fuzz_test";
  }
  RemoveDirRecursive(pristine);
}

}  // namespace
}  // namespace dc
