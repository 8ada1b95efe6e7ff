// Copyright 2026 The DataCell Authors.
//
// Durability proof (docs/DURABILITY.md): kill-and-recover at EVERY
// filesystem operation the durability layer performs — mid-WAL-record,
// between an append and its fsync, mid-segment-rotation,
// mid-snapshot-rename, after a snapshot lands but before the old
// segments are unlinked, mid-unlink — then recover on the real files,
// resume the deterministic row tape, and compare every query's emission
// sequence against an uninterrupted oracle:
//
//   recovered emissions  ==  a contiguous SUFFIX of the oracle's, and
//   |oracle| - |recovered|  <=  emissions already delivered at the last
//                               checkpoint that STARTED before the trip
//                               (0 when no checkpoint had started).
//
// The suffix half proves no divergence and no duplication; the bound half
// proves nothing is lost beyond what a checkpoint had durably handed to
// sinks before the crash. Storage-level unit tests (framing, torn-tail
// scans, snapshot prev-fallback, CRC and codec golden values, segment
// rotation), an fsync-policy sweep, a checkpoint-cost bound, and a
// threaded background-checkpointer round-trip ride along.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/crash_util.h"
#include "tests/durability_workload.h"
#include "tests/test_util.h"
#include "util/string_util.h"

// Full crash-point enumeration is cheap in a normal build but 10-20x
// slower under sanitizers; stride the kill points there (coverage still
// spans the whole op range, offset per style so the two styles interleave).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DC_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DC_SANITIZED_BUILD 1
#endif
#endif

namespace dc {
namespace {

using storage::FsyncPolicy;
using testutil::CrashEnv;
using testutil::DurableSyncOptions;
using testutil::IsSuffixOf;
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

// --------------------------------------------------------------------------
// Storage-level unit coverage.
// --------------------------------------------------------------------------

TEST(WalCodec, RecordsRoundTripThroughWriterAndScan) {
  const std::string dir = MakeTempDir("walcodec");
  const std::string path = dir + "/t.wal";

  storage::WalReset reset;
  reset.start_seq = 17;
  reset.next_ordinal = 5;
  reset.watermark = 123456;
  reset.sealed = true;
  storage::WalSubmit sub;
  sub.token = 42;
  sub.sql = "SELECT count(*) FROM s [ROWS 4 SLIDE 4]";
  sub.mode = 1;
  sub.name = "q";
  sub.origins = {7, 9};
  sub.batch_cursor = 3;
  sub.node_label = "s#1";
  sub.node_origin = 7;

  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->Append(storage::EncodeReset(reset)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeBatch(5, 17, 0, {})).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(-7)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSeal()).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeStatement("CREATE TABLE t (x int)"))
                    .ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSubmit(sub)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeRemove(42)).ok());
  }

  auto scan = storage::ReadWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean_tail);
  ASSERT_EQ(scan->records.size(), 7u);

  auto r0 = storage::DecodeReset(scan->records[0]);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->start_seq, 17u);
  EXPECT_EQ(r0->next_ordinal, 5u);
  EXPECT_EQ(r0->watermark, 123456);
  EXPECT_TRUE(r0->sealed);

  auto r1 = storage::DecodeBatch(scan->records[1]);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->ordinal, 5u);
  EXPECT_EQ(r1->begin_seq, 17u);
  EXPECT_EQ(r1->rows, 0u);

  auto r2 = storage::DecodeHeartbeat(scan->records[2]);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, -7);
  EXPECT_EQ(scan->records[3].type, storage::WalRecordType::kSeal);

  auto r4 = storage::DecodeStatement(scan->records[4]);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(*r4, "CREATE TABLE t (x int)");

  auto r5 = storage::DecodeSubmit(scan->records[5]);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->token, 42u);
  EXPECT_EQ(r5->sql, sub.sql);
  EXPECT_EQ(r5->mode, 1);
  EXPECT_EQ(r5->name, "q");
  EXPECT_EQ(r5->origins, sub.origins);
  EXPECT_EQ(r5->batch_cursor, 3u);
  EXPECT_EQ(r5->node_label, "s#1");
  EXPECT_EQ(r5->node_origin, 7u);

  auto r6 = storage::DecodeRemove(scan->records[6]);
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(*r6, 42u);

  RemoveDirRecursive(dir);
}

// The slicing-by-8 CRC is the IEEE CRC32 every existing log was written
// with: the standard check value, and equality with the bytewise
// reference for every length up to 4 KiB at every misalignment.
TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32("", 0), 0u);
}

TEST(Crc32, SlicingBy8MatchesBytewiseReference) {
  constexpr size_t kMax = 4096;
  std::vector<unsigned char> buf(kMax + 8);
  Rng rng(20261020);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    // Bit-at-a-time reference register, extended one byte per length.
    uint32_t ref = 0xFFFFFFFFu;
    for (size_t n = 0; n <= kMax; ++n) {
      ASSERT_EQ(storage::Crc32(buf.data() + offset, n), ref ^ 0xFFFFFFFFu)
          << "offset " << offset << " length " << n;
      ref ^= buf[offset + n];
      for (int k = 0; k < 8; ++k) {
        ref = (ref & 1) ? 0xEDB88320u ^ (ref >> 1) : ref >> 1;
      }
    }
  }
}

std::string Hex(const std::string& bytes) {
  std::string out;
  for (unsigned char c : bytes) out += StrFormat("%02x", c);
  return out;
}

/// Every column shape the codec distinguishes: fixed-width with and
/// without NULLs, booleans, strings with NULLs, an all-NULL-ish double.
std::vector<BatPtr> GoldenColumns() {
  std::vector<BatPtr> cols;
  cols.push_back(Bat::MakeI64({1, -2, INT64_MAX}));
  BatPtr ts = Bat::MakeEmpty(TypeId::kTs);
  ts->AppendI64(5);
  ts->AppendNull();
  ts->AppendI64(-7);
  cols.push_back(ts);
  cols.push_back(Bat::MakeF64({0.5, -1.25, 3.0}));
  cols.push_back(Bat::MakeBool({1, 0, 1}));
  BatPtr str = Bat::MakeEmpty(TypeId::kStr);
  str->AppendStr("a");
  str->AppendNull();
  str->AppendStr("xyz");
  cols.push_back(str);
  BatPtr f = Bat::MakeEmpty(TypeId::kF64);
  f->AppendNull();
  f->AppendF64(2.0);
  f->AppendNull();
  cols.push_back(f);
  return cols;
}

// The bulk codec writes byte-for-byte what the per-value encoder wrote
// (hex captured from that encoder), so existing logs stay readable and
// the log bytes of a workload do not change.
TEST(WalCodec, EncodingIsByteIdenticalToTheFormat) {
  EXPECT_EQ(
      Hex(storage::EncodeBatch(9, 40, 3, GoldenColumns())),
      "0209000000000000002800000000000000030000000000000006000000010300"
      "000000000000000100000000000000feffffffffffffffffffffffffffff7f04"
      "03000000000000000100010005000000000000000000000000000000f9ffffff"
      "ffffffff02030000000000000000000000000000e03f000000000000f4bf0000"
      "0000000008400003000000000000000001000103030000000000000001000100"
      "0100000061000000000300000078797a02030000000000000001010001000000"
      "000000000000000000000000400000000000000000");
  EXPECT_EQ(Hex(storage::FrameRecord(
                    storage::EncodeBatch(9, 40, 3, GoldenColumns()))
                    .substr(0, 8)),
            "d500000069d33ffd");
  storage::WalReset reset;
  reset.start_seq = 17;
  reset.next_ordinal = 5;
  reset.watermark = -3;
  reset.sealed = true;
  EXPECT_EQ(Hex(storage::EncodeReset(reset)),
            "0111000000000000000500000000000000fdffffffffffffff01");
  EXPECT_EQ(Hex(storage::EncodeHeartbeat(1234567)), "0387d6120000000000");
  EXPECT_EQ(Hex(storage::EncodeSeal()), "04");
  EXPECT_EQ(Hex(storage::EncodeStatement("CREATE STREAM s (x int)")),
            "0a170000004352454154452053545245414d207320287820696e7429");
  storage::WalSubmit sub;
  sub.token = 42;
  sub.sql = "SELECT 1";
  sub.mode = 1;
  sub.name = "q";
  sub.origins = {7, 9};
  sub.batch_cursor = 3;
  sub.node_label = "s#1";
  sub.node_origin = 7;
  EXPECT_EQ(Hex(storage::EncodeSubmit(sub)),
            "0b2a000000000000000800000053454c45435420310101000000710200000007"
            "0000000000000009000000000000000300000000000000030000007323310700"
            "000000000000");
  EXPECT_EQ(Hex(storage::EncodeRemove(42)), "0c2a00000000000000");
}

// AppendBatch frames the batch in the buffer it encodes it into; the
// bytes on disk are those of FrameRecord(EncodeBatch(...)).
TEST(WalCodec, AppendBatchWritesTheFramedEncoding) {
  const std::string dir = MakeTempDir("appendbatch");
  const std::string path = dir + "/log.wal";
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->AppendBatch(9, 40, 3, GoldenColumns()).ok());
    ASSERT_TRUE((*w)->AppendBatch(10, 43, 0, {}).ok());
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(bytes),
            Hex(std::string(storage::kWalMagic, sizeof(storage::kWalMagic)) +
                storage::FrameRecord(
                    storage::EncodeBatch(9, 40, 3, GoldenColumns())) +
                storage::FrameRecord(storage::EncodeBatch(10, 43, 0, {}))));
  RemoveDirRecursive(dir);
}

// Decoding restores every value and NULL, through the bulk path
// (NULL-free fixed-width columns) and the per-row path alike.
TEST(WalCodec, BatchesDecodeToTheirColumns) {
  const std::vector<BatPtr> cols = GoldenColumns();
  storage::WalRecord rec;
  const std::string payload = storage::EncodeBatch(9, 40, 3, cols);
  rec.type = storage::WalRecordType::kBatch;
  rec.body = payload.substr(1);
  auto b = storage::DecodeBatch(rec);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->ordinal, 9u);
  EXPECT_EQ(b->begin_seq, 40u);
  EXPECT_EQ(b->rows, 3u);
  ASSERT_EQ(b->cols.size(), cols.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    ASSERT_EQ(b->cols[c]->type(), cols[c]->type()) << "column " << c;
    ASSERT_EQ(b->cols[c]->size(), cols[c]->size()) << "column " << c;
    for (uint64_t i = 0; i < cols[c]->size(); ++i) {
      EXPECT_EQ(b->cols[c]->GetValue(i).ToString(),
                cols[c]->GetValue(i).ToString())
          << "column " << c << " row " << i;
      EXPECT_EQ(b->cols[c]->IsNull(i), cols[c]->IsNull(i));
    }
  }
  // A payload cut anywhere fails to decode instead of inventing values.
  for (size_t cut = 1; cut < rec.body.size(); cut += 7) {
    storage::WalRecord shortened = rec;
    shortened.body.resize(cut);
    EXPECT_FALSE(storage::DecodeBatch(shortened).ok()) << "cut at " << cut;
  }
}

// A head-only read returns the first record without the rest of the log.
TEST(WalCodec, ReadWalHeadReturnsOnlyTheFirstRecord) {
  const std::string dir = MakeTempDir("walhead");
  const std::string path = dir + "/h.wal";
  EXPECT_TRUE(storage::ReadWalHead(path).status().IsNotFound());
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    auto none = storage::ReadWalHead(path);
    ASSERT_TRUE(none.ok());
    EXPECT_FALSE(none->has_value()) << "magic only: no head yet";
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(11)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(12)).ok());
  }
  auto head = storage::ReadWalHead(path);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  ASSERT_TRUE(head->has_value());
  auto ts = storage::DecodeHeartbeat(**head);
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(*ts, 11);
  // A torn first record is no head.
  ASSERT_TRUE(storage::WalEnv::Default()->TruncateFile(path, 20).ok());
  auto torn = storage::ReadWalHead(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_FALSE(torn->has_value());
  RemoveDirRecursive(dir);
}

// Writer-level segment lifecycle: rotation creates the next segment with
// a head, unlinking drops only whole segments below the horizon (oldest
// first, never the current one), and a zero-row batch at a segment's
// end keeps it alive at horizon == end_seq.
TEST(WalSegments, RotateAndDropWholeSegments) {
  const std::string dir = MakeTempDir("walseg");
  storage::WalEnv* env = storage::WalEnv::Default();
  auto created = storage::WalWriter::CreateSegmented(
      env, dir, "s", 0, storage::WalReset{}, FsyncPolicy::kNever, 1,
      storage::WalCounters{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  storage::WalWriter& w = **created;

  // A segment holding only its head does not rotate.
  auto idle = w.PrepareNextSegment();
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, nullptr);

  auto rotate = [&](uint64_t seq, uint64_t ordinal) {
    auto next = w.PrepareNextSegment();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ASSERT_NE(*next, nullptr);
    ASSERT_TRUE(w.SwitchSegment(std::move(*next),
                                storage::WalReset{seq, ordinal, 0, false})
                    .ok());
    ASSERT_TRUE(w.Sync().ok());
  };
  auto batch = [&](uint64_t ordinal, uint64_t begin, uint64_t end) {
    ASSERT_TRUE(w.AppendBatch(ordinal, begin, end - begin, {}).ok());
  };
  batch(0, 0, 10);
  rotate(10, 1);   // segment 0: [0, 10)
  batch(1, 10, 20);
  batch(2, 20, 20);
  rotate(20, 3);   // segment 1: [10, 20) + a zero-row batch at 20
  batch(3, 20, 30);
  rotate(30, 4);   // segment 2: [20, 30); segment 3 is current

  // A head that does not continue the current segment is refused.
  batch(4, 30, 35);
  {
    auto next = w.PrepareNextSegment();
    ASSERT_TRUE(next.ok());
    ASSERT_NE(*next, nullptr);
    EXPECT_FALSE(w.SwitchSegment(std::move(*next),
                                 storage::WalReset{31, 5, 0, false})
                     .ok());
  }

  // Segment 4 is the refused rotation's file: created, never switched to.
  auto on_disk = [&] {
    auto listing = storage::ListWalSegments(dir, "s");
    EXPECT_TRUE(listing.ok());
    EXPECT_FALSE(listing->legacy);
    return listing->numbers;
  };
  ASSERT_TRUE(w.DropSegmentsBelow(9).ok());
  EXPECT_EQ(on_disk(), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
  ASSERT_TRUE(w.DropSegmentsBelow(20).ok());
  EXPECT_EQ(on_disk(), (std::vector<uint64_t>{1, 2, 3, 4}))
      << "segment 1 ends on a zero-row batch";
  ASSERT_TRUE(w.DropSegmentsBelow(1000).ok());
  EXPECT_EQ(on_disk(), (std::vector<uint64_t>{3, 4}))
      << "the current segment always stays";
  auto head = storage::ReadWalHead(storage::WalSegmentPath(dir, "s", 3));
  ASSERT_TRUE(head.ok() && head->has_value());
  auto reset = storage::DecodeReset(**head);
  ASSERT_TRUE(reset.ok());
  EXPECT_EQ(reset->start_seq, 30u);
  EXPECT_EQ(reset->next_ordinal, 4u);
  RemoveDirRecursive(dir);
}

TEST(WalCodec, TornAndGarbageTailsScanToTheValidPrefix) {
  const std::string dir = MakeTempDir("waltorn");
  const std::string path = dir + "/t.wal";
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(i)).ok());
    }
  }
  auto full = storage::ReadWalFile(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size(), 4u);
  ASSERT_TRUE(full->clean_tail);

  // Garbage appended past the last record: same records, dirty tail.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fwrite("\x03\x00\x00", 1, 3, f);
    fclose(f);
  }
  auto dirty = storage::ReadWalFile(path);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(dirty->records.size(), 4u);
  EXPECT_FALSE(dirty->clean_tail);
  EXPECT_EQ(dirty->valid_bytes, full->valid_bytes);

  // Truncation mid-record: one fewer record, dirty tail.
  ASSERT_TRUE(storage::WalEnv::Default()
                  ->TruncateFile(path, full->valid_bytes - 3)
                  .ok());
  auto torn = storage::ReadWalFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 3u);
  EXPECT_FALSE(torn->clean_tail);

  // Re-opening a writer truncates to the valid prefix and appends cleanly.
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(99)).ok());
  }
  auto fixed = storage::ReadWalFile(path);
  ASSERT_TRUE(fixed.ok());
  ASSERT_EQ(fixed->records.size(), 4u);
  EXPECT_TRUE(fixed->clean_tail);
  auto hb = storage::DecodeHeartbeat(fixed->records[3]);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(*hb, 99);

  RemoveDirRecursive(dir);
}

TEST(SnapshotFiles, AtomicRotationWithPrevFallback) {
  const std::string dir = MakeTempDir("snap");
  ASSERT_TRUE(storage::LoadSnapshot(dir).status().IsNotFound());

  storage::SnapshotData one;
  one.checkpoint_id = 1;
  one.baskets.push_back({"s", 10});
  storage::SnapshotData two;
  two.checkpoint_id = 2;
  two.baskets.push_back({"s", 20});
  two.queries.push_back({7, storage::FactoryProgress{{20}, true, 5, 3, 11}});
  two.nodes.push_back({"s#1", 20});

  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, one).ok());
  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, two).ok());

  auto loaded = storage::LoadSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint_id, 2u);
  ASSERT_EQ(loaded->queries.size(), 1u);
  EXPECT_EQ(loaded->queries[0].token, 7u);
  EXPECT_EQ(loaded->queries[0].progress.origins, std::vector<uint64_t>{20});
  EXPECT_TRUE(loaded->queries[0].progress.has_next_emission);
  EXPECT_EQ(loaded->queries[0].progress.emissions, 11u);
  ASSERT_EQ(loaded->nodes.size(), 1u);
  EXPECT_EQ(loaded->nodes[0].label, "s#1");

  // Corrupt the current snapshot: the previous one must serve.
  {
    FILE* f = fopen(storage::SnapshotPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  auto fallback = storage::LoadSnapshot(dir);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->checkpoint_id, 1u);

  // Both corrupt: refuse (the WAL tail alone cannot be trusted once a
  // checkpoint may have truncated it).
  {
    FILE* f = fopen(storage::SnapshotPrevPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  EXPECT_FALSE(storage::LoadSnapshot(dir).ok());
  EXPECT_FALSE(storage::LoadSnapshot(dir).status().IsNotFound());

  RemoveDirRecursive(dir);
}

// --------------------------------------------------------------------------
// Engine-level recovery harness.
// --------------------------------------------------------------------------

struct ScriptMarks {
  std::vector<int64_t> ops;                   // env op count at ckpt start
  std::vector<std::vector<uint64_t>> counts;  // per-query emissions there
};

/// DDL + submits + segmented feed with a Checkpoint between segments.
/// No seal — the tape is resumable. Checkpoint failures are tolerated
/// only once the env has tripped (a dead env can surface a short read).
std::vector<int> RunScript(Engine& e, const std::vector<WRow>& rows,
                           const std::vector<size_t>& ckpts, CrashEnv* env,
                           ScriptMarks* marks) {
  WorkloadDdl(e);
  std::vector<int> qids = WorkloadSubmit(e);
  size_t lo = 0;
  for (size_t c : ckpts) {
    WorkloadFeed(e, rows, lo, lo, c);
    lo = c;
    if (marks != nullptr) {
      marks->ops.push_back(env != nullptr ? env->OpCount() : 0);
      std::vector<uint64_t> cnt;
      for (int q : qids) cnt.push_back(e.GetFactory(q)->Stats().emissions);
      marks->counts.push_back(cnt);
    }
    const Status cs = e.Checkpoint();
    if (env == nullptr || !env->tripped()) {
      EXPECT_TRUE(cs.ok()) << cs.ToString();
    }
  }
  WorkloadFeed(e, rows, lo, lo, rows.size());
  return qids;
}

/// Recovers from `dir` on the real filesystem, re-creates whatever part
/// of the catalog the crash predated (a lost CREATE/submit implies the
/// trip came before any data op — the catalog log is fsync-always and
/// strictly precedes feeding — which the HighSeq assertions verify),
/// resumes the tape from each basket's replayed HighSeq, seals, and
/// returns per-query emissions in workload order.
void RecoverAndResume(const std::string& dir, FsyncPolicy fsync,
                      const std::vector<WRow>& rows,
                      std::vector<std::vector<std::string>>* out) {
  Engine rec(DurableSyncOptions(dir, nullptr, fsync));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();

  bool rebuilt_catalog = false;
  if (!rec.StreamStats("s").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
            .ok());
  }
  if (!rec.StreamStats("r").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok());
  }

  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    if (auto it = by_sql.find(sql); it != by_sql.end()) {
      qids.push_back(it->second);
      continue;
    }
    rebuilt_catalog = true;
    auto q = rec.SubmitContinuous(sql,
                                  testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\nsql: " << sql;
    qids.push_back(*q);
  }
  if (rebuilt_catalog) {
    // Catalog loss can only mean the crash predated every data append.
    ASSERT_EQ(rec.GetBasket("s")->HighSeq(), 0u);
    ASSERT_EQ(rec.GetBasket("r")->HighSeq(), 0u);
  }

  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_LE(lo_s, rows.size());
  ASSERT_LE(lo_r, rows.size());
  WorkloadFeed(rec, rows, lo_s, lo_r, rows.size());
  WorkloadSeal(rec);
  *out = WorkloadTake(rec, qids);
}

/// Index of the last checkpoint whose first op precedes trip `k`
/// (its emission count upper-bounds what recovery may not re-emit).
int64_t LastStartedCheckpoint(const ScriptMarks& marks, int64_t k) {
  int64_t j = -1;
  for (size_t i = 0; i < marks.ops.size(); ++i) {
    if (marks.ops[i] <= k) j = static_cast<int64_t>(i);
  }
  return j;
}

void AssertRecoveredAgainstOracle(
    const std::vector<std::vector<std::string>>& got,
    const std::vector<std::vector<std::string>>& oracle,
    const ScriptMarks& marks, int64_t k) {
  ASSERT_EQ(got.size(), oracle.size());
  const int64_t j = LastStartedCheckpoint(marks, k);
  for (size_t q = 0; q < oracle.size(); ++q) {
    ASSERT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
    const size_t missing = oracle[q].size() - got[q].size();
    const uint64_t bound = j >= 0 ? marks.counts[j][q] : 0;
    EXPECT_LE(missing, bound)
        << "query " << q << ": recovery lost emissions a checkpoint never "
        << "covered (trip op " << k << ", last started checkpoint " << j
        << ")";
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("recovery"); }
  void TearDown() override { testutil::RemoveDirRecursive(dir_); }

  /// Uninterrupted durable run: the oracle emissions and per-checkpoint
  /// emission counts every crash run is judged against.
  void RunOracle(const std::vector<WRow>& rows,
                 const std::vector<size_t>& ckpts, FsyncPolicy fsync,
                 std::vector<std::vector<std::string>>* emissions,
                 ScriptMarks* marks) {
    const std::string odir = MakeTempDir("oracle");
    {
      Engine e(DurableSyncOptions(odir, nullptr, fsync));
      ASSERT_TRUE(e.recovery_status().ok());
      std::vector<int> qids = RunScript(e, rows, ckpts, nullptr, marks);
      WorkloadSeal(e);
      *emissions = WorkloadTake(e, qids);
    }
    RemoveDirRecursive(odir);
    for (const auto& per_query : *emissions) {
      ASSERT_GT(per_query.size(), 3u) << "oracle produced a trivial tape";
    }
  }

  /// Kills the scripted run at every filesystem op (strided under
  /// sanitizers) in both styles and checks each recovery.
  void EnumerateCrashPoints(const std::vector<WRow>& rows,
                            const std::vector<size_t>& ckpts,
                            bool expect_unlinks);

  std::string dir_;
};

TEST_F(RecoveryTest, ColdStartOnEmptyDirIsANoOp) {
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  EXPECT_TRUE(e.recovery_status().ok());
  EXPECT_EQ(e.metrics().GetCounter("recovery.runs")->Value(), 0u);
  WorkloadDdl(e);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
}

// Graceful shutdown + no checkpoint: the destructor syncs every log, so
// a restart replays the WHOLE history and re-emits every emission — the
// recovered engine's output equals the oracle exactly, with no resume
// feed at all (the seal was logged too).
TEST_F(RecoveryTest, GracefulRestartReplaysTheFullTape) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
    qids = RunScript(e, rows, {}, nullptr, nullptr);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_EQ(rec.metrics().GetCounter("recovery.runs")->Value(), 1u);
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_rows")->Value(), 0u);
  // Replay happens in the constructor; emissions are already buffered.
  EXPECT_EQ(WorkloadTake(rec, qids), oracle);
  // The shared-window nodes came back under their original deterministic
  // labels: one per distinct window on s, with the tier-P pair (HAVING
  // twins) still co-subscribed to s#1.
  const SharingStats ss = rec.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 3u);
  bool found_pair = false;
  for (const auto& n : ss.nodes) {
    if (n.label == "s#1") {
      EXPECT_EQ(n.subscribers, 2);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair) << "tier-P node s#1 did not survive recovery";
}

// Checkpoint then graceful restart: recovery restores the checkpoint's
// progress cursors, so the replay re-emits EXACTLY the post-checkpoint
// tail — equality, not just a bound.
TEST_F(RecoveryTest, CheckpointCutsReplayExactlyAtItsEmissionCounts) {
  const std::vector<WRow> rows = WorkloadRows(36);
  ScriptMarks marks;
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    qids = RunScript(e, rows, {24}, nullptr, &marks);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  ASSERT_EQ(got.size(), oracle.size());
  ASSERT_EQ(marks.counts.size(), 1u);
  for (size_t q = 0; q < oracle.size(); ++q) {
    const size_t cut = static_cast<size_t>(marks.counts[0][q]);
    ASSERT_LE(cut, oracle[q].size());
    EXPECT_EQ(got[q],
              std::vector<std::string>(oracle[q].begin() + cut,
                                       oracle[q].end()))
        << "query " << q << " did not resume exactly at checkpoint cut "
        << cut;
  }
}

// RemoveContinuous is logged and replayed: a removed query stays removed
// after restart, and the survivors still match the oracle.
TEST_F(RecoveryTest, RemoveContinuousSurvivesRestart) {
  const std::vector<WRow> rows = WorkloadRows(24);
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(qids[1]).ok());
    WorkloadFeed(e, rows, 12, 12, rows.size());
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  const std::vector<std::string> sqls = WorkloadQueries();
  EXPECT_EQ(by_sql.count(sqls[1]), 0u) << "removed query resurrected";
  EXPECT_EQ(by_sql.size(), sqls.size() - 1);
  WorkloadSeal(rec);
  for (const auto& [sql, id] : by_sql) {
    auto r = rec.TakeResults(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->size(), 0u) << sql;
  }
}

// A tier-F alias whose FOUNDING query was removed before the last
// checkpoint: the founder's token has no snapshot entry, so its replay
// restores stale submit-time origins — below the WAL truncation floor
// once a later checkpoint unlinked the oldest log segment. The surviving
// alias's snapshot progress must be re-applied when its kSubmit replays,
// or recovery re-reads rows that no longer exist / re-emits delivered
// output.
TEST_F(RecoveryTest, AliasRestoresSnapshotProgressAfterFounderRemoval) {
  const std::vector<WRow> rows = WorkloadRows(36);
  // The stream-stream join: not tier-P eligible, so the alias shares the
  // factory directly (tier F) and the restored FACTORY origins — not a
  // shared node's snapshot-restored origin — are what recovery must fix.
  const std::string sql = WorkloadQueries()[4];

  // Oracle: same submit/remove schedule on a transient engine.
  std::vector<std::string> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 8);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    WorkloadFeed(e, rows, 8, 8, rows.size());
    WorkloadSeal(e);
    auto r = e.TakeResults(*b);
    ASSERT_TRUE(r.ok());
    oracle = testutil::EmissionStrings(*r);
    ASSERT_GT(oracle.size(), 3u);
  }

  uint64_t at_ckpt = 0;  // alias emissions already counted at checkpoint
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 8);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    // The first checkpoint closes segment 0 at row 8; the second
    // captures a horizon past it; the third unlinks it, making the
    // founder's submit-time origins unreplayable.
    ASSERT_TRUE(e.Checkpoint().ok());
    WorkloadFeed(e, rows, 8, 8, 20);
    at_ckpt = e.GetFactory(*b)->Stats().emissions;
    ASSERT_TRUE(e.Checkpoint().ok());
    ASSERT_TRUE(e.Checkpoint().ok());
    ASSERT_GT(e.metrics().GetCounter("wal.truncations")->Value(), 0u)
        << "no segment unlinked: the founder's origins stay replayable";
    WorkloadFeed(e, rows, 20, 20, 24);
  }

  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  ASSERT_EQ(by_sql.size(), 1u) << "only the alias should survive";
  const uint64_t lo = rec.GetBasket("s")->HighSeq();
  ASSERT_LE(lo, rows.size());
  WorkloadFeed(rec, rows, lo, lo, rows.size());
  WorkloadSeal(rec);
  auto r = rec.TakeResults(by_sql[sql]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<std::string> got = testutil::EmissionStrings(*r);
  ASSERT_TRUE(IsSuffixOf(got, oracle));
  EXPECT_LE(oracle.size() - got.size(), at_ckpt)
      << "recovery lost emissions the checkpoint never covered";
}

// The tentpole: enumerate every crash point of the scripted run
// (fsync=interval) under both loss styles and hold recovery to the
// suffix + checkpoint-bound contract. Two schedules: two checkpoints
// (rotations, nothing old enough to unlink yet), and four checkpoints
// far enough apart that the later ones unlink segments — so the
// enumeration kills mid-rotation and mid-unlink too.
TEST_F(RecoveryTest, CrashPointEnumerationMatchesOracle) {
  EnumerateCrashPoints(WorkloadRows(40), {14, 28}, /*expect_unlinks=*/false);
}

TEST_F(RecoveryTest, CrashPointEnumerationAcrossSegmentUnlinks) {
  EnumerateCrashPoints(WorkloadRows(48), {8, 18, 28, 38},
                       /*expect_unlinks=*/true);
}

void RecoveryTest::EnumerateCrashPoints(const std::vector<WRow>& rows,
                                        const std::vector<size_t>& ckpts,
                                        bool expect_unlinks) {
  const FsyncPolicy policy = FsyncPolicy::kInterval;

  std::vector<std::vector<std::string>> oracle;
  ScriptMarks oracle_marks;
  ASSERT_NO_FATAL_FAILURE(
      RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

  // Counting run: identical script under an unarmed CrashEnv. Its op
  // marks index the same op sequence every armed run replays pre-trip.
  int64_t n_ops = 0;
  ScriptMarks marks;
  {
    const std::string cdir = MakeTempDir("count");
    CrashEnv env;
    {
      Engine e(DurableSyncOptions(cdir, &env, policy));
      RunScript(e, rows, ckpts, &env, &marks);
      const uint64_t unlinks =
          e.metrics().GetCounter("wal.truncations")->Value();
      if (expect_unlinks) {
        ASSERT_GT(unlinks, 0u) << "schedule never unlinks a segment";
      } else {
        ASSERT_EQ(unlinks, 0u);
      }
    }
    n_ops = env.OpCount();
    RemoveDirRecursive(cdir);
  }
  ASSERT_GT(n_ops, 60) << "enumeration would be vacuous";
  // Determinism cross-check: buffering must not change what fires when.
  ASSERT_EQ(marks.counts, oracle_marks.counts);

#ifdef DC_SANITIZED_BUILD
  int64_t stride = 9;
#else
  int64_t stride = 1;
#endif
  if (const char* s = std::getenv("DC_CRASH_STRIDE")) stride = atoll(s);
  if (stride < 1) stride = 1;

  for (const CrashEnv::Style style :
       {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
    const int64_t offset =
        style == CrashEnv::Style::kTorn ? stride / 2 : 0;
    for (int64_t k = offset; k < n_ops; k += stride) {
      SCOPED_TRACE(StrFormat(
          "trip=%lld/%lld style=%s", static_cast<long long>(k),
          static_cast<long long>(n_ops),
          style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
      const std::string kdir = MakeTempDir("crash");
      CrashEnv env;
      env.ArmTrip(k, style, /*torn_seed=*/0xC0FFEEull ^
                                static_cast<uint64_t>(k) * 2654435761ull);
      {
        Engine e(DurableSyncOptions(kdir, &env, policy));
        RunScript(e, rows, ckpts, &env, nullptr);
      }
      ASSERT_TRUE(env.tripped());
      std::vector<std::vector<std::string>> got;
      ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
      ASSERT_NO_FATAL_FAILURE(
          AssertRecoveredAgainstOracle(got, oracle, marks, k));
      RemoveDirRecursive(kdir);
    }
  }
}

// Every fsync policy honors the same contract at representative mid-run
// crash points (kNever only persists via checkpoints and clean Sync;
// kAlways tightens the loss window to at most the in-flight record).
TEST_F(RecoveryTest, FsyncPolicySweepAtRepresentativeCrashPoints) {
  const std::vector<WRow> rows = WorkloadRows(40);
  const std::vector<size_t> ckpts = {14, 28};

  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kInterval, FsyncPolicy::kAlways}) {
    std::vector<std::vector<std::string>> oracle;
    ScriptMarks oracle_marks;
    ASSERT_NO_FATAL_FAILURE(
        RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

    int64_t n_ops = 0;
    ScriptMarks marks;
    {
      const std::string cdir = MakeTempDir("count");
      CrashEnv env;
      {
        Engine e(DurableSyncOptions(cdir, &env, policy));
        RunScript(e, rows, ckpts, &env, &marks);
      }
      n_ops = env.OpCount();
      RemoveDirRecursive(cdir);
    }
    ASSERT_GT(n_ops, 20);

    for (const CrashEnv::Style style :
         {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
      for (const int64_t k :
           {n_ops / 4, n_ops / 2, (3 * n_ops) / 4, n_ops - 1}) {
        SCOPED_TRACE(StrFormat(
            "policy=%d trip=%lld style=%s", static_cast<int>(policy),
            static_cast<long long>(k),
            style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
        const std::string kdir = MakeTempDir("sweep");
        CrashEnv env;
        env.ArmTrip(k, style, 0xFACEull + static_cast<uint64_t>(k));
        {
          Engine e(DurableSyncOptions(kdir, &env, policy));
          RunScript(e, rows, ckpts, &env, nullptr);
        }
        std::vector<std::vector<std::string>> got;
        ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
        ASSERT_NO_FATAL_FAILURE(
            AssertRecoveredAgainstOracle(got, oracle, marks, k));
        RemoveDirRecursive(kdir);
      }
    }
  }
}

// Durability must be output-invisible: the durable engine's emissions
// equal a plain in-memory engine's, checkpoint calls and all.
TEST_F(RecoveryTest, DurabilityDoesNotChangeEmissions) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> plain;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    plain = WorkloadTake(e, qids);
  }
  std::vector<std::vector<std::string>> durable;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    std::vector<int> qids = RunScript(e, rows, {12, 24}, nullptr, nullptr);
    WorkloadSeal(e);
    durable = WorkloadTake(e, qids);
  }
  EXPECT_EQ(durable, plain);
}

// Threaded engine with the background checkpointer: snapshots happen on
// their own, a restart recovers cleanly, and the resumed sync-mode run
// still lands on a suffix of the deterministic per-window oracle.
TEST(RecoveryThreaded, BackgroundCheckpointerRecovers) {
  const std::string dir = MakeTempDir("ckptloop");
  const std::vector<WRow> rows = WorkloadRows(240);

  std::vector<std::vector<std::string>> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }

  {
    EngineOptions o = testutil::Threaded(2);
    o.durability.dir = dir;
    o.durability.fsync = FsyncPolicy::kInterval;
    o.durability.fsync_interval_batches = 8;
    o.durability.checkpoint_interval_ms = 5;
    Engine e(o);
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    WorkloadSubmit(e);
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(
          e.PushRow("s", {Value::Ts(rows[i].ts_us), Value::I64(rows[i].g),
                          Value::I64(rows[i].v),
                          Value::F64(static_cast<double>(rows[i].w16) / 16.0)})
              .ok());
      ASSERT_TRUE(e.PushRow("r", {Value::Ts(rows[i].ts_us),
                                  Value::I64(rows[i].v % 5),
                                  Value::I64(rows[i].w16)})
                      .ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(e.Heartbeat("s", rows[i].ts_us).ok());
        ASSERT_TRUE(e.Heartbeat("r", rows[i].ts_us).ok());
      }
      if (i % 48 == 47) {
        std::this_thread::sleep_for(std::chrono::milliseconds(8));
      }
    }
    ASSERT_TRUE(e.WaitIdle());
    EXPECT_GE(e.metrics().GetCounter("snapshot.writes")->Value(), 1u);
  }

  Engine rec(DurableSyncOptions(dir, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_records")->Value(),
            0u);
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    ASSERT_EQ(by_sql.count(sql), 1u) << sql;
    qids.push_back(by_sql[sql]);
  }
  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_EQ(lo_s, rows.size());  // graceful shutdown synced everything
  ASSERT_EQ(lo_r, rows.size());
  WorkloadSeal(rec);
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
  }
  RemoveDirRecursive(dir);
}

TEST_F(RecoveryTest, DurabilityMetricsAreExposed) {
  const std::vector<WRow> rows = WorkloadRows(24);
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  // Three checkpoints: a segment is unlinked only once the PREVIOUS
  // checkpoint's horizon passed its end — the first checkpoint rotates
  // segment 0, the second captures a horizon beyond it, the third
  // unlinks it.
  std::vector<int> qids = RunScript(e, rows, {8, 16, 24}, nullptr, nullptr);
  WorkloadSeal(e);
  WorkloadTake(e, qids);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.bytes")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.syncs")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.truncations")->Value(), 0u);
  EXPECT_EQ(e.metrics().GetCounter("snapshot.writes")->Value(), 3u);
  EXPECT_GT(e.metrics().GetCounter("snapshot.bytes")->Value(), 0u);
}

// A checkpoint's cost does not grow with the log it retains: after the
// same warm-up, one Checkpoint() performs the same filesystem operations
// and writes the same bytes whether each interval holds 10 batches or
// 200 (rotation writes a magic and a head, truncation unlinks whole
// segments — nothing is read back or rewritten). Across 50 checkpoints
// the WAL on disk never exceeds the last two intervals plus heads.
TEST(CheckpointCost, ConstantInTheRetainedLog) {
  struct Cost {
    int64_t ops = 0;
    uint64_t bytes = 0;
  };
  auto run = [](int batches_per_interval) {
    const std::string dir = MakeTempDir("ckptcost");
    CrashEnv env;
    Cost last;
    {
      Engine e(DurableSyncOptions(dir, &env, FsyncPolicy::kNever));
      EXPECT_TRUE(e.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
      auto q = e.SubmitContinuous(
          "SELECT count(*), sum(v) FROM s [ROWS 2 SLIDE 2]");
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      const auto wal_bytes = e.metrics().GetCounter("wal.bytes");
      // Magic plus a framed kReset head, per segment.
      const uint64_t head_bytes =
          sizeof(storage::kWalMagic) + 8 +
          storage::EncodeReset(storage::WalReset{}).size();
      int64_t ts = 0;
      uint64_t prev_interval = 0;
      for (int c = 0; c < 50; ++c) {
        const uint64_t before = wal_bytes->Value();
        for (int i = 0; i < batches_per_interval; ++i) {
          ++ts;
          EXPECT_TRUE(e.PushRow("s", {Value::Ts(ts), Value::I64(ts % 7)}).ok());
          e.Pump();
        }
        const uint64_t interval = wal_bytes->Value() - before;
        const int64_t ops0 = env.OpCount();
        const uint64_t bytes0 = env.BytesAppended();
        EXPECT_TRUE(e.Checkpoint().ok());
        last = {env.OpCount() - ops0, env.BytesAppended() - bytes0};

        uint64_t on_disk = 0;
        size_t segments = 0;
        for (const auto& ent : std::filesystem::directory_iterator(dir)) {
          const std::string name = ent.path().filename().string();
          if (name.rfind("s.", 0) != 0) continue;
          on_disk += std::filesystem::file_size(ent.path());
          ++segments;
        }
        EXPECT_LE(segments, 3u) << "checkpoint " << c;
        EXPECT_LE(on_disk, interval + prev_interval + segments * head_bytes)
            << "checkpoint " << c << ": the log outgrew two intervals";
        prev_interval = interval;
      }
      EXPECT_GT(e.metrics().GetCounter("wal.truncations")->Value(), 40u);
    }
    RemoveDirRecursive(dir);
    return last;
  };
  const Cost small = run(10);
  const Cost large = run(200);
  EXPECT_EQ(small.ops, large.ops);
  EXPECT_EQ(small.bytes, large.bytes);
  EXPECT_GT(small.ops, 0);
}

/// Rewrites `path` as a log holding `records` (the crafted-damage tool of
/// the continuity test below).
void RewriteLog(const std::string& path,
                const std::vector<storage::WalRecord>& records) {
  ASSERT_TRUE(storage::WalEnv::Default()->RemoveFile(path).ok());
  auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                    FsyncPolicy::kAlways, 1,
                                    storage::WalCounters{});
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (const storage::WalRecord& rec : records) {
    std::string payload(1, static_cast<char>(rec.type));
    payload += rec.body;
    ASSERT_TRUE((*w)->Append(payload).ok());
  }
}

// A later segment's head is a continuity check, not a reset. When the
// segment before it lost its tail (here: its last batch cut off at a
// record boundary, which no checksum can notice), the log ends there and
// going live deletes the later segment; when the position matches but
// replay already ran past the head's watermark, no loss of the previous
// segment's tail explains it, and recovery refuses.
TEST_F(RecoveryTest, LaterSegmentHeadsAreContinuityChecks) {
  const std::vector<WRow> rows = WorkloadRows(30);
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    WorkloadFeed(e, rows, 0, 0, 10);
    ASSERT_TRUE(e.Checkpoint().ok());  // s.0.wal closes at row 10
    WorkloadFeed(e, rows, 10, 10, 20);
    ASSERT_TRUE(e.Checkpoint().ok());  // s.1.wal closes at row 20
    WorkloadFeed(e, rows, 20, 20, 30);
  }
  const std::string seg1 = storage::WalSegmentPath(dir_, "s", 1);
  const std::string seg2 = storage::WalSegmentPath(dir_, "s", 2);
  auto scan1 = storage::ReadWalFile(seg1);
  auto scan2 = storage::ReadWalFile(seg2);
  ASSERT_TRUE(scan1.ok() && scan2.ok());
  const std::string twin = MakeTempDir("continuity");
  testutil::CopyDir(dir_, twin);

  // Segment 1 without its last batch: segment 2's head no longer follows.
  std::vector<storage::WalRecord> cut = scan1->records;
  while (!cut.empty() && cut.back().type != storage::WalRecordType::kBatch) {
    cut.pop_back();
  }
  ASSERT_GT(cut.size(), 1u);
  cut.pop_back();
  uint64_t cut_end = 0;
  for (const storage::WalRecord& rec : cut) {
    if (rec.type == storage::WalRecordType::kReset) {
      cut_end = storage::DecodeReset(rec)->start_seq;
    } else if (rec.type == storage::WalRecordType::kBatch) {
      auto b = storage::DecodeBatch(rec);
      cut_end = b->begin_seq + b->rows;
    }
  }
  ASSERT_NO_FATAL_FAILURE(RewriteLog(seg1, cut));
  {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    EXPECT_EQ(rec.GetBasket("s")->HighSeq(), cut_end);
    EXPECT_EQ(rec.GetBasket("r")->HighSeq(), rows.size());
    // Appends continue on segment 1, right after the cut.
    WorkloadFeed(rec, rows, cut_end, rows.size(), rows.size());
  }
  EXPECT_FALSE(std::filesystem::exists(seg2))
      << "a segment past the valid prefix survived going live";
  {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    EXPECT_EQ(rec.GetBasket("s")->HighSeq(), rows.size());
  }

  // Segment 2's head at the right position, behind the replayed watermark.
  std::vector<storage::WalRecord> forged = scan2->records;
  ASSERT_EQ(forged[0].type, storage::WalRecordType::kReset);
  storage::WalReset head = *storage::DecodeReset(forged[0]);
  ASSERT_GT(head.watermark, 0);
  head.watermark -= 1;
  forged[0].body = storage::EncodeReset(head).substr(1);
  ASSERT_NO_FATAL_FAILURE(
      RewriteLog(storage::WalSegmentPath(twin, "s", 2), forged));
  {
    Engine rec(DurableSyncOptions(twin, nullptr, FsyncPolicy::kAlways));
    EXPECT_FALSE(rec.recovery_status().ok());
  }
  EXPECT_TRUE(std::filesystem::exists(storage::WalSegmentPath(twin, "s", 2)))
      << "a refused recovery deleted log segments";
  RemoveDirRecursive(twin);
}

// A heartbeat or seal at the end of a retired segment is not yet synced
// when the next segment's head is written, and power loss may keep the
// head but lose them (no order between writes to two files before an
// fsync). The head is authoritative for both: recovery applies them.
TEST_F(RecoveryTest, LaterSegmentHeadRestoresALostHeartbeatAndSeal) {
  const std::vector<WRow> rows = WorkloadRows(10);
  const int64_t wm = rows.back().ts_us + 1000000;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    ASSERT_TRUE(e.Heartbeat("s", wm).ok());
    ASSERT_TRUE(e.SealStream("s").ok());
    ASSERT_TRUE(e.Checkpoint().ok());  // s.1.wal's head: wm, sealed
  }
  const std::string seg0 = storage::WalSegmentPath(dir_, "s", 0);
  auto scan0 = storage::ReadWalFile(seg0);
  ASSERT_TRUE(scan0.ok());
  std::vector<storage::WalRecord> lost = scan0->records;
  ASSERT_EQ(lost.back().type, storage::WalRecordType::kSeal);
  lost.pop_back();
  ASSERT_EQ(lost.back().type, storage::WalRecordType::kHeartbeat);
  ASSERT_EQ(*storage::DecodeHeartbeat(lost.back()), wm);
  lost.pop_back();
  ASSERT_NO_FATAL_FAILURE(RewriteLog(seg0, lost));

  for (int restart = 0; restart < 2; ++restart) {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    Basket::LogPosition at;
    rec.GetBasket("s")->WithLogPosition(
        [&at](const Basket::LogPosition& p) { at = p; });
    EXPECT_EQ(at.high_seq, rows.size());
    EXPECT_EQ(at.watermark, wm);
    EXPECT_TRUE(at.sealed);
    EXPECT_TRUE(std::filesystem::exists(storage::WalSegmentPath(dir_, "s", 1)))
        << "the segment whose head carries the state was deleted";
  }
}

// A stream may be named `catalog`: its log segments are catalog.<n>.wal,
// and the catalog log catalog.wal is never taken for a single-file
// basket log, live or on recovery.
TEST_F(RecoveryTest, StreamNamedCatalogKeepsTheCatalogLog) {
  const auto push = [](Engine& e, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ASSERT_TRUE(
          e.PushRow("catalog", {Value::Ts(i * 1000), Value::I64(i)}).ok());
    }
  };
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    ASSERT_TRUE(e.Execute("CREATE STREAM catalog (ts timestamp, v int)").ok());
    push(e, 0, 8);
    ASSERT_TRUE(e.Checkpoint().ok());
    push(e, 8, 12);
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/catalog.wal"));
  EXPECT_TRUE(
      std::filesystem::exists(storage::WalSegmentPath(dir_, "catalog", 1)));
  for (int restart = 0; restart < 2; ++restart) {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    ASSERT_TRUE(rec.StreamStats("s").ok()) << "DDL before the stream lost";
    ASSERT_TRUE(rec.StreamStats("r").ok()) << "DDL before the stream lost";
    ASSERT_NE(rec.GetBasket("catalog"), nullptr);
    EXPECT_EQ(rec.GetBasket("catalog")->HighSeq(), 12u);
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/catalog.wal"));
  }
}

// A single-file `<stream>.wal` from before segmented logs is read as
// segment 0 (renamed into place), never ignored; beside numbered
// segments it is ambiguous and recovery refuses.
TEST_F(RecoveryTest, SingleFileLogIsReadAsSegmentZero) {
  const std::vector<WRow> rows = WorkloadRows(24);
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
    qids = RunScript(e, rows, {}, nullptr, nullptr);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  for (const char* stream : {"s", "r"}) {
    ASSERT_EQ(::rename(storage::WalSegmentPath(dir_, stream, 0).c_str(),
                       (dir_ + "/" + stream + ".wal").c_str()),
              0);
  }
  const std::string twin = MakeTempDir("legacytwin");
  testutil::CopyDir(dir_, twin);
  {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    EXPECT_EQ(rec.GetBasket("s")->HighSeq(), rows.size());
    EXPECT_EQ(WorkloadTake(rec, qids), oracle);
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/s.wal"));
  EXPECT_TRUE(std::filesystem::exists(storage::WalSegmentPath(dir_, "s", 0)));

  // Both layouts at once: which one is the log is unknowable.
  ASSERT_EQ(::rename((twin + "/r.wal").c_str(),
                     storage::WalSegmentPath(twin, "s", 1).c_str()),
            0);
  {
    Engine rec(DurableSyncOptions(twin, nullptr, FsyncPolicy::kNever));
    EXPECT_FALSE(rec.recovery_status().ok());
  }
  EXPECT_TRUE(std::filesystem::exists(twin + "/s.wal"));
  RemoveDirRecursive(twin);
}

}  // namespace
}  // namespace dc
