// Copyright 2026 The DataCell Authors.
//
// Per-basket write-ahead log (docs/DURABILITY.md). Every stream basket
// gets an append-only log of its batch-ordinal history (the basket's
// batch log is the unit of logging), kept as numbered segments
// `<stream>.<n>.wal` that a checkpoint rotates and later unlinks whole,
// and the engine keeps one extra single-file "catalog" log of DDL and
// continuous-query submissions. Records are length-prefixed and
// CRC32-checksummed; a reader stops at the first invalid record, so a
// torn tail degrades to a shorter-but-consistent prefix instead of
// garbage.
//
// All file I/O goes through the injectable WalEnv/WalFile abstraction so
// the crash-point harness (tests/crash_util.h) can buffer unsynced
// writes, tear them mid-record, and swallow renames deterministically.
//
// Locking: WalWriter::mu_ has rank kWal (105) — above kBasket (100), so
// the basket append hook may log while holding the basket lock, and the
// same mutex serializes catalog-log appends from the submit path (which
// runs under kSharingRegistry/kEngine, both < 105).

#ifndef DATACELL_STORAGE_WAL_H_
#define DATACELL_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bat/bat.h"
#include "monitor/metrics.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace dc {
namespace storage {

/// IEEE CRC32 (polynomial 0xEDB88320) over `n` bytes; slicing-by-8,
/// no dependencies.
uint32_t Crc32(const void* data, size_t n);

// --------------------------------------------------------------------------
// Injectable file abstraction.
// --------------------------------------------------------------------------

/// An append-only file handle. The default implementation writes through
/// to the filesystem immediately and fsyncs on Sync(); test
/// implementations may buffer appends and lose them on simulated crash.
class WalFile {
 public:
  virtual ~WalFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Makes all appended bytes durable (fsync).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Filesystem operations the durability layer performs. All paths are
/// plain strings; the engine never touches the filesystem except through
/// the WalEnv configured in EngineOptions::durability.
class WalEnv {
 public:
  virtual ~WalEnv() = default;
  /// Opens `path` for appending, creating it if missing. `truncate`
  /// discards existing contents.
  virtual Result<std::unique_ptr<WalFile>> Open(const std::string& path,
                                                bool truncate) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Makes directory-entry updates under `path` durable (fsync of the
  /// directory itself). Without it, a rename, file creation or unlink
  /// can still be rolled back by power loss — the entry lives in the
  /// parent directory, not the file. Called after the snapshot rotation
  /// renames, after creating a log file or segment, and after unlinking
  /// segments.
  virtual Status SyncDir(const std::string& path) = 0;
  /// Truncates `path` to exactly `len` bytes (drops a corrupt tail).
  virtual Status TruncateFile(const std::string& path, uint64_t len) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  /// mkdir -p.
  virtual Status CreateDirs(const std::string& path) = 0;

  /// The real-filesystem environment (process-lifetime singleton).
  static WalEnv* Default();
};

// --------------------------------------------------------------------------
// Record framing and codecs.
// --------------------------------------------------------------------------

/// Record type tags. Basket logs use 1-9, the catalog log 10-19,
/// snapshot files 30-39 (see snapshot.h).
enum class WalRecordType : uint8_t {
  // Basket log.
  kReset = 1,      // {start_seq u64, next_ordinal u64, watermark i64,
                   //  sealed u8} — the head of every log segment: the
                   //  basket state where the segment starts.
  kBatch = 2,      // {ordinal u64, begin_seq u64, rows u64, ncols u32,
                   //  cols...} — one appended batch, post-clamp values.
  kHeartbeat = 3,  // {ts i64}
  kSeal = 4,       // {}
  // Catalog log.
  kStatement = 10,  // {sql str} — DDL / table DML, re-executed on replay.
  kSubmit = 11,     // continuous-query submission (see WalSubmit).
  kRemove = 12,     // {token u64}
};

/// One decoded record: the type tag plus the payload bytes after it.
struct WalRecord {
  WalRecordType type = WalRecordType::kReset;
  std::string body;
};

/// Little-endian append-only byte sink used by all record codecs.
class WalEncoder {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  void PutStr(std::string_view s);  // u32 length prefix + bytes
  void PutBytes(const void* data, size_t n);
  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader; underflow latches ok()==false
/// and all further Gets return zero values.
class WalDecoder {
 public:
  explicit WalDecoder(std::string_view data) : data_(data) {}
  bool ok() const { return ok_; }
  bool Done() const { return pos_ == data_.size(); }
  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64();
  std::string GetStr();
  std::string_view GetBytes(size_t n);

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Serializes one column (values + null bitmap) for a kBatch record.
void EncodeBat(WalEncoder& enc, const Bat& b);
/// Decodes one column; nullptr Result on malformed input.
Result<BatPtr> DecodeBat(WalDecoder& dec);

/// kReset payload: where a log segment starts — the basket's sequence,
/// next batch ordinal, watermark and sealed flag at that point, so the
/// segment can be replayed without any segment before it.
struct WalReset {
  uint64_t start_seq = 0;
  uint64_t next_ordinal = 0;
  int64_t watermark = INT64_MIN;
  bool sealed = false;
};

/// Decoded kBatch payload.
struct WalBatch {
  uint64_t ordinal = 0;
  uint64_t begin_seq = 0;
  uint64_t rows = 0;
  std::vector<BatPtr> cols;
};

/// kSubmit payload: everything needed to re-run SubmitContinuous
/// deterministically plus the initial factory progress (per-input basket
/// origins) captured right after the original submit validated.
struct WalSubmit {
  uint64_t token = 0;  // submit sequence number, assigned by the engine
  std::string sql;
  uint8_t mode = 0;  // core::ExecMode
  std::string name;  // user-provided query name ("" = engine default)
  std::vector<uint64_t> origins;
  uint64_t batch_cursor = 0;
  std::string node_label;   // "" = this submit created no shared node
  uint64_t node_origin = 0;  // the node's origin_seq at creation
};

std::string EncodeReset(const WalReset& r);
std::string EncodeBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                        const std::vector<BatPtr>& cols);
std::string EncodeHeartbeat(int64_t ts);
std::string EncodeSeal();
std::string EncodeStatement(std::string_view sql);
std::string EncodeSubmit(const WalSubmit& s);
std::string EncodeRemove(uint64_t token);

Result<WalReset> DecodeReset(const WalRecord& rec);
Result<WalBatch> DecodeBatch(const WalRecord& rec);
Result<int64_t> DecodeHeartbeat(const WalRecord& rec);
Result<std::string> DecodeStatement(const WalRecord& rec);
Result<WalSubmit> DecodeSubmit(const WalRecord& rec);
Result<uint64_t> DecodeRemove(const WalRecord& rec);

/// Frames `payload` as [u32 len][u32 crc][payload] — what WalWriter
/// appends and ReadWalFile parses (snapshot files use it too).
std::string FrameRecord(std::string_view payload);

/// 8-byte magic at offset 0 of every WAL and snapshot file.
inline constexpr char kWalMagic[8] = {'D', 'C', 'W', 'A', 'L', '0', '0', '1'};

/// Result of scanning a log file: every record up to the first invalid
/// byte, the length of that valid prefix, and whether the scan consumed
/// the whole file (clean_tail == false means a torn/corrupt tail was
/// dropped at `valid_bytes`).
struct WalScan {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
  bool clean_tail = true;
};

/// Reads a log file from the real filesystem (recovery always reads what
/// actually survived). Missing file -> NotFound. A file without a valid
/// magic scans as zero records with valid_bytes == 0.
Result<WalScan> ReadWalFile(const std::string& path);

/// Reads only the first record of a log file (its kReset head, for a
/// basket segment). Missing file -> NotFound; nullopt when the file has
/// no valid first record.
Result<std::optional<WalRecord>> ReadWalHead(const std::string& path);

// --------------------------------------------------------------------------
// Basket-log segments.
// --------------------------------------------------------------------------

/// `<dir>/<stream>.<number>.wal`.
std::string WalSegmentPath(const std::string& dir, const std::string& stream,
                           uint64_t number);

/// What `dir` holds of `stream`'s log on the real filesystem: segment
/// numbers in ascending order, plus whether a single-file `<stream>.wal`
/// from before segmented logs is present.
struct WalSegmentListing {
  std::vector<uint64_t> numbers;
  bool legacy = false;
};
Result<WalSegmentListing> ListWalSegments(const std::string& dir,
                                          const std::string& stream);

/// One basket-log segment as its writer tracks it in memory.
struct WalSegment {
  uint64_t number = 0;
  /// Basket sequence after the segment's last batch (its head's
  /// start_seq when it holds no batch) — the next segment's start_seq.
  uint64_t end_seq = 0;
  /// The last batch is a zero-row batch beginning at end_seq. A reader
  /// whose cursor sits at end_seq still needs it (its ordinal marks an
  /// emission boundary), so the segment survives a horizon == end_seq.
  bool empty_batch_at_end = false;
  /// The segment holds a record after its kReset head.
  bool past_head = false;

  /// True when every batch in the segment lies below `horizon`.
  bool Below(uint64_t horizon) const {
    return empty_batch_at_end ? end_seq < horizon : end_seq <= horizon;
  }
};

// --------------------------------------------------------------------------
// WalWriter.
// --------------------------------------------------------------------------

/// When appends are made durable. kInterval syncs every
/// `fsync_interval` records; checkpoints always force a sync.
enum class FsyncPolicy { kNever, kInterval, kAlways };

/// Shared metric handles, resolved once by the engine.
struct WalCounters {
  std::shared_ptr<monitor::Counter> records;
  std::shared_ptr<monitor::Counter> bytes;
  std::shared_ptr<monitor::Counter> syncs;
  /// Basket-log segments unlinked by checkpoint truncation.
  std::shared_ptr<monitor::Counter> truncations;
};

/// Appends framed records to a log under its own kWal mutex. Thread-safe;
/// used both by basket hooks (under the basket lock) and by the engine's
/// submit path for the catalog log.
///
/// A basket log is segmented: appends go to the newest segment, a
/// checkpoint rotates to a fresh one (PrepareNextSegment, then
/// SwitchSegment under the basket lock) and unlinks the oldest segments
/// that fell wholly below a horizon (DropSegmentsBelow). Nothing is ever
/// read back or rewritten. The catalog log is a single file.
class WalWriter {
 public:
  /// Single-file log (the catalog). A missing file is created with the
  /// magic header; an existing file with a corrupt tail is truncated to
  /// its valid prefix first so new appends extend the good bytes.
  static Result<std::unique_ptr<WalWriter>> Open(WalEnv* env, std::string path,
                                                 FsyncPolicy policy,
                                                 int fsync_interval,
                                                 WalCounters counters);

  /// Fresh segmented log: creates segment `number` with the magic and
  /// `head`, fsyncs it and its directory entry.
  static Result<std::unique_ptr<WalWriter>> CreateSegmented(
      WalEnv* env, std::string dir, std::string stream, uint64_t number,
      const WalReset& head, FsyncPolicy policy, int fsync_interval,
      WalCounters counters);

  /// Recovered segmented log: `segments` (ascending, non-empty) are on
  /// disk and end on a record boundary; appends continue on the last.
  static Result<std::unique_ptr<WalWriter>> ResumeSegmented(
      WalEnv* env, std::string dir, std::string stream,
      std::vector<WalSegment> segments, FsyncPolicy policy,
      int fsync_interval, WalCounters counters);

  /// Frames `payload` as one record, appends it and applies the fsync
  /// policy.
  Status Append(std::string_view payload);
  /// Append() of the kBatch record EncodeBatch(ordinal, begin_seq, rows,
  /// cols) would encode, framed in the buffer it is encoded into; also
  /// advances the segment's end_seq to begin_seq + rows.
  Status AppendBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                     const std::vector<BatPtr>& cols);

  /// Forces all appended records durable regardless of policy (a
  /// retired segment's tail first, then the current file).
  Status Sync();

  /// Rotation, step 1 — call with no lock held. Creates the next segment,
  /// writes its magic and fsyncs it and the directory. Returns nullptr
  /// (nothing to do) when the current segment holds nothing past its head.
  Result<std::unique_ptr<WalFile>> PrepareNextSegment();

  /// Rotation, step 2 — call under the basket lock, so `head` is exactly
  /// the basket state after the current segment's last record. Switches
  /// appends to `next` and writes `head` there; no fsync (the next Sync
  /// makes the old segment's tail durable before the new segment).
  Status SwitchSegment(std::unique_ptr<WalFile> next, const WalReset& head);

  /// Unlinks, oldest first, the segments whose batches all lie below
  /// `horizon` (never the current one), then fsyncs the directory once.
  /// Unlinking oldest first keeps the survivors a contiguous run whose
  /// first segment starts with a head, at every crash point.
  Status DropSegmentsBelow(uint64_t horizon);

 private:
  WalWriter(WalEnv* env, std::string dir, std::string stream, std::string path,
            FsyncPolicy policy, int fsync_interval, WalCounters counters)
      : env_(env),
        dir_(std::move(dir)),
        stream_(std::move(stream)),
        path_(std::move(path)),
        policy_(policy),
        fsync_interval_(fsync_interval < 1 ? 1 : fsync_interval),
        counters_(std::move(counters)) {}

  /// Appends one framed record (framed and checksummed before the lock
  /// is taken); applies the fsync policy if `durable`.
  Status AppendLocked(std::string_view record, bool durable)
      DC_REQUIRES(mu_);
  Status SyncLocked() DC_REQUIRES(mu_);

  WalEnv* const env_;
  const std::string dir_;     // segmented only
  const std::string stream_;  // segmented only
  const std::string path_;    // single-file only
  const FsyncPolicy policy_;
  const int fsync_interval_;
  WalCounters counters_;

  Mutex mu_{LockRank::kWal};
  std::unique_ptr<WalFile> file_ DC_GUARDED_BY(mu_);
  /// The segment SwitchSegment left while it still had unsynced records;
  /// synced (and closed) before the current file on the next sync.
  std::unique_ptr<WalFile> retired_ DC_GUARDED_BY(mu_);
  /// Records appended since the last sync.
  int unsynced_ DC_GUARDED_BY(mu_) = 0;
  std::vector<WalSegment> segments_ DC_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace dc

#endif  // DATACELL_STORAGE_WAL_H_
