// Copyright 2026 The DataCell Authors.
//
// Deterministic crash-point injection for the durability layer
// (docs/DURABILITY.md). CrashEnv is a WalEnv whose files buffer every
// append and persist to the real filesystem only on Sync (and on a clean
// Close) — the power-loss model: at the armed trip point the environment
// goes dead, unsynced buffers vanish, and every later operation is
// swallowed silently while the engine keeps running none the wiser.
// Recovery then reads the REAL files (ReadWalFile / LoadSnapshot bypass
// the env by design), so a test sees exactly what a restarted process
// would.
//
// Protocol: run the workload once unarmed and read OpCount() == N; then
// for every k in [0, N) and every Style, rerun armed with ArmTrip(k, ...),
// destroy the engine, recover on a fresh engine with the default env, and
// compare against the uninterrupted oracle. Pre-trip op sequences are
// identical across runs (the engine is deterministic in sync mode), so k
// indexes a well-defined crash point: before an append, between an append
// and its fsync, mid-rotation, mid-snapshot-rename, mid-unlink, ...

#ifndef DATACELL_TESTS_CRASH_UTIL_H_
#define DATACELL_TESTS_CRASH_UTIL_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "storage/wal.h"
#include "util/random.h"

namespace dc {
namespace testutil {

/// A crash-point injection environment. Thread-safe (hooks run under the
/// basket lock, checkpoints under dur_mu_); uses a plain std::mutex so it
/// stays invisible to the lock-rank validator, and never calls back into
/// engine code while holding it.
class CrashEnv : public storage::WalEnv {
 public:
  enum class Style {
    kDropTail,  // the tripped operation (and everything after) is lost whole
    kTorn,      // a Sync trip persists a seed-chosen prefix of the buffer
  };

  CrashEnv() = default;

  /// Arms the trip: the `trip_at`-th counted operation (0-based) dies.
  /// Call before handing the env to an Engine. trip_at < 0 disarms
  /// (counting mode).
  void ArmTrip(int64_t trip_at, Style style, uint64_t torn_seed) {
    std::lock_guard<std::mutex> l(mu_);
    trip_at_ = trip_at;
    style_ = style;
    torn_seed_ = torn_seed;
  }

  /// Counted operations so far (Open/Append/Sync/Close/Rename/Truncate/
  /// Remove). After an unarmed run this is N, the crash-point count.
  int64_t OpCount() const {
    std::lock_guard<std::mutex> l(mu_);
    return op_count_;
  }

  /// Bytes handed to executed File::Append calls so far (what the engine
  /// wrote, synced or not).
  uint64_t BytesAppended() const {
    std::lock_guard<std::mutex> l(mu_);
    return bytes_appended_;
  }

  /// True once the armed trip actually fired.
  bool tripped() const {
    std::lock_guard<std::mutex> l(mu_);
    return dead_;
  }

  Result<std::unique_ptr<storage::WalFile>> Open(const std::string& path,
                                                 bool truncate) override {
    if (NextOp(/*op=*/nullptr) != Action::kExecute) {
      return {std::unique_ptr<storage::WalFile>(new File(this, path))};
    }
    if (truncate) {
      const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd < 0) return Status::Internal("CrashEnv: open " + path);
      ::close(fd);
    }
    return {std::unique_ptr<storage::WalFile>(new File(this, path))};
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (NextOp(nullptr) != Action::kExecute) return Status::OK();
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal("CrashEnv: rename " + from + " -> " + to);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (NextOp(nullptr) != Action::kExecute) return Status::OK();
    ::unlink(path.c_str());
    return Status::OK();
  }

  /// Directory fsync is a counted crash point like any other op. (The
  /// env executes renames eagerly, so it does not model losing an
  /// un-SyncDir'd rename — the op is counted so the enumeration still
  /// kills before/at/after it.)
  Status SyncDir(const std::string& path) override {
    if (NextOp(nullptr) != Action::kExecute) return Status::OK();
    return storage::WalEnv::Default()->SyncDir(path);
  }

  Status TruncateFile(const std::string& path, uint64_t len) override {
    if (NextOp(nullptr) != Action::kExecute) return Status::OK();
    if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
      return Status::Internal("CrashEnv: truncate " + path);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;  // not a counted op
  }

  Status CreateDirs(const std::string& path) override {
    return storage::WalEnv::Default()->CreateDirs(path);  // not counted
  }

 private:
  enum class Action { kExecute, kSwallow, kTear };

  /// Buffered file: appends accumulate in `pending_` and reach the real
  /// file only when a Sync (or clean Close) executes. A trip or dead env
  /// loses the buffer — exactly what a power cut does to the page cache.
  class File : public storage::WalFile {
   public:
    File(CrashEnv* env, std::string path)
        : env_(env), path_(std::move(path)) {}

    Status Append(std::string_view data) override {
      if (env_->NextOp(nullptr, data.size()) != Action::kExecute) {
        return Status::OK();
      }
      pending_.append(data.data(), data.size());
      return Status::OK();
    }

    Status Sync() override { return Flush(/*syncable=*/true); }
    Status Close() override { return Flush(/*syncable=*/false); }

   private:
    Status Flush(bool syncable) {
      int64_t op = 0;
      switch (env_->NextOp(&op)) {
        case Action::kExecute:
          PersistPrefix(pending_.size());
          break;
        case Action::kTear:
          if (syncable) {
            // Seed-and-op-derived torn length in [0, |pending|]: zero
            // models "fsync never reached the platter", full models
            // "data hit disk, the ack did not".
            Rng rng(env_->torn_seed_ ^
                    (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(op + 1)));
            PersistPrefix(static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(pending_.size()))));
          }
          break;
        case Action::kSwallow:
          break;  // buffer lost
      }
      pending_.clear();
      return Status::OK();
    }

    void PersistPrefix(size_t n) {
      if (n == 0) return;
      const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
      if (fd < 0) {
        ADD_FAILURE() << "CrashEnv: cannot persist to " << path_;
        return;
      }
      size_t off = 0;
      while (off < n) {
        const ssize_t w = ::write(fd, pending_.data() + off, n - off);
        if (w <= 0) {
          ADD_FAILURE() << "CrashEnv: short write to " << path_;
          break;
        }
        off += static_cast<size_t>(w);
      }
      ::close(fd);
    }

    CrashEnv* const env_;
    const std::string path_;
    std::string pending_;
  };

  /// Counts one operation and decides its fate. `op_out` (may be null)
  /// receives the operation's index, for torn-length derivation;
  /// `append_bytes` is the size of an Append, counted if it executes.
  Action NextOp(int64_t* op_out, size_t append_bytes = 0) {
    std::lock_guard<std::mutex> l(mu_);
    const int64_t k = op_count_++;
    if (op_out != nullptr) *op_out = k;
    if (dead_) return Action::kSwallow;
    if (trip_at_ >= 0 && k == trip_at_) {
      dead_ = true;
      return style_ == Style::kTorn ? Action::kTear : Action::kSwallow;
    }
    bytes_appended_ += append_bytes;
    return Action::kExecute;
  }

  mutable std::mutex mu_;
  int64_t op_count_ = 0;
  uint64_t bytes_appended_ = 0;
  int64_t trip_at_ = -1;
  Style style_ = Style::kDropTail;
  uint64_t torn_seed_ = 0;
  bool dead_ = false;
};

/// Fresh private directory under the test temp root.
inline std::string MakeTempDir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + "dc_" + tag + "_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr) << "mkdtemp " << tmpl;
  return tmpl;
}

inline void RemoveDirRecursive(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Byte-identical copy of a durability directory (for fuzzing many
/// corruptions of one pristine state).
inline void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
  EXPECT_FALSE(ec) << "copy " << from << " -> " << to << ": " << ec.message();
}

}  // namespace testutil
}  // namespace dc

#endif  // DATACELL_TESTS_CRASH_UTIL_H_
