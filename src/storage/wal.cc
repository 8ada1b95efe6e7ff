// Copyright 2026 The DataCell Authors.

#include "storage/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/string_util.h"

namespace dc {
namespace storage {

// The codec writes fixed-width values with memcpy: the on-disk format is
// little-endian.
static_assert(std::endian::native == std::endian::little,
              "the WAL codec assumes a little-endian host");

namespace {

/// Records larger than this are treated as corruption (a torn length
/// field must not trigger a gigabyte allocation).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/// Bytes of the [u32 len][u32 crc] frame header.
constexpr size_t kFrameHeaderBytes = 8;

/// Parent directory of `path` ("." when there is no separator), for the
/// directory fsyncs that make renames and file creations durable.
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

/// Slicing-by-8 tables: t[0] is the classic bytewise table, t[k][i] the
/// CRC of byte i followed by k zero bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

uint32_t LoadU32(const void* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const Crc32Tables& t = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = LoadU32(p) ^ c;
    const uint32_t hi = LoadU32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --------------------------------------------------------------------------
// Default (real filesystem) environment.
// --------------------------------------------------------------------------

namespace {

class PosixWalFile : public WalFile {
 public:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  ~PosixWalFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(
            StrFormat("wal write failed: %s", std::strerror(errno)));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(
          StrFormat("wal fsync failed: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return Status::Internal(
          StrFormat("wal close failed: %s", std::strerror(errno)));
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixWalEnv : public WalEnv {
 public:
  Result<std::unique_ptr<WalFile>> Open(const std::string& path,
                                        bool truncate) override {
    int flags = O_CREAT | O_WRONLY | O_APPEND;
    if (truncate) flags |= O_TRUNC;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::Internal(
          StrFormat("open %s failed: %s", path.c_str(), std::strerror(errno)));
    }
    return {std::make_unique<PosixWalFile>(fd)};
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal(StrFormat("rename %s -> %s failed: %s",
                                        from.c_str(), to.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(StrFormat("unlink %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::Internal(StrFormat("open dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::Internal(StrFormat("fsync dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t len) override {
    if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
      return Status::Internal(StrFormat("truncate %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDirs(const std::string& path) override {
    for (size_t i = 1; i <= path.size(); ++i) {
      if (i < path.size() && path[i] != '/') continue;
      const std::string partial = path.substr(0, i);
      if (partial.empty() || partial == "/") continue;
      if (::mkdir(partial.c_str(), 0755) == 0) {
        // The new entry lives in the parent; fsync it so the directory
        // itself survives power loss.
        DC_RETURN_NOT_OK(SyncDir(DirName(partial)));
      } else if (errno != EEXIST) {
        return Status::Internal(StrFormat("mkdir %s failed: %s",
                                          partial.c_str(),
                                          std::strerror(errno)));
      }
    }
    return Status::OK();
  }
};

}  // namespace

WalEnv* WalEnv::Default() {
  static PosixWalEnv* env = new PosixWalEnv();
  return env;
}

// --------------------------------------------------------------------------
// Encoder / decoder.
// --------------------------------------------------------------------------

void WalEncoder::PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }

void WalEncoder::PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }

void WalEncoder::PutF64(double v) { PutBytes(&v, sizeof(v)); }

void WalEncoder::PutStr(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

void WalEncoder::PutBytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

uint8_t WalDecoder::GetU8() {
  if (!ok_ || pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint32_t WalDecoder::GetU32() {
  const std::string_view b = GetBytes(sizeof(uint32_t));
  return ok_ ? LoadU32(b.data()) : 0;
}

uint64_t WalDecoder::GetU64() {
  const std::string_view b = GetBytes(sizeof(uint64_t));
  uint64_t v = 0;
  if (ok_) std::memcpy(&v, b.data(), sizeof(v));
  return v;
}

double WalDecoder::GetF64() {
  const uint64_t bits = GetU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return ok_ ? v : 0.0;
}

std::string WalDecoder::GetStr() {
  const uint32_t n = GetU32();
  return std::string(GetBytes(n));
}

std::string_view WalDecoder::GetBytes(size_t n) {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

// --------------------------------------------------------------------------
// Column codec.
// --------------------------------------------------------------------------

namespace {

/// Encoded size of one column (EncodeBat's output), so a batch record is
/// built in one exactly-sized buffer.
size_t EncodedBatBytes(const Bat& b) {
  const uint64_t n = b.size();
  size_t bytes = 1 + 8 + 1 + (b.has_nulls() ? n : 0);
  switch (b.type()) {
    case TypeId::kBool:
      return bytes + n;
    case TypeId::kI64:
    case TypeId::kTs:
    case TypeId::kF64:
      return bytes + 8 * n;
    case TypeId::kStr:
      for (uint64_t i = 0; i < n; ++i) bytes += 4 + b.StrAt(i).size();
      return bytes;
  }
  return bytes;
}

/// Bulk-decodes `n` fixed-width values (no NULLs) into a fresh column.
template <typename T>
std::vector<T> GetArray(WalDecoder& dec, uint64_t n) {
  const std::string_view raw = dec.GetBytes(n * sizeof(T));
  std::vector<T> v(dec.ok() ? n : 0);
  if (!v.empty()) std::memcpy(v.data(), raw.data(), raw.size());
  return v;
}

}  // namespace

void EncodeBat(WalEncoder& enc, const Bat& b) {
  const uint64_t n = b.size();
  enc.PutU8(static_cast<uint8_t>(b.type()));
  enc.PutU64(n);
  const bool nulls = b.has_nulls();
  enc.PutU8(nulls ? 1 : 0);
  if (nulls) {
    for (uint64_t i = 0; i < n; ++i) enc.PutU8(b.IsNull(i) ? 1 : 0);
  }
  // NULL rows hold the type's zero in the typed payload, so the bulk
  // copies write exactly what a per-row encoding would.
  switch (b.type()) {
    case TypeId::kBool:
      enc.PutBytes(b.BoolData().data(), n);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      enc.PutBytes(b.I64Data().data(), n * sizeof(int64_t));
      break;
    case TypeId::kF64:
      enc.PutBytes(b.F64Data().data(), n * sizeof(double));
      break;
    case TypeId::kStr:
      for (uint64_t i = 0; i < n; ++i) enc.PutStr(b.StrAt(i));
      break;
  }
}

Result<BatPtr> DecodeBat(WalDecoder& dec) {
  const uint8_t type_raw = dec.GetU8();
  const uint64_t n = dec.GetU64();
  const bool nulls = dec.GetU8() != 0;
  if (!dec.ok() || type_raw > static_cast<uint8_t>(TypeId::kTs)) {
    return Status::ParseError("wal: malformed column header");
  }
  if (n > kMaxRecordBytes) {
    return Status::ParseError("wal: implausible column length");
  }
  const TypeId type = static_cast<TypeId>(type_raw);
  if (!nulls && type != TypeId::kStr) {
    BatPtr out;
    switch (type) {
      case TypeId::kBool: {
        std::vector<uint8_t> v = GetArray<uint8_t>(dec, n);
        for (uint8_t& x : v) x = x != 0;
        out = Bat::MakeBool(std::move(v));
        break;
      }
      case TypeId::kI64:
        out = Bat::MakeI64(GetArray<int64_t>(dec, n));
        break;
      case TypeId::kTs:
        out = Bat::MakeTs(GetArray<int64_t>(dec, n));
        break;
      case TypeId::kF64:
        out = Bat::MakeF64(GetArray<double>(dec, n));
        break;
      case TypeId::kStr:
        break;
    }
    if (!dec.ok()) return Status::ParseError("wal: truncated column payload");
    return out;
  }
  std::vector<uint8_t> null_flags;
  if (nulls) {
    const std::string_view raw = dec.GetBytes(n);
    if (!dec.ok()) return Status::ParseError("wal: truncated column payload");
    null_flags.assign(raw.begin(), raw.end());
  }
  BatPtr out = Bat::MakeEmpty(type);
  for (uint64_t i = 0; i < n && dec.ok(); ++i) {
    if (nulls && null_flags[i]) {
      // Consume the zero payload the encoder wrote, then append NULL.
      switch (type) {
        case TypeId::kBool:
          dec.GetU8();
          break;
        case TypeId::kI64:
        case TypeId::kTs:
          dec.GetI64();
          break;
        case TypeId::kF64:
          dec.GetF64();
          break;
        case TypeId::kStr:
          dec.GetStr();
          break;
      }
      out->AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool:
        out->AppendBool(dec.GetU8() != 0);
        break;
      case TypeId::kI64:
      case TypeId::kTs:
        out->AppendI64(dec.GetI64());
        break;
      case TypeId::kF64:
        out->AppendF64(dec.GetF64());
        break;
      case TypeId::kStr:
        out->AppendStr(dec.GetStr());
        break;
    }
  }
  if (!dec.ok()) return Status::ParseError("wal: truncated column payload");
  return out;
}

// --------------------------------------------------------------------------
// Record codecs. Every payload starts with its WalRecordType byte.
// --------------------------------------------------------------------------

namespace {

WalEncoder Typed(WalRecordType t) {
  WalEncoder enc;
  enc.PutU8(static_cast<uint8_t>(t));
  return enc;
}

Result<WalDecoder> BodyDecoder(const WalRecord& rec, WalRecordType want) {
  if (rec.type != want) return Status::ParseError("wal: record type mismatch");
  return WalDecoder(rec.body);
}

/// Encoded size of a kBatch payload, type byte included.
size_t BatchPayloadBytes(const std::vector<BatPtr>& cols) {
  size_t bytes = 1 + 8 + 8 + 8 + 4;
  for (const BatPtr& c : cols) bytes += EncodedBatBytes(*c);
  return bytes;
}

/// Appends a kBatch payload, type byte first, to `enc`.
void PutBatch(WalEncoder& enc, uint64_t ordinal, uint64_t begin_seq,
              uint64_t rows, const std::vector<BatPtr>& cols) {
  enc.PutU8(static_cast<uint8_t>(WalRecordType::kBatch));
  enc.PutU64(ordinal);
  enc.PutU64(begin_seq);
  enc.PutU64(rows);
  enc.PutU32(static_cast<uint32_t>(cols.size()));
  for (const BatPtr& c : cols) EncodeBat(enc, *c);
}

/// `record` is kFrameHeaderBytes of room followed by a payload: writes
/// the [u32 len][u32 crc] frame header into that room.
void FillFrameHeader(std::string& record) {
  const uint32_t header[2] = {
      static_cast<uint32_t>(record.size() - kFrameHeaderBytes),
      Crc32(record.data() + kFrameHeaderBytes,
            record.size() - kFrameHeaderBytes)};
  static_assert(sizeof(header) == kFrameHeaderBytes);
  std::memcpy(record.data(), header, sizeof(header));
}

}  // namespace

std::string EncodeReset(const WalReset& r) {
  WalEncoder enc = Typed(WalRecordType::kReset);
  enc.PutU64(r.start_seq);
  enc.PutU64(r.next_ordinal);
  enc.PutI64(r.watermark);
  enc.PutU8(r.sealed ? 1 : 0);
  return enc.Take();
}

std::string EncodeBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                        const std::vector<BatPtr>& cols) {
  WalEncoder enc;
  enc.Reserve(BatchPayloadBytes(cols));
  PutBatch(enc, ordinal, begin_seq, rows, cols);
  return enc.Take();
}

std::string EncodeHeartbeat(int64_t ts) {
  WalEncoder enc = Typed(WalRecordType::kHeartbeat);
  enc.PutI64(ts);
  return enc.Take();
}

std::string EncodeSeal() { return Typed(WalRecordType::kSeal).Take(); }

std::string EncodeStatement(std::string_view sql) {
  WalEncoder enc = Typed(WalRecordType::kStatement);
  enc.PutStr(sql);
  return enc.Take();
}

std::string EncodeSubmit(const WalSubmit& s) {
  WalEncoder enc = Typed(WalRecordType::kSubmit);
  enc.PutU64(s.token);
  enc.PutStr(s.sql);
  enc.PutU8(s.mode);
  enc.PutStr(s.name);
  enc.PutU32(static_cast<uint32_t>(s.origins.size()));
  for (uint64_t o : s.origins) enc.PutU64(o);
  enc.PutU64(s.batch_cursor);
  enc.PutStr(s.node_label);
  enc.PutU64(s.node_origin);
  return enc.Take();
}

std::string EncodeRemove(uint64_t token) {
  WalEncoder enc = Typed(WalRecordType::kRemove);
  enc.PutU64(token);
  return enc.Take();
}

Result<WalReset> DecodeReset(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kReset));
  WalReset r;
  r.start_seq = dec.GetU64();
  r.next_ordinal = dec.GetU64();
  r.watermark = dec.GetI64();
  r.sealed = dec.GetU8() != 0;
  if (!dec.ok()) return Status::ParseError("wal: malformed reset record");
  return r;
}

Result<WalBatch> DecodeBatch(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kBatch));
  WalBatch b;
  b.ordinal = dec.GetU64();
  b.begin_seq = dec.GetU64();
  b.rows = dec.GetU64();
  const uint32_t ncols = dec.GetU32();
  if (!dec.ok() || ncols > 4096) {
    return Status::ParseError("wal: malformed batch header");
  }
  b.cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    DC_ASSIGN_OR_RETURN(BatPtr col, DecodeBat(dec));
    if (col->size() != b.rows) {
      return Status::ParseError("wal: batch column row-count mismatch");
    }
    b.cols.push_back(std::move(col));
  }
  if (!dec.Done()) return Status::ParseError("wal: trailing batch bytes");
  return b;
}

Result<int64_t> DecodeHeartbeat(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kHeartbeat));
  const int64_t ts = dec.GetI64();
  if (!dec.ok()) return Status::ParseError("wal: malformed heartbeat");
  return ts;
}

Result<std::string> DecodeStatement(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kStatement));
  std::string sql = dec.GetStr();
  if (!dec.ok()) return Status::ParseError("wal: malformed statement record");
  return sql;
}

Result<WalSubmit> DecodeSubmit(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kSubmit));
  WalSubmit s;
  s.token = dec.GetU64();
  s.sql = dec.GetStr();
  s.mode = dec.GetU8();
  s.name = dec.GetStr();
  const uint32_t n = dec.GetU32();
  if (!dec.ok() || n > 4096) {
    return Status::ParseError("wal: malformed submit record");
  }
  s.origins.reserve(n);
  for (uint32_t i = 0; i < n; ++i) s.origins.push_back(dec.GetU64());
  s.batch_cursor = dec.GetU64();
  s.node_label = dec.GetStr();
  s.node_origin = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed submit record");
  return s;
}

Result<uint64_t> DecodeRemove(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kRemove));
  const uint64_t token = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed remove record");
  return token;
}

// --------------------------------------------------------------------------
// File scan.
// --------------------------------------------------------------------------

namespace {

/// Reads up to `n` bytes at `offset` of `in` into `out` (fewer at the
/// end of the file).
void ReadAt(std::ifstream& in, uint64_t offset, size_t n, std::string* out) {
  out->resize(n);
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(out->data(), static_cast<std::streamsize>(n));
  out->resize(static_cast<size_t>(in.gcount()));
}

Status NotFound(const std::string& path) {
  return Status::NotFound(StrFormat("wal file %s not found", path.c_str()));
}

/// Parses the record framed at `pos` of `data`; nullopt when the frame
/// is short, implausible, or fails its checksum.
std::optional<std::string_view> FramedPayload(std::string_view data,
                                              size_t pos) {
  if (data.size() - pos < kFrameHeaderBytes) return std::nullopt;
  const uint32_t len = LoadU32(data.data() + pos);
  const uint32_t crc = LoadU32(data.data() + pos + 4);
  if (len == 0 || len > kMaxRecordBytes ||
      len > data.size() - pos - kFrameHeaderBytes) {
    return std::nullopt;
  }
  const std::string_view payload = data.substr(pos + kFrameHeaderBytes, len);
  if (Crc32(payload.data(), payload.size()) != crc) return std::nullopt;
  return payload;
}

WalRecord ToRecord(std::string_view payload) {
  WalRecord rec;
  rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(payload[0]));
  rec.body = std::string(payload.substr(1));
  return rec;
}

bool HasMagic(std::string_view data) {
  return data.size() >= sizeof(kWalMagic) &&
         std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) == 0;
}

}  // namespace

std::string FrameRecord(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.resize(kFrameHeaderBytes);
  out.append(payload);
  FillFrameHeader(out);
  return out;
}

Result<WalScan> ReadWalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return NotFound(path);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::Internal(
        StrFormat("wal file %s: size unknown", path.c_str()));
  }
  std::string data;
  ReadAt(in, 0, static_cast<size_t>(size), &data);
  WalScan scan;
  if (!HasMagic(data)) {
    scan.valid_bytes = 0;
    scan.clean_tail = data.empty();
    return scan;
  }
  size_t pos = sizeof(kWalMagic);
  scan.valid_bytes = pos;
  while (pos < data.size()) {
    const std::optional<std::string_view> payload = FramedPayload(data, pos);
    if (!payload) break;
    scan.records.push_back(ToRecord(*payload));
    pos += kFrameHeaderBytes + payload->size();
    scan.valid_bytes = pos;
  }
  scan.clean_tail = scan.valid_bytes == data.size();
  return scan;
}

Result<std::optional<WalRecord>> ReadWalHead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return NotFound(path);
  std::string data;
  ReadAt(in, 0, sizeof(kWalMagic) + kFrameHeaderBytes, &data);
  if (!HasMagic(data) ||
      data.size() < sizeof(kWalMagic) + kFrameHeaderBytes) {
    return std::optional<WalRecord>();
  }
  const uint32_t len = LoadU32(data.data() + sizeof(kWalMagic));
  if (len == 0 || len > kMaxRecordBytes) return std::optional<WalRecord>();
  std::string rest;
  ReadAt(in, data.size(), len, &rest);
  data += rest;
  const std::optional<std::string_view> payload =
      FramedPayload(data, sizeof(kWalMagic));
  if (!payload) return std::optional<WalRecord>();
  return std::optional<WalRecord>(ToRecord(*payload));
}

// --------------------------------------------------------------------------
// Basket-log segments.
// --------------------------------------------------------------------------

std::string WalSegmentPath(const std::string& dir, const std::string& stream,
                           uint64_t number) {
  return StrFormat("%s/%s.%llu.wal", dir.c_str(), stream.c_str(),
                   static_cast<unsigned long long>(number));
}

Result<WalSegmentListing> ListWalSegments(const std::string& dir,
                                          const std::string& stream) {
  WalSegmentListing out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return out;
    return Status::Internal(
        StrFormat("opendir %s failed: %s", dir.c_str(), std::strerror(errno)));
  }
  const std::string prefix = stream + ".";
  constexpr std::string_view kSuffix = ".wal";
  while (const dirent* ent = ::readdir(d)) {
    const std::string_view name(ent->d_name);
    if (name == stream + ".wal") {
      out.legacy = true;
      continue;
    }
    if (name.size() <= prefix.size() + kSuffix.size() ||
        name.substr(0, prefix.size()) != prefix ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    const std::string_view digits = name.substr(
        prefix.size(), name.size() - prefix.size() - kSuffix.size());
    if (digits.size() > 19 ||
        !std::all_of(digits.begin(), digits.end(),
                     [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    out.numbers.push_back(std::stoull(std::string(digits)));
  }
  ::closedir(d);
  std::sort(out.numbers.begin(), out.numbers.end());
  return out;
}

// --------------------------------------------------------------------------
// WalWriter.
// --------------------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalEnv* env,
                                                   std::string path,
                                                   FsyncPolicy policy,
                                                   int fsync_interval,
                                                   WalCounters counters) {
  bool fresh = !env->FileExists(path);
  if (!fresh) {
    // Drop a corrupt tail so new records extend the valid prefix. The
    // scan reads the real file: anything a simulated crash never
    // persisted is (correctly) not there.
    Result<WalScan> scan = ReadWalFile(path);
    if (scan.ok()) {
      if (scan.value().valid_bytes == 0) {
        fresh = true;  // no valid magic — rewrite from scratch
      } else if (!scan.value().clean_tail) {
        DC_RETURN_NOT_OK(env->TruncateFile(path, scan.value().valid_bytes));
      }
    } else {
      fresh = true;
    }
  }
  std::unique_ptr<WalWriter> w(new WalWriter(env, "", "", std::move(path),
                                             policy, fsync_interval,
                                             std::move(counters)));
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> file,
                      env->Open(w->path_, /*truncate=*/fresh));
  {
    MutexLock lock(w->mu_);
    w->file_ = std::move(file);
    if (fresh) {
      DC_RETURN_NOT_OK(
          w->file_->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
    }
  }
  if (fresh) {
    // A freshly created log is durable only once its directory ENTRY is:
    // fsyncing the file alone does not survive power loss of the parent.
    DC_RETURN_NOT_OK(env->SyncDir(DirName(w->path_)));
  }
  return w;
}

Result<std::unique_ptr<WalWriter>> WalWriter::CreateSegmented(
    WalEnv* env, std::string dir, std::string stream, uint64_t number,
    const WalReset& head, FsyncPolicy policy, int fsync_interval,
    WalCounters counters) {
  const std::string path = WalSegmentPath(dir, stream, number);
  std::unique_ptr<WalWriter> w(new WalWriter(env, std::move(dir),
                                             std::move(stream), "", policy,
                                             fsync_interval,
                                             std::move(counters)));
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> file,
                      env->Open(path, /*truncate=*/true));
  {
    MutexLock lock(w->mu_);
    w->file_ = std::move(file);
    w->segments_.push_back(WalSegment{number, head.start_seq, false, false});
    DC_RETURN_NOT_OK(
        w->file_->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
    DC_RETURN_NOT_OK(w->AppendLocked(FrameRecord(EncodeReset(head)),
                                     /*durable=*/false));
    DC_RETURN_NOT_OK(w->SyncLocked());
  }
  DC_RETURN_NOT_OK(env->SyncDir(w->dir_));
  return w;
}

Result<std::unique_ptr<WalWriter>> WalWriter::ResumeSegmented(
    WalEnv* env, std::string dir, std::string stream,
    std::vector<WalSegment> segments, FsyncPolicy policy, int fsync_interval,
    WalCounters counters) {
  if (segments.empty()) {
    return Status::InvalidArgument("ResumeSegmented needs a segment");
  }
  std::unique_ptr<WalWriter> w(new WalWriter(env, std::move(dir),
                                             std::move(stream), "", policy,
                                             fsync_interval,
                                             std::move(counters)));
  DC_ASSIGN_OR_RETURN(
      std::unique_ptr<WalFile> file,
      env->Open(WalSegmentPath(w->dir_, w->stream_, segments.back().number),
                /*truncate=*/false));
  MutexLock lock(w->mu_);
  w->file_ = std::move(file);
  w->segments_ = std::move(segments);
  return w;
}

Status WalWriter::AppendLocked(std::string_view record, bool durable) {
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  DC_RETURN_NOT_OK(file_->Append(record));
  ++unsynced_;
  if (counters_.records) counters_.records->Add(1);
  if (counters_.bytes) counters_.bytes->Add(record.size());
  if (!durable) return Status::OK();
  switch (policy_) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kAlways:
      DC_RETURN_NOT_OK(SyncLocked());
      break;
    case FsyncPolicy::kInterval:
      if (unsynced_ >= fsync_interval_) DC_RETURN_NOT_OK(SyncLocked());
      break;
  }
  return Status::OK();
}

Status WalWriter::Append(std::string_view payload) {
  // Framed (and checksummed) before the lock: one buffer, one write.
  const std::string record = FrameRecord(payload);
  MutexLock lock(mu_);
  if (!segments_.empty()) segments_.back().past_head = true;
  return AppendLocked(record, /*durable=*/true);
}

Status WalWriter::AppendBatch(uint64_t ordinal, uint64_t begin_seq,
                              uint64_t rows, const std::vector<BatPtr>& cols) {
  // Encoded right behind room for its frame header: the payload is
  // never copied into a second buffer.
  WalEncoder enc;
  enc.Reserve(kFrameHeaderBytes + BatchPayloadBytes(cols));
  enc.PutU64(0);  // frame header, filled in below
  PutBatch(enc, ordinal, begin_seq, rows, cols);
  std::string record = enc.Take();
  FillFrameHeader(record);
  MutexLock lock(mu_);
  if (!segments_.empty()) {
    WalSegment& seg = segments_.back();
    seg.past_head = true;
    seg.end_seq = begin_seq + rows;
    seg.empty_batch_at_end = rows == 0;
  }
  return AppendLocked(record, /*durable=*/true);
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  if (retired_ != nullptr) {
    // The previous segment first: the log must never hold durable
    // records in a segment after one whose tail is still volatile.
    DC_RETURN_NOT_OK(retired_->Sync());
    DC_RETURN_NOT_OK(retired_->Close());
    retired_ = nullptr;
    if (counters_.syncs) counters_.syncs->Add(1);
  }
  DC_RETURN_NOT_OK(file_->Sync());
  unsynced_ = 0;
  if (counters_.syncs) counters_.syncs->Add(1);
  return Status::OK();
}

Result<std::unique_ptr<WalFile>> WalWriter::PrepareNextSegment() {
  uint64_t number = 0;
  {
    MutexLock lock(mu_);
    if (segments_.empty()) {
      return Status::Internal("rotation of a single-file log");
    }
    if (!segments_.back().past_head) return std::unique_ptr<WalFile>();
    number = segments_.back().number + 1;
  }
  // Callers serialize rotations (the engine rotates only inside
  // Checkpoint), so the number cannot change while no lock is held here.
  DC_ASSIGN_OR_RETURN(
      std::unique_ptr<WalFile> next,
      env_->Open(WalSegmentPath(dir_, stream_, number), /*truncate=*/true));
  DC_RETURN_NOT_OK(
      next->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
  DC_RETURN_NOT_OK(next->Sync());
  DC_RETURN_NOT_OK(env_->SyncDir(dir_));
  return next;
}

Status WalWriter::SwitchSegment(std::unique_ptr<WalFile> next,
                                const WalReset& head) {
  const std::string record = FrameRecord(EncodeReset(head));
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  if (retired_ != nullptr) {
    return Status::Internal("wal rotation before the last one was synced");
  }
  const WalSegment last = segments_.back();
  if (head.start_seq != last.end_seq) {
    return Status::Internal(StrFormat(
        "wal rotation of %s: head starts at %llu, segment ends at %llu",
        stream_.c_str(), static_cast<unsigned long long>(head.start_seq),
        static_cast<unsigned long long>(last.end_seq)));
  }
  if (unsynced_ > 0) {
    retired_ = std::move(file_);
  } else {
    DC_RETURN_NOT_OK(file_->Close());
  }
  file_ = std::move(next);
  segments_.push_back(WalSegment{last.number + 1, head.start_seq, false,
                                 false});
  return AppendLocked(record, /*durable=*/false);
}

Status WalWriter::DropSegmentsBelow(uint64_t horizon) {
  std::vector<uint64_t> drop;
  {
    MutexLock lock(mu_);
    // Never the current segment, nor one whose tail is not yet synced.
    const size_t keep = retired_ != nullptr ? 2 : 1;
    size_t n = 0;
    while (n + keep < segments_.size() && segments_[n].Below(horizon)) ++n;
    for (size_t i = 0; i < n; ++i) drop.push_back(segments_[i].number);
    segments_.erase(segments_.begin(), segments_.begin() + n);
  }
  if (drop.empty()) return Status::OK();
  for (uint64_t number : drop) {
    DC_RETURN_NOT_OK(env_->RemoveFile(WalSegmentPath(dir_, stream_, number)));
  }
  DC_RETURN_NOT_OK(env_->SyncDir(dir_));
  if (counters_.truncations) counters_.truncations->Add(drop.size());
  return Status::OK();
}

}  // namespace storage
}  // namespace dc
