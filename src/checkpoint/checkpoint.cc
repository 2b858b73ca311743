#include "src/checkpoint/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "src/common/check.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/wire/checksum.h"

namespace rpcscope {
namespace {

namespace fs = std::filesystem;

constexpr char kCheckpointDirPrefix[] = "ckpt-";
constexpr char kStagingSuffix[] = ".tmp";
constexpr char kManifestFileName[] = "manifest.ckpt";

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PatchU64(std::vector<uint8_t>& out, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | p[i];
  }
  return v;
}

// One sized read of the whole file. A short (truncated) file is not an error
// here: its bytes come back and the framing or manifest check rejects them.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFoundError("cannot open " + path);
  }
  std::error_code ec;
  const uintmax_t size = fs::file_size(path, ec);  // Fails on a directory.
  if (ec) {
    return DataLossError("read error on " + path);
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (!in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size))) {
    return DataLossError("read error on " + path);
  }
  return bytes;
}

// Writes the concatenation of `segments` to `path` through `path + ".part"`
// + rename, so a crash mid-write leaves no file under the final name.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::vector<uint8_t>>& segments) {
  const std::string tmp = path + ".part";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return InternalError("cannot create " + tmp);
    }
    for (const std::vector<uint8_t>& segment : segments) {
      out.write(reinterpret_cast<const char*>(segment.data()),
                static_cast<std::streamsize>(segment.size()));
    }
    if (!out) {
      return InternalError("write failed on " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return InternalError("rename " + tmp + " -> " + path + ": " + ec.message());
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointWriter
// ---------------------------------------------------------------------------

CheckpointWriter::CheckpointWriter() : segments_(1) {
  std::vector<uint8_t>& header = segments_.back();
  AppendU32(header, kCheckpointMagic);
  AppendU32(header, kCheckpointFormatVersion);
  file_crc_ = Crc32c(header);
}

void CheckpointWriter::BeginSection(std::string_view name) {
  RPCSCOPE_CHECK(!in_section_) << "BeginSection(" << std::string(name)
                               << ") inside an open section";
  in_section_ = true;
  std::vector<uint8_t>& tail = segments_.back();
  frame_segment_ = segments_.size() - 1;
  frame_start_ = tail.size();
  AppendU32(tail, static_cast<uint32_t>(name.size()));
  tail.insert(tail.end(), name.begin(), name.end());
  length_slot_ = tail.size();
  AppendU64(tail, 0);  // Patched in EndSection.
  pending_payload_ = tail.size();
  payload_size_ = 0;
  section_crc_ = 0;
}

void CheckpointWriter::HashPendingPayload() {
  const std::vector<uint8_t>& tail = segments_.back();
  const size_t pending = tail.size() - pending_payload_;
  section_crc_ = Crc32cExtend(section_crc_, tail.data() + pending_payload_, pending);
  payload_size_ += pending;
  pending_payload_ = tail.size();
}

void CheckpointWriter::EndSection() {
  RPCSCOPE_CHECK(in_section_) << "EndSection without BeginSection";
  in_section_ = false;
  HashPendingPayload();
  // The file CRC covers the frame, then the payload (combined, not re-read),
  // then the section CRC.
  std::vector<uint8_t>& frame = segments_[frame_segment_];
  PatchU64(frame, length_slot_, payload_size_);
  file_crc_ = Crc32cExtend(file_crc_, frame.data() + frame_start_,
                           length_slot_ + 8 - frame_start_);
  file_crc_ = Crc32cCombine(file_crc_, section_crc_, payload_size_);
  std::vector<uint8_t>& tail = segments_.back();
  AppendU32(tail, section_crc_);
  file_crc_ = Crc32cExtend(file_crc_, tail.data() + tail.size() - 4, 4);
}

void CheckpointWriter::WriteU8(uint8_t v) {
  RPCSCOPE_DCHECK(in_section_);
  segments_.back().push_back(v);
}

void CheckpointWriter::WriteU32(uint32_t v) {
  RPCSCOPE_DCHECK(in_section_);
  AppendU32(segments_.back(), v);
}

void CheckpointWriter::WriteU64(uint64_t v) {
  RPCSCOPE_DCHECK(in_section_);
  AppendU64(segments_.back(), v);
}

void CheckpointWriter::WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

void CheckpointWriter::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void CheckpointWriter::WriteDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void CheckpointWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  segments_.back().insert(segments_.back().end(), s.begin(), s.end());
}

void CheckpointWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  WriteU32(static_cast<uint32_t>(bytes.size()));
  segments_.back().insert(segments_.back().end(), bytes.begin(), bytes.end());
}

void CheckpointWriter::WriteBytes(const std::vector<uint8_t>& head,
                                  const ChecksummedBytes& tail) {
  const std::vector<uint8_t>& records = tail.bytes();
  WriteU32(static_cast<uint32_t>(head.size() + records.size()));
  segments_.back().insert(segments_.back().end(), head.begin(), head.end());
  HashPendingPayload();
  section_crc_ = Crc32cCombine(section_crc_, tail.crc32c(), records.size());
  payload_size_ += records.size();
  segments_.push_back(records);
  segments_.emplace_back();
  pending_payload_ = 0;
}

std::vector<uint8_t> CheckpointWriter::buffer() const {
  std::vector<uint8_t> image;
  image.reserve(size());
  for (const std::vector<uint8_t>& segment : segments_) {
    image.insert(image.end(), segment.begin(), segment.end());
  }
  return image;
}

uint64_t CheckpointWriter::size() const {
  RPCSCOPE_CHECK(!in_section_) << "image read inside an open section";
  uint64_t total = 0;
  for (const std::vector<uint8_t>& segment : segments_) {
    total += segment.size();
  }
  return total;
}

uint32_t CheckpointWriter::crc32c() const {
  RPCSCOPE_CHECK(!in_section_) << "image read inside an open section";
  return file_crc_;
}

Status CheckpointWriter::Commit(const std::string& path) const {
  RPCSCOPE_CHECK(!in_section_) << "Commit inside an open section";
  return WriteFileAtomic(path, segments_);
}

// ---------------------------------------------------------------------------
// CheckpointReader
// ---------------------------------------------------------------------------

Result<CheckpointReader> CheckpointReader::FromBytes(std::vector<uint8_t> bytes) {
  if (bytes.size() < 8) {
    return DataLossError("checkpoint too short for header (" +
                         std::to_string(bytes.size()) + " bytes)");
  }
  const uint32_t magic = LoadU32(bytes.data());
  if (magic != kCheckpointMagic) {
    return DataLossError("bad checkpoint magic");
  }
  const uint32_t version = LoadU32(bytes.data() + 4);
  if (version != kCheckpointFormatVersion) {
    return FailedPreconditionError(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointFormatVersion) + ")");
  }
  CheckpointReader reader(std::move(bytes));
  reader.cursor_ = 8;
  return reader;
}

Result<CheckpointReader> CheckpointReader::FromFile(const std::string& path) {
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  Result<CheckpointReader> reader = FromBytes(std::move(bytes).value());
  if (!reader.ok()) {
    return Status(reader.status().code(), path + ": " + reader.status().message());
  }
  return reader;
}

Status CheckpointReader::EnterSection(std::string_view name) {
  if (!status_.ok()) {
    return status_;
  }
  RPCSCOPE_CHECK(!in_section_) << "EnterSection inside an open section";
  // Section frame: [u32 name_len][name][u64 payload_len][payload][u32 crc].
  if (bytes_.size() - cursor_ < 4) {
    return DataLossError("truncated checkpoint: no section header where \"" +
                         std::string(name) + "\" expected");
  }
  const uint32_t name_len = LoadU32(bytes_.data() + cursor_);
  if (name_len > bytes_.size() - cursor_ - 4) {
    return DataLossError("truncated checkpoint: section name overruns file");
  }
  const std::string actual(reinterpret_cast<const char*>(bytes_.data() + cursor_ + 4),
                           name_len);
  if (actual != name) {
    return DataLossError("checkpoint section mismatch: expected \"" + std::string(name) +
                         "\", found \"" + actual + "\"");
  }
  size_t at = cursor_ + 4 + name_len;
  if (bytes_.size() - at < 8) {
    return DataLossError("truncated checkpoint: section \"" + actual + "\" has no length");
  }
  const uint64_t payload_len = LoadU64(bytes_.data() + at);
  at += 8;
  if (payload_len > bytes_.size() - at || bytes_.size() - at - payload_len < 4) {
    return DataLossError("truncated checkpoint: section \"" + actual +
                         "\" payload overruns file");
  }
  const uint32_t stored_crc = LoadU32(bytes_.data() + at + payload_len);
  const uint32_t actual_crc = Crc32c(bytes_.data() + at, payload_len);
  if (stored_crc != actual_crc) {
    return DataLossError("checkpoint section \"" + actual + "\" failed CRC32C check");
  }
  in_section_ = true;
  cursor_ = at;
  section_end_ = at + payload_len;
  return Status::Ok();
}

Status CheckpointReader::LeaveSection() {
  RPCSCOPE_CHECK(in_section_) << "LeaveSection without EnterSection";
  in_section_ = false;
  if (!status_.ok()) {
    return status_;
  }
  if (cursor_ != section_end_) {
    status_ = DataLossError("checkpoint section size mismatch: " +
                            std::to_string(section_end_ - cursor_) + " bytes unread");
    return status_;
  }
  cursor_ = section_end_ + 4;  // Skip the (already verified) CRC.
  return Status::Ok();
}

bool CheckpointReader::CanRead(size_t n, const char* what) {
  if (!status_.ok()) {
    return false;
  }
  RPCSCOPE_DCHECK(in_section_) << "read outside a section";
  if (section_end_ - cursor_ < n) {
    status_ = DataLossError(std::string("checkpoint field underrun reading ") + what);
    return false;
  }
  return true;
}

uint8_t CheckpointReader::ReadU8() {
  if (!CanRead(1, "u8")) {
    return 0;
  }
  return bytes_[cursor_++];
}

uint32_t CheckpointReader::ReadU32() {
  if (!CanRead(4, "u32")) {
    return 0;
  }
  const uint32_t v = LoadU32(bytes_.data() + cursor_);
  cursor_ += 4;
  return v;
}

uint64_t CheckpointReader::ReadU64() {
  if (!CanRead(8, "u64")) {
    return 0;
  }
  const uint64_t v = LoadU64(bytes_.data() + cursor_);
  cursor_ += 8;
  return v;
}

int64_t CheckpointReader::ReadI64() { return static_cast<int64_t>(ReadU64()); }

bool CheckpointReader::ReadBool() { return ReadU8() != 0; }

double CheckpointReader::ReadDouble() {
  const uint64_t bits = ReadU64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string CheckpointReader::ReadString() {
  const uint32_t len = ReadU32();
  if (!CanRead(len, "string body")) {
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), len);
  cursor_ += len;
  return s;
}

std::vector<uint8_t> CheckpointReader::ReadBytes() {
  const uint32_t len = ReadU32();
  if (!CanRead(len, "bytes body")) {
    return {};
  }
  std::vector<uint8_t> out(bytes_.begin() + static_cast<ptrdiff_t>(cursor_),
                           bytes_.begin() + static_cast<ptrdiff_t>(cursor_ + len));
  cursor_ += len;
  return out;
}

Status CheckpointReader::Complete() const {
  if (!status_.ok()) {
    return status_;
  }
  if (in_section_) {
    return InternalError("Complete() with a section still open");
  }
  if (!AtEnd()) {
    return DataLossError("checkpoint has " + std::to_string(bytes_.size() - cursor_) +
                         " trailing bytes");
  }
  return Status::Ok();
}

void WriteRngState(CheckpointWriter& w, const Rng& rng) {
  const Rng::State state = rng.SaveState();
  for (const uint64_t lane : state.s) {
    w.WriteU64(lane);
  }
  w.WriteBool(state.has_cached_gaussian);
  w.WriteDouble(state.cached_gaussian);
}

void ReadRngState(CheckpointReader& r, Rng& rng) {
  Rng::State state;
  for (uint64_t& lane : state.s) {
    lane = r.ReadU64();
  }
  state.has_cached_gaussian = r.ReadBool();
  state.cached_gaussian = r.ReadDouble();
  if (r.status().ok()) {
    rng.RestoreState(state);  // NOLINT(rpcscope-discarded-status) Rng restore is void.
  }
}

void WriteHistogramState(CheckpointWriter& w, const LogHistogram& histogram) {
  const LogHistogram::State state = histogram.SaveState();
  w.WriteDouble(state.options.min_value);
  w.WriteDouble(state.options.max_value);
  w.WriteU32(static_cast<uint32_t>(state.options.buckets_per_decade));
  w.WriteU32(static_cast<uint32_t>(state.buckets.size()));
  for (const int64_t bucket : state.buckets) {
    w.WriteI64(bucket);
  }
  w.WriteI64(state.count);
  w.WriteDouble(state.sum);
  w.WriteDouble(state.min);
  w.WriteDouble(state.max);
}

Status ReadHistogramState(CheckpointReader& r, LogHistogram& histogram) {
  LogHistogram::State state;
  state.options.min_value = r.ReadDouble();
  state.options.max_value = r.ReadDouble();
  state.options.buckets_per_decade = static_cast<int>(r.ReadU32());
  const uint32_t buckets = r.ReadU32();
  state.buckets.reserve(buckets);
  for (uint32_t i = 0; i < buckets && r.status().ok(); ++i) {
    state.buckets.push_back(r.ReadI64());
  }
  state.count = r.ReadI64();
  state.sum = r.ReadDouble();
  state.min = r.ReadDouble();
  state.max = r.ReadDouble();
  if (!r.status().ok()) {
    return r.status();
  }
  return histogram.RestoreState(state);
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

void CheckpointManifest::WriteTo(CheckpointWriter& w) const {
  w.BeginSection("manifest");
  w.WriteU64(config_hash);
  w.WriteU64(epoch);
  w.WriteI64(sim_horizon);
  w.WriteU32(num_shards);
  w.WriteU32(static_cast<uint32_t>(files.size()));
  for (const CheckpointFileEntry& f : files) {
    w.WriteString(f.name);
    w.WriteU64(f.size);
    w.WriteU32(f.crc32c);
  }
  w.EndSection();
}

Status CheckpointManifest::RestoreFrom(CheckpointReader& r) {
  if (Status s = r.EnterSection("manifest"); !s.ok()) {
    return s;
  }
  config_hash = r.ReadU64();
  epoch = r.ReadU64();
  sim_horizon = r.ReadI64();
  num_shards = r.ReadU32();
  const uint32_t n = r.ReadU32();
  files.clear();
  for (uint32_t i = 0; i < n && r.status().ok(); ++i) {
    CheckpointFileEntry f;
    f.name = r.ReadString();
    f.size = r.ReadU64();
    f.crc32c = r.ReadU32();
    files.push_back(std::move(f));
  }
  return r.LeaveSection();
}

// ---------------------------------------------------------------------------
// CheckpointSet + directory store
// ---------------------------------------------------------------------------

namespace {

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty() || dir.back() == '/') {
    return dir + name;
  }
  return dir + "/" + name;
}

std::string CheckpointDirName(uint64_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%010llu", kCheckpointDirPrefix,
                static_cast<unsigned long long>(epoch));
  return buf;
}

}  // namespace

int64_t CheckpointEpochFromName(std::string_view name) {
  const std::string_view prefix(kCheckpointDirPrefix);
  if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
    return -1;
  }
  const std::string_view digits = name.substr(prefix.size());
  int64_t epoch = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return -1;  // Covers ".tmp" staging names and unrelated entries.
    }
    epoch = epoch * 10 + (c - '0');
  }
  return epoch;
}

CheckpointSet::CheckpointSet(std::string root, uint64_t epoch)
    : root_(std::move(root)), epoch_(epoch) {
  final_dir_ = JoinPath(root_, CheckpointDirName(epoch));
  staging_dir_ = final_dir_ + kStagingSuffix;
}

Status CheckpointSet::AddFile(const std::string& name, const CheckpointWriter& contents) {
  RPCSCOPE_CHECK(!committed_) << "AddFile after Commit";
  std::error_code ec;
  fs::create_directories(staging_dir_, ec);
  if (ec) {
    return InternalError("cannot create " + staging_dir_ + ": " + ec.message());
  }
  if (Status s = contents.Commit(JoinPath(staging_dir_, name)); !s.ok()) {
    return s;
  }
  CheckpointFileEntry entry;
  entry.name = name;
  entry.size = contents.size();
  entry.crc32c = contents.crc32c();
  manifest_.files.push_back(std::move(entry));
  return Status::Ok();
}

Status CheckpointSet::Commit(uint64_t config_hash, int64_t sim_horizon,
                             uint32_t num_shards) {
  RPCSCOPE_CHECK(!committed_) << "double Commit";
  manifest_.config_hash = config_hash;
  manifest_.epoch = epoch_;
  manifest_.sim_horizon = sim_horizon;
  manifest_.num_shards = num_shards;
  // Canonical order so two checkpoints of the same state are byte-identical.
  std::sort(manifest_.files.begin(), manifest_.files.end(),
            [](const CheckpointFileEntry& a, const CheckpointFileEntry& b) {
              return a.name < b.name;
            });
  CheckpointWriter manifest_writer;
  manifest_.WriteTo(manifest_writer);
  if (Status s = manifest_writer.Commit(JoinPath(staging_dir_, kManifestFileName));
      !s.ok()) {
    return s;
  }
  std::error_code ec;
  fs::remove_all(final_dir_, ec);  // A same-epoch leftover from a prior run.
  fs::rename(staging_dir_, final_dir_, ec);
  if (ec) {
    return InternalError("commit rename " + staging_dir_ + " -> " + final_dir_ + ": " +
                         ec.message());
  }
  committed_ = true;
  return Status::Ok();
}

Result<CheckpointManifest> ValidateCheckpoint(const std::string& ckpt_dir,
                                              uint64_t config_hash) {
  Result<CheckpointReader> reader =
      CheckpointReader::FromFile(JoinPath(ckpt_dir, kManifestFileName));
  if (!reader.ok()) {
    return reader.status();
  }
  CheckpointManifest manifest;
  if (Status s = manifest.RestoreFrom(reader.value()); !s.ok()) {
    return s;
  }
  if (Status s = reader.value().Complete(); !s.ok()) {
    return s;
  }
  if (manifest.config_hash != config_hash) {
    return FailedPreconditionError(
        ckpt_dir + ": checkpoint belongs to a different run configuration");
  }
  for (const CheckpointFileEntry& entry : manifest.files) {
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(JoinPath(ckpt_dir, entry.name));
    if (!bytes.ok()) {
      return bytes.status();
    }
    if (bytes.value().size() != entry.size) {
      return DataLossError(ckpt_dir + "/" + entry.name + ": size " +
                           std::to_string(bytes.value().size()) + " != manifest " +
                           std::to_string(entry.size));
    }
    if (Crc32c(bytes.value()) != entry.crc32c) {
      return DataLossError(ckpt_dir + "/" + entry.name + ": CRC32C mismatch");
    }
  }
  return manifest;
}

std::vector<std::string> ListCheckpoints(const std::string& root) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  // Filesystem enumeration order is non-deterministic; entries are collected
  // and sorted by epoch below, so the result is stable.
  fs::directory_iterator it(root, ec);  // NOLINT(detan-nondet-source)
  if (ec) {
    return {};
  }
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_directory(ec) || ec) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    const int64_t epoch = CheckpointEpochFromName(name);
    if (epoch >= 0) {
      found.emplace_back(epoch, entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [epoch, path] : found) {
    out.push_back(std::move(path));
  }
  return out;
}

Result<std::string> NewestValidCheckpoint(const std::string& root, uint64_t config_hash) {
  const std::vector<std::string> all = ListCheckpoints(root);
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    Result<CheckpointManifest> manifest = ValidateCheckpoint(*it, config_hash);
    if (manifest.ok()) {
      return *it;
    }
    RPCSCOPE_LOG(kWarning) << "skipping invalid checkpoint " << *it << ": "
                          << manifest.status().message();
  }
  return NotFoundError("no valid checkpoint under " + root);
}

Status ApplyRetention(const std::string& root, int keep) {
  std::error_code ec;
  // Drop any stale staging directory: it is a partial write by definition.
  fs::directory_iterator it(root, ec);  // NOLINT(detan-nondet-source) pruned set is order-independent
  if (!ec) {
    std::vector<std::string> stale;
    for (const fs::directory_entry& entry : it) {
      const std::string name = entry.path().filename().string();
      if (name.size() > 4 && name.substr(name.size() - 4) == kStagingSuffix &&
          CheckpointEpochFromName(name.substr(0, name.size() - 4)) >= 0) {
        stale.push_back(entry.path().string());
      }
    }
    std::sort(stale.begin(), stale.end());
    for (const std::string& path : stale) {
      fs::remove_all(path, ec);
    }
  }
  if (keep <= 0) {
    return Status::Ok();
  }
  std::vector<std::string> all = ListCheckpoints(root);
  while (all.size() > static_cast<size_t>(keep)) {
    // Oldest first; remove_all of a directory is not atomic, but deleting the
    // manifest-bearing directory can only invalidate the checkpoint being
    // deleted, never a newer one.
    fs::remove_all(all.front(), ec);
    if (ec) {
      return InternalError("retention: cannot remove " + all.front() + ": " +
                           ec.message());
    }
    all.erase(all.begin());
  }
  return Status::Ok();
}

}  // namespace rpcscope
