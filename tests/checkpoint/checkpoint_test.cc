// Checkpoint subsystem unit tests (docs/ROBUSTNESS.md#checkpointrestore):
// the writer/reader framing round-trips bit-for-bit, and every corruption
// mode in the policy — truncation, a flipped byte, an unknown format
// version, a config-hash mismatch — is a clean error Status, never a crash
// and never a partial parse. Directory-level tests cover the atomic commit,
// newest-valid fallback, and retention.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/wire/checksum.h"

namespace rpcscope {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

CheckpointWriter SampleWriter() {
  CheckpointWriter w;
  w.BeginSection("alpha");
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteDouble(3.14159);
  w.WriteString("hello checkpoint");
  w.WriteBytes({1, 2, 3, 4, 5});
  w.EndSection();
  w.BeginSection("beta");
  w.WriteI64(99);
  w.EndSection();
  return w;
}

TEST(CheckpointFraming, RoundTripsEveryFieldType) {
  const CheckpointWriter w = SampleWriter();
  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  CheckpointReader& r = *reader;
  ASSERT_TRUE(r.EnterSection("alpha").ok());
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), 3.14159);
  EXPECT_EQ(r.ReadString(), "hello checkpoint");
  EXPECT_EQ(r.ReadBytes(), (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(r.LeaveSection().ok());
  ASSERT_TRUE(r.EnterSection("beta").ok());
  EXPECT_EQ(r.ReadI64(), 99);
  ASSERT_TRUE(r.LeaveSection().ok());
  EXPECT_TRUE(r.Complete().ok());
}

TEST(CheckpointFraming, SectionNameMismatchIsCleanError) {
  const CheckpointWriter w = SampleWriter();
  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(reader.ok());
  const Status s = reader->EnterSection("gamma");
  EXPECT_FALSE(s.ok());
}

TEST(CheckpointFraming, UnderconsumedSectionIsCleanError) {
  const CheckpointWriter w = SampleWriter();
  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->EnterSection("alpha").ok());
  reader->ReadU8();  // Leave the rest of the payload unread.
  EXPECT_FALSE(reader->LeaveSection().ok());
}

TEST(CheckpointFraming, TruncatedFileIsCleanError) {
  const CheckpointWriter w = SampleWriter();
  // Every possible truncation point: header cut, section frame cut, payload
  // cut, CRC cut. None may crash; all must surface an error by Complete().
  const std::vector<uint8_t>& full = w.buffer();
  for (size_t len = 0; len < full.size(); len += 7) {
    std::vector<uint8_t> cut(full.begin(), full.begin() + static_cast<long>(len));
    Result<CheckpointReader> reader = CheckpointReader::FromBytes(std::move(cut));
    if (!reader.ok()) {
      continue;  // Header rejected outright: fine.
    }
    bool failed = false;
    if (Status s = reader->EnterSection("alpha"); !s.ok()) {
      failed = true;
    } else {
      reader->ReadU8();
      reader->ReadU32();
      reader->ReadU64();
      reader->ReadI64();
      reader->ReadBool();
      reader->ReadDouble();
      reader->ReadString();
      reader->ReadBytes();
      failed = !reader->LeaveSection().ok() || !reader->EnterSection("beta").ok();
    }
    EXPECT_TRUE(failed || !reader->Complete().ok()) << "truncation at " << len;
  }
}

TEST(CheckpointFraming, FlippedByteFailsCrc) {
  const CheckpointWriter w = SampleWriter();
  // Flip one bit in every payload byte position in turn; the section CRC (or
  // the frame parse) must catch each one before any field is trusted.
  const std::vector<uint8_t>& full = w.buffer();
  int rejected = 0;
  for (size_t pos = 8; pos < full.size(); pos += 11) {
    std::vector<uint8_t> bad = full;
    bad[pos] ^= 0x20;
    Result<CheckpointReader> reader = CheckpointReader::FromBytes(std::move(bad));
    if (!reader.ok()) {
      ++rejected;
      continue;
    }
    bool failed = !reader->EnterSection("alpha").ok();
    if (!failed) {
      reader->ReadU8();
      reader->ReadU32();
      reader->ReadU64();
      reader->ReadI64();
      reader->ReadBool();
      reader->ReadDouble();
      reader->ReadString();
      reader->ReadBytes();
      failed = !reader->LeaveSection().ok() || !reader->EnterSection("beta").ok() ||
               (reader->ReadI64(), !reader->LeaveSection().ok()) ||
               !reader->Complete().ok();
    }
    EXPECT_TRUE(failed) << "flipped byte at " << pos << " went undetected";
    ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST(CheckpointFraming, UnknownFormatVersionRejected) {
  const CheckpointWriter w = SampleWriter();
  // Header layout: u32 magic, u32 version (little-endian). A file of the
  // previous layout is refused at its header like one of the next, before
  // any section is read.
  for (const uint32_t version : {kCheckpointFormatVersion - 1, kCheckpointFormatVersion + 1}) {
    std::vector<uint8_t> other = w.buffer();
    other[4] = static_cast<uint8_t>(version);
    Result<CheckpointReader> reader = CheckpointReader::FromBytes(std::move(other));
    ASSERT_FALSE(reader.ok()) << "version " << version;
    EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(reader.status().message().find("unsupported checkpoint format version " +
                                             std::to_string(version)),
              std::string::npos)
        << reader.status().ToString();
  }

  std::vector<uint8_t> wrong_magic = w.buffer();
  wrong_magic[0] ^= 0xff;
  EXPECT_FALSE(CheckpointReader::FromBytes(std::move(wrong_magic)).ok());
}

TEST(CheckpointFraming, CommitWritesReadableFile) {
  const std::string dir = FreshDir("ckpt_commit");
  const std::string path = dir + "/one.ckpt";
  const CheckpointWriter w = SampleWriter();
  ASSERT_TRUE(w.Commit(path).ok());
  Result<CheckpointReader> reader = CheckpointReader::FromFile(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->EnterSection("alpha").ok());
}

// Writes the same fields into `w`, passing the blob field either as a
// checksummed tail after `head` or as one plain byte vector. `lead` and
// `trail` put fields before and after it, so the blob lands at the start, in
// the middle or at the end of its section. The last section repeats the blob.
void WriteBlobSections(CheckpointWriter& w, bool checksummed, bool lead, bool trail,
                       const std::vector<uint8_t>& head, const ChecksummedBytes& blob) {
  std::vector<uint8_t> whole = head;
  whole.insert(whole.end(), blob.bytes().begin(), blob.bytes().end());
  auto write_blob = [&] {
    if (checksummed) {
      w.WriteBytes(head, blob);
    } else {
      w.WriteBytes(whole);
    }
  };
  w.BeginSection("before");
  w.WriteU64(1);
  w.EndSection();
  w.BeginSection("records");
  if (lead) {
    w.WriteU32(0xfeedface);
    w.WriteString("lead");
  }
  write_blob();
  if (trail) {
    w.WriteU64(77);
    w.WriteString("trail");
  }
  w.EndSection();
  w.BeginSection("after");
  write_blob();
  w.EndSection();
}

TEST(CheckpointFraming, ChecksummedBlobMatchesPlainBytesAnywhereInASection) {
  const std::vector<uint8_t> head = {0xb7, 0x01, 0x02};
  ChecksummedBytes blob;
  blob.Append([](std::vector<uint8_t>& out) {
    for (int i = 0; i < 1000; ++i) {
      out.push_back(static_cast<uint8_t>(i * 37 + 11));
    }
  });
  std::vector<uint8_t> whole = head;
  whole.insert(whole.end(), blob.bytes().begin(), blob.bytes().end());

  int variant = 0;
  for (const bool lead : {false, true}) {
    for (const bool trail : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "lead " << lead << " trail " << trail);
      CheckpointWriter combined;
      CheckpointWriter plain;
      WriteBlobSections(combined, /*checksummed=*/true, lead, trail, head, blob);
      WriteBlobSections(plain, /*checksummed=*/false, lead, trail, head, blob);

      // Same bytes, and a file CRC equal to hashing them.
      const std::vector<uint8_t> image = combined.buffer();
      EXPECT_EQ(image, plain.buffer());
      EXPECT_EQ(combined.size(), image.size());
      EXPECT_EQ(combined.crc32c(), Crc32c(image));
      EXPECT_EQ(plain.crc32c(), Crc32c(image));

      // Every section CRC checks out when read back.
      Result<CheckpointReader> reader = CheckpointReader::FromBytes(image);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      CheckpointReader& r = *reader;
      ASSERT_TRUE(r.EnterSection("before").ok());
      EXPECT_EQ(r.ReadU64(), 1u);
      ASSERT_TRUE(r.LeaveSection().ok());
      ASSERT_TRUE(r.EnterSection("records").ok());
      if (lead) {
        EXPECT_EQ(r.ReadU32(), 0xfeedfaceu);
        EXPECT_EQ(r.ReadString(), "lead");
      }
      EXPECT_EQ(r.ReadBytes(), whole);
      if (trail) {
        EXPECT_EQ(r.ReadU64(), 77u);
        EXPECT_EQ(r.ReadString(), "trail");
      }
      ASSERT_TRUE(r.LeaveSection().ok());
      ASSERT_TRUE(r.EnterSection("after").ok());
      EXPECT_EQ(r.ReadBytes(), whole);
      ASSERT_TRUE(r.LeaveSection().ok());
      EXPECT_TRUE(r.Complete().ok());

      // The manifest records that CRC, and the committed file validates.
      const std::string root = FreshDir("ckpt_blob_" + std::to_string(variant++));
      CheckpointSet set(root, 1);
      ASSERT_TRUE(set.AddFile("shard-0000.ckpt", combined).ok());
      ASSERT_TRUE(set.Commit(/*config_hash=*/5, /*sim_horizon=*/1000, /*num_shards=*/1).ok());
      Result<CheckpointManifest> manifest = ValidateCheckpoint(set.final_dir(), 5);
      ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
      ASSERT_EQ(manifest->files.size(), 1u);
      EXPECT_EQ(manifest->files[0].size, image.size());
      EXPECT_EQ(manifest->files[0].crc32c, Crc32c(image));
      EXPECT_EQ(ReadAll(set.final_dir() + "/shard-0000.ckpt"), image);
    }
  }
}

TEST(CheckpointHelpers, RngStateRoundTripsMidSequence) {
  Rng rng(0x5eed);
  for (int i = 0; i < 37; ++i) {
    rng.NextUint64();
  }
  rng.NextGaussian();  // Populate the cached-gaussian half of the state.
  CheckpointWriter w;
  w.BeginSection("rng");
  WriteRngState(w, rng);
  w.EndSection();

  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->EnterSection("rng").ok());
  Rng restored(1);  // Deliberately different seed; restore must overwrite.
  ReadRngState(*reader, restored);
  ASSERT_TRUE(reader->LeaveSection().ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(restored.NextUint64(), rng.NextUint64()) << "draw " << i;
  }
  EXPECT_EQ(restored.NextGaussian(), rng.NextGaussian());
}

TEST(CheckpointHelpers, HistogramStateRoundTrips) {
  LogHistogram hist({.min_value = 100, .max_value = 1000000, .buckets_per_decade = 16});
  for (int i = 1; i <= 500; ++i) {
    hist.Add(i * 311);
  }
  CheckpointWriter w;
  w.BeginSection("hist");
  WriteHistogramState(w, hist);
  w.EndSection();

  Result<CheckpointReader> reader = CheckpointReader::FromBytes(w.buffer());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->EnterSection("hist").ok());
  LogHistogram restored({.min_value = 100, .max_value = 1000000, .buckets_per_decade = 16});
  ASSERT_TRUE(ReadHistogramState(*reader, restored).ok());
  ASSERT_TRUE(reader->LeaveSection().ok());
  EXPECT_EQ(restored.count(), hist.count());
  EXPECT_EQ(restored.bucket_counts(), hist.bucket_counts());
  EXPECT_EQ(restored.Quantile(0.5), hist.Quantile(0.5));
  EXPECT_EQ(restored.Quantile(0.99), hist.Quantile(0.99));
}

// --------------------------------------------------------------------------
// Directory level: CheckpointSet, validation, fallback, retention.
// --------------------------------------------------------------------------

Status CommitOne(const std::string& root, uint64_t epoch, uint64_t config_hash) {
  CheckpointSet set(root, epoch);
  CheckpointWriter w;
  w.BeginSection("payload");
  w.WriteU64(epoch);
  w.EndSection();
  if (Status s = set.AddFile("shard-0000.ckpt", w); !s.ok()) {
    return s;
  }
  return set.Commit(config_hash, /*sim_horizon=*/1000, /*num_shards=*/1);
}

TEST(CheckpointStore, CommitValidateAndList) {
  const std::string root = FreshDir("ckpt_store");
  constexpr uint64_t kHash = 0xabcdef;
  ASSERT_TRUE(CommitOne(root, 1, kHash).ok());
  ASSERT_TRUE(CommitOne(root, 2, kHash).ok());

  const std::vector<std::string> listed = ListCheckpoints(root);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(CheckpointEpochFromName(fs::path(listed[0]).filename().string()), 1);
  EXPECT_EQ(CheckpointEpochFromName(fs::path(listed[1]).filename().string()), 2);

  Result<CheckpointManifest> manifest = ValidateCheckpoint(listed[1], kHash);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->epoch, 2u);
  EXPECT_EQ(manifest->num_shards, 1u);
  ASSERT_EQ(manifest->files.size(), 1u);
  EXPECT_EQ(manifest->files[0].name, "shard-0000.ckpt");

  // Wrong config hash: clean rejection.
  EXPECT_FALSE(ValidateCheckpoint(listed[1], kHash + 1).ok());
}

TEST(CheckpointStore, NewestValidFallsBackPastCorruption) {
  const std::string root = FreshDir("ckpt_fallback");
  constexpr uint64_t kHash = 0x1234;
  ASSERT_TRUE(CommitOne(root, 1, kHash).ok());
  ASSERT_TRUE(CommitOne(root, 2, kHash).ok());
  ASSERT_TRUE(CommitOne(root, 3, kHash).ok());

  // Pristine store: newest wins.
  Result<std::string> newest = NewestValidCheckpoint(root, kHash);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(fs::path(*newest).filename().string(), "ckpt-0000000003");

  // Flip a byte in epoch 3's member file: fallback lands on epoch 2.
  const std::string victim = *newest + "/shard-0000.ckpt";
  std::vector<uint8_t> bytes = ReadAll(victim);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  WriteAll(victim, bytes);
  newest = NewestValidCheckpoint(root, kHash);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(fs::path(*newest).filename().string(), "ckpt-0000000002");

  // Truncate epoch 2's manifest: fallback lands on epoch 1.
  const std::string manifest2 = root + "/ckpt-0000000002/manifest.ckpt";
  std::vector<uint8_t> mbytes = ReadAll(manifest2);
  ASSERT_GT(mbytes.size(), 8u);
  mbytes.resize(mbytes.size() / 2);
  WriteAll(manifest2, mbytes);
  newest = NewestValidCheckpoint(root, kHash);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(fs::path(*newest).filename().string(), "ckpt-0000000001");

  // Delete the last good one: clean NotFound, not a crash.
  fs::remove_all(root + "/ckpt-0000000001");
  newest = NewestValidCheckpoint(root, kHash);
  ASSERT_FALSE(newest.ok());
  EXPECT_EQ(newest.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStore, RetentionNeverExceedsN) {
  const std::string root = FreshDir("ckpt_retention");
  constexpr uint64_t kHash = 0x77;
  constexpr int kKeep = 2;
  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    ASSERT_TRUE(CommitOne(root, epoch, kHash).ok());
    ASSERT_TRUE(ApplyRetention(root, kKeep).ok());
    const std::vector<std::string> listed = ListCheckpoints(root);
    EXPECT_LE(listed.size(), static_cast<size_t>(kKeep))
        << "after epoch " << epoch << " the store holds " << listed.size();
  }
  // The survivors are exactly the newest two.
  const std::vector<std::string> listed = ListCheckpoints(root);
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_EQ(fs::path(listed[0]).filename().string(), "ckpt-0000000005");
  EXPECT_EQ(fs::path(listed[1]).filename().string(), "ckpt-0000000006");

  // keep <= 0 keeps everything.
  ASSERT_TRUE(ApplyRetention(root, 0).ok());
  EXPECT_EQ(ListCheckpoints(root).size(), 2u);
}

TEST(CheckpointStore, StaleStagingDirIgnoredAndPruned) {
  const std::string root = FreshDir("ckpt_staging");
  constexpr uint64_t kHash = 0x9;
  // A crash mid-write leaves a .tmp directory behind; it must never be
  // listed as a checkpoint and retention must sweep it.
  fs::create_directories(root + "/ckpt-0000000009.tmp");
  ASSERT_TRUE(CommitOne(root, 1, kHash).ok());
  EXPECT_EQ(ListCheckpoints(root).size(), 1u);
  ASSERT_TRUE(ApplyRetention(root, 1).ok());
  EXPECT_FALSE(fs::exists(root + "/ckpt-0000000009.tmp"));
  EXPECT_EQ(ListCheckpoints(root).size(), 1u);
}

TEST(CheckpointStore, EpochNameParsing) {
  EXPECT_EQ(CheckpointEpochFromName("ckpt-0000000042"), 42);
  EXPECT_EQ(CheckpointEpochFromName("ckpt-0000000042.tmp"), -1);
  EXPECT_EQ(CheckpointEpochFromName("other"), -1);
  EXPECT_EQ(CheckpointEpochFromName(""), -1);
}

}  // namespace
}  // namespace rpcscope
