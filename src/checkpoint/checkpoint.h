// Checkpoint subsystem: versioned, CRC-guarded state snapshots.
//
// A checkpoint captures the complete sharded-sim state at a quiescent barrier
// (docs/ROBUSTNESS.md#checkpointrestore): every stateful component writes a
// named, length-prefixed, CRC32C-guarded section through a CheckpointWriter
// and restores it through a CheckpointReader. A checkpoint on disk is a
// directory of files — one per shard, so restore parallelizes naturally, plus
// one global file and a manifest — committed with an atomic directory rename
// so a crash mid-write can never corrupt the newest good checkpoint.
//
// Corruption policy: a truncated file, a flipped byte (CRC mismatch), an
// unknown format version, or a config-hash mismatch is a clean error Status,
// never a crash and never a partial restore; resume falls back to the newest
// checkpoint in the directory that validates end to end.
#ifndef RPCSCOPE_SRC_CHECKPOINT_CHECKPOINT_H_
#define RPCSCOPE_SRC_CHECKPOINT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/wire/checksum.h"

namespace rpcscope {

// File header constants. Bump kCheckpointFormatVersion whenever any
// component's section layout changes: restore rejects other versions outright
// (resuming across layouts would silently diverge digests, which is strictly
// worse than re-running).
inline constexpr uint32_t kCheckpointMagic = 0x54504b43;  // "CKPT" little-endian.
// v2: policy engine sections, client colocated-bypass fields, StreamStat
// colocated aggregates.
// v3: dropped the client's and server's device-cycle totals and accelerator
// pool sections, the metrics section's gauge and distribution lists, three
// fields that only ever held one value (the "sim" queue-kind byte, the
// "shard" has-sink and "rpc_system" has-hub flags), and two constant words
// from the mini-fleet's config hash.
// v4: dropped the client section's policy-version word (the client resolves
// the policy snapshot on every call, so it tracks no version), and the policy
// timeline's content hash covers four MethodPolicy fields with
// service-keyed overrides.
inline constexpr uint32_t kCheckpointFormatVersion = 4;

// Serializes state into an in-memory, section-framed image and commits it to
// disk atomically. All scalars are little-endian fixed width; doubles are
// IEEE-754 bit patterns (bit-exact round trip — checkpoints must restore the
// run, not an approximation of it).
//
// Usage: BeginSection("sim"); Write...; EndSection(); ...; Commit(path).
// Writes outside a section are a caller bug (CHECK).
//
// The writer hashes each byte it is given at most once. Section CRCs and the
// whole-file CRC (crc32c(), the manifest's entry) are built by CRC32C
// combination, and a ChecksummedBytes field arrives with its CRC, so its
// bytes are copied once and never hashed here at all.
class CheckpointWriter {
 public:
  CheckpointWriter();

  void BeginSection(std::string_view name);
  void EndSection();

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteBool(bool v);
  void WriteDouble(double v);
  void WriteString(std::string_view s);
  void WriteBytes(const std::vector<uint8_t>& bytes);
  // The same field as WriteBytes(head + tail.bytes()), without building the
  // concatenation or hashing the tail (a batch header before cached,
  // checksummed records).
  void WriteBytes(const std::vector<uint8_t>& head, const ChecksummedBytes& tail);

  // A copy of the framed file image (header + completed sections). Must not
  // be inside an open section.
  std::vector<uint8_t> buffer() const;
  // Size and CRC32C of that image, without building it.
  uint64_t size() const;
  uint32_t crc32c() const;

  // Writes the image to `path` via a temporary file + rename, so readers
  // never observe a half-written checkpoint file.
  [[nodiscard]] Status Commit(const std::string& path) const;

 private:
  // Folds the open section's payload bytes not yet hashed (the last segment
  // from pending_payload_ on) into section_crc_.
  void HashPendingPayload();

  // The image, in order. Fields append to the last segment; each
  // ChecksummedBytes tail gets a segment of its own, copied in once at its
  // final size and never appended to, so it never moves.
  std::vector<std::vector<uint8_t>> segments_;
  uint32_t file_crc_ = 0;  // CRC32C of the image through the last EndSection.
  bool in_section_ = false;
  // The open section's frame (name length, name, payload length) sits in one
  // segment: its index, the frame's first byte, and the length field that
  // EndSection patches.
  size_t frame_segment_ = 0;
  size_t frame_start_ = 0;
  size_t length_slot_ = 0;
  size_t pending_payload_ = 0;
  uint64_t payload_size_ = 0;  // Payload bytes of the open section in section_crc_.
  uint32_t section_crc_ = 0;
};

// Bounds-checked reader over a checkpoint file image. Read errors are sticky:
// after the first failure every Read returns a zero value and the error
// surfaces from LeaveSection()/Complete() as a clean Status — restore code can
// read a whole section linearly and check once.
class CheckpointReader {
 public:
  // Validates the header (magic, format version). The reader owns the bytes.
  [[nodiscard]] static Result<CheckpointReader> FromBytes(std::vector<uint8_t> bytes);
  [[nodiscard]] static Result<CheckpointReader> FromFile(const std::string& path);

  // Opens the next section, which must carry exactly `name` (sections are
  // always written and read in the same order), and verifies its CRC32C
  // before any field is parsed.
  [[nodiscard]] Status EnterSection(std::string_view name);
  // Closes the current section, verifying the payload was consumed exactly
  // and no sticky read error occurred.
  [[nodiscard]] Status LeaveSection();

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  bool ReadBool();
  double ReadDouble();
  std::string ReadString();
  std::vector<uint8_t> ReadBytes();

  // True when every section has been consumed.
  bool AtEnd() const { return cursor_ == bytes_.size(); }
  // Verifies the file was consumed exactly (no trailing garbage) and no
  // sticky error is pending.
  [[nodiscard]] Status Complete() const;
  const Status& status() const { return status_; }

 private:
  explicit CheckpointReader(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  bool CanRead(size_t n, const char* what);

  std::vector<uint8_t> bytes_;
  size_t cursor_ = 0;
  bool in_section_ = false;
  size_t section_end_ = 0;  // One past the open section's payload.
  Status status_;
};

class Rng;
class LogHistogram;

// Field-level helpers for the one state shape every layer carries: a seeded
// Rng stream mid-sequence. Writes/reads the full Rng::State (xoshiro lanes +
// cached gaussian) inside the caller's current section.
void WriteRngState(CheckpointWriter& w, const Rng& rng);
void ReadRngState(CheckpointReader& r, Rng& rng);

// Same for LogHistogram: full State (options + buckets + moments) inside the
// caller's current section. ReadHistogramState fails if the saved bucket
// layout is inconsistent with the saved options.
void WriteHistogramState(CheckpointWriter& w, const LogHistogram& histogram);
[[nodiscard]] Status ReadHistogramState(CheckpointReader& r, LogHistogram& histogram);

// ---------------------------------------------------------------------------
// Checkpoint directories: ckpt-<epoch> under a store root.
// ---------------------------------------------------------------------------

// Per-file integrity record in the manifest.
struct CheckpointFileEntry {
  std::string name;
  uint64_t size = 0;
  uint32_t crc32c = 0;
};

// The manifest commits the checkpoint's identity: which run configuration it
// belongs to (config_hash folds every digest-relevant option), which epoch
// barrier it captured, and the exact size + CRC of every member file.
// RPCSCOPE_CHECKPOINTED(WriteTo, RestoreFrom)
struct CheckpointManifest {
  uint64_t config_hash = 0;
  uint64_t epoch = 0;      // Epoch barriers completed when the snapshot was taken.
  int64_t sim_horizon = 0;  // Virtual-time horizon of the run (SimTime ns; validation aid).
  uint32_t num_shards = 0;
  std::vector<CheckpointFileEntry> files;

  void WriteTo(CheckpointWriter& w) const;
  [[nodiscard]] Status RestoreFrom(CheckpointReader& r);
};

// One checkpoint being assembled. Files land in `<root>/ckpt-<epoch>.tmp/`;
// Commit() writes the manifest last and renames the directory to its final
// `ckpt-<epoch>` name — the rename is the commit point.
class CheckpointSet {
 public:
  // `root` is the checkpoint store directory (created if absent).
  CheckpointSet(std::string root, uint64_t epoch);

  // Writes one member file into the staging directory and records it in the
  // manifest. `name` must be unique within the checkpoint.
  [[nodiscard]] Status AddFile(const std::string& name, const CheckpointWriter& contents);

  // Seals the checkpoint: manifest written, staging directory renamed into
  // place. After Commit() the checkpoint is durable and complete-or-absent.
  [[nodiscard]] Status Commit(uint64_t config_hash, int64_t sim_horizon,
                              uint32_t num_shards);

  const std::string& staging_dir() const { return staging_dir_; }
  const std::string& final_dir() const { return final_dir_; }

 private:
  std::string root_;
  uint64_t epoch_;
  std::string staging_dir_;
  std::string final_dir_;
  CheckpointManifest manifest_;
  bool committed_ = false;
};

// Reads + fully validates a committed checkpoint directory: manifest parses,
// config hash matches, and every member file is present with matching size
// and CRC32C. Any failure is a descriptive error Status.
[[nodiscard]] Result<CheckpointManifest> ValidateCheckpoint(const std::string& ckpt_dir,
                                                            uint64_t config_hash);

// Committed checkpoint directories under `root`, ascending by epoch. Staging
// (`.tmp`) directories and unrelated entries are ignored. Deterministic: the
// listing is sorted, never filesystem-order.
std::vector<std::string> ListCheckpoints(const std::string& root);

// Newest checkpoint under `root` that passes full validation, or NotFound.
// Invalid/corrupt checkpoints are skipped (newest-first) — a flipped byte in
// the latest snapshot costs one epoch of progress, not the run.
[[nodiscard]] Result<std::string> NewestValidCheckpoint(const std::string& root,
                                                        uint64_t config_hash);

// Deletes committed checkpoints beyond the newest `keep` (and any stale
// staging directories), oldest first. keep <= 0 keeps everything.
[[nodiscard]] Status ApplyRetention(const std::string& root, int keep);

// Epoch encoded in a checkpoint directory name, or -1 if `name` is not a
// committed checkpoint directory name.
int64_t CheckpointEpochFromName(std::string_view name);

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_CHECKPOINT_CHECKPOINT_H_
