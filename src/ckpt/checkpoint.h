// Self-describing checkpoint container.
//
// Layout (all integers little-endian):
//   magic            8 bytes  "IOSCKPT1"
//   format_version   u32      bumped on any incompatible layout change
//   config_hash      u64      fingerprint of the run configuration +
//                             workload; a resume against a different
//                             config must fail, not silently diverge
//   section_count    u32
//   per section:
//     name           u32 length + bytes
//     payload_size   u64
//     payload_crc    u32      CRC-32 of the payload bytes
//     payload        payload_size bytes
//
// Every section's CRC is verified at load time, so a torn or bit-flipped
// file surfaces as CrcError before any state is restored. Files are
// published with util::AtomicFileWriter (temp + fsync + rename), so a crash
// during a save can never leave a half-written checkpoint under the final
// name — at worst a stale *.tmpXXXXXX sibling.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace iosched::ckpt {

/// Base class for everything that can go wrong loading a checkpoint.
class CheckpointError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Structural damage: bad magic, truncation, missing section.
class FormatError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// File was written by an incompatible format version.
class VersionError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// A section's payload does not match its recorded CRC (bit rot, torn
/// write that somehow reached the final name, manual tampering).
class CrcError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// The checkpoint was taken under a different configuration or workload.
class ConfigMismatchError : public CheckpointError {
  using CheckpointError::CheckpointError;
};

inline constexpr std::string_view kMagic = "IOSCKPT1";
inline constexpr std::uint32_t kFormatVersion = 4;

/// In-memory checkpoint: named binary sections plus the config hash.
/// Built section-by-section on save; fully decoded and CRC-verified on
/// load.
class CheckpointFile {
 public:
  void SetConfigHash(std::uint64_t hash) { config_hash_ = hash; }
  std::uint64_t config_hash() const { return config_hash_; }

  void AddSection(std::string name, std::string payload);

  bool HasSection(std::string_view name) const;
  /// Throws FormatError if the section is absent.
  std::string_view Section(std::string_view name) const;

  /// Serializes to the on-disk byte layout.
  std::string Encode() const;
  /// Encode + atomic publish (temp + fsync + rename).
  void WriteAtomic(const std::string& path) const;

  /// Parses and CRC-verifies `bytes`. `context` (typically the path) is
  /// included in error messages. Throws FormatError / VersionError /
  /// CrcError.
  static CheckpointFile Decode(std::string_view bytes,
                               const std::string& context);
  /// Reads the whole file and decodes it.
  static CheckpointFile Load(const std::string& path);

 private:
  std::uint64_t config_hash_ = 0;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Checkpoint/resume knobs, filled from the [checkpoint] INI section or CLI
/// flags. Checkpointing is active when `directory` is non-empty and at
/// least one trigger is enabled.
struct Options {
  /// Where periodic checkpoints land; empty disables checkpointing.
  std::string directory;
  /// Save every N simulated seconds (<= 0 disables this trigger).
  double every_sim_seconds = 0.0;
  /// Save every N processed events (0 disables; the deterministic trigger
  /// used by resume-equivalence tests).
  std::uint64_t every_events = 0;
  /// Save every N wall-clock seconds (<= 0 disables this trigger).
  double every_wall_seconds = 0.0;
  /// Keep the newest N periodic checkpoints, pruning older ones after each
  /// successful save (<= 0 keeps everything).
  int keep_last = 3;
  /// Explicit checkpoint file to restore before running; empty = none.
  std::string resume_from;
  /// Scan `directory` for the newest valid checkpoint and resume from it
  /// (falling back to older ones on CRC/format damage). No-op when the
  /// directory holds no usable checkpoint.
  bool resume_latest = false;

  bool SavingEnabled() const {
    return !directory.empty() &&
           (every_sim_seconds > 0 || every_events > 0 ||
            every_wall_seconds > 0);
  }
};

/// "<dir>/ckpt-<seq, zero-padded>.iosckpt".
std::string CheckpointFileName(const std::string& directory,
                               std::uint64_t sequence);

/// Checkpoints in `directory`, sorted by ascending sequence number.
/// Returns empty if the directory does not exist.
std::vector<std::pair<std::uint64_t, std::string>> ListCheckpoints(
    const std::string& directory);

/// One past the highest existing sequence number (1 for an empty dir).
std::uint64_t NextSequence(const std::string& directory);

/// Removes all but the newest `keep_last` checkpoints (no-op if
/// keep_last <= 0).
void PruneOld(const std::string& directory, int keep_last);

/// Newest checkpoint in `directory` that decodes cleanly and matches
/// `expected_config_hash`; damaged or mismatched files are skipped (noted
/// in `*diagnostic` when non-null). Returns "" when none qualifies.
std::string FindLatestValid(const std::string& directory,
                            std::uint64_t expected_config_hash,
                            std::string* diagnostic = nullptr);

}  // namespace iosched::ckpt
