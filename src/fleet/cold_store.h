// ColdStore — the fleet's on-disk cold tier for demoted tenants.
//
// A demoted tenant's serving state collapses to one record: the encoder +
// decoder weights (nn::save_params blobs) and the decoder generation
// counter. This record is the repository's one persisted model format.
// Everything else — registry slot, queue lane, prepacked weight panels — is
// derived state that reactivation rebuilds. The fleet writes back: a record
// is written only when a tenant changed since it was woken, and a tenant
// without one is in its template state. Records are written crash-safely
// (temp file, fsync, atomic rename, directory fsync —
// common::write_file_atomic), so a crash mid-demotion leaves either the
// previous record or the complete new one, never a torn file; a
// torn/truncated read throws instead of yielding garbage weights, and
// nn::load_params refuses a malformed blob before it writes any weight.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace orco::fleet {

using ClusterId = std::uint64_t;

/// Everything needed to rebuild a tenant's serving state from disk.
struct ColdRecord {
  std::uint64_t model_version = 1;
  std::vector<std::byte> encoder_params;  // nn::save_params framing
  std::vector<std::byte> decoder_params;
};

/// A record as ColdStore::load read it: the file's bytes, read once, and
/// the two weight blobs viewed in place for nn::load_params. Move-only, so
/// the views never outlive or lose the buffer they point into (a moved
/// vector keeps its storage).
struct LoadedRecord {
  LoadedRecord() = default;
  LoadedRecord(LoadedRecord&&) = default;
  LoadedRecord& operator=(LoadedRecord&&) = default;
  LoadedRecord(const LoadedRecord&) = delete;
  LoadedRecord& operator=(const LoadedRecord&) = delete;

  std::uint64_t model_version = 1;
  std::span<const std::byte> encoder_params;  // views into `file`
  std::span<const std::byte> decoder_params;
  std::vector<std::byte> file;
};

class ColdStore {
 public:
  /// Creates `dir` (and parents) if missing.
  explicit ColdStore(std::string dir);

  /// Durably and atomically writes the tenant's record; throws (leaving
  /// any previous record intact) when the write fails. Concurrent saves of
  /// the *same* tenant must be externally serialized — the fleet holds the
  /// tenant's mutex across demotion.
  void save(ClusterId id, const ColdRecord& record);

  /// Reads and validates a record; throws on missing/torn/mismatched files
  /// (magic, format, tenant id, both length prefixes, trailing bytes).
  LoadedRecord load(ClusterId id) const;

  bool contains(ClusterId id) const;
  /// Deletes the record; false when none existed.
  bool remove(ClusterId id);

  std::string path_for(ClusterId id) const;
  const std::string& dir() const noexcept { return dir_; }

  /// Lifetime counters of successful saves and loads (the tests pin the
  /// write-back rule and single-flight wakes with them).
  std::uint64_t saves() const noexcept {
    return saves_.load(std::memory_order_relaxed);
  }
  std::uint64_t loads() const noexcept {
    return loads_.load(std::memory_order_relaxed);
  }

 private:
  std::string dir_;
  std::atomic<std::uint64_t> saves_{0};
  mutable std::atomic<std::uint64_t> loads_{0};
};

}  // namespace orco::fleet
