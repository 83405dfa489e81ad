// Minimal binary (de)serialisation for model weights and protocol messages.
//
// Every message the orchestrator exchanges between the data aggregator and
// the edge server is serialised through these writers, so the byte counts
// recorded in the WSN transmission ledger are the true wire sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"

namespace orco::common {

/// Append-only little-endian byte buffer writer.
class ByteWriter {
 public:
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_f32(float v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  void write_f32_span(std::span<const float> vs) {
    write_u64(vs.size());
    write_raw(vs.data(), vs.size() * sizeof(float));
  }

  void write_string(const std::string& s) {
    write_u64(s.size());
    write_raw(s.data(), s.size());
  }

  /// Length-prefixed opaque blob (e.g. a nested serialised model).
  void write_bytes(std::span<const std::byte> bytes) {
    write_u64(bytes.size());
    write_raw(bytes.data(), bytes.size());
  }

  const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  void write_raw(const void* p, std::size_t n) {
    // resize+memcpy instead of insert(range): GCC 12's -Wstringop-overflow
    // misjudges the inlined range-insert when the source is a small fixed
    // POD (false "writing 8 bytes into a region of size 4"), and memcpy is
    // the same single grow-and-copy anyway. An empty span's data() may be
    // null, which memcpy must not see even for 0 bytes.
    if (n == 0) return;
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    std::memcpy(buf_.data() + off, p, n);
  }

  std::vector<std::byte> buf_;
};

/// Sequential reader over a byte buffer; throws std::invalid_argument on
/// underrun. A length prefix is checked against the bytes left before
/// anything is sized from it, so a hostile prefix costs no allocation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const std::size_t n = read_length(1);
    std::string out(n, '\0');
    read_raw(out.data(), n);
    return out;
  }

  /// A length-prefixed array of `elem_size`-byte elements (a string, a
  /// write_bytes blob, or the values write_f32_span wrote), viewed in place
  /// instead of copied. The view has no alignment: copy values out with
  /// memcpy.
  std::span<const std::byte> read_view(std::size_t elem_size) {
    return take(read_length(elem_size) * elem_size);
  }

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  T read_pod() {
    T v;
    read_raw(&v, sizeof v);
    return v;
  }

  /// A u64 count of `elem_size`-byte elements that the rest of the buffer
  /// can hold.
  std::size_t read_length(std::size_t elem_size) {
    const std::uint64_t n = read_u64();
    ORCO_CHECK(n <= remaining() / elem_size,
               "length prefix " << n << " x " << elem_size
                                << " B exceeds the " << remaining()
                                << " bytes left");
    return static_cast<std::size_t>(n);
  }

  std::span<const std::byte> take(std::size_t n) {
    ORCO_CHECK(n <= remaining(), "byte buffer underrun: want "
                                     << n << " at " << pos_ << "/"
                                     << bytes_.size());
    const std::span<const std::byte> out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void read_raw(void* p, std::size_t n) {
    const std::span<const std::byte> src = take(n);
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(p, src.data(), n);
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

/// Reads a whole file. Throws std::runtime_error on I/O failure.
std::vector<std::byte> read_file(const std::string& path);

/// Writes a whole buffer to `path + ".tmp"` in the same directory,
/// fsyncs it, renames it over `path` and fsyncs the directory, so readers
/// (and a restart after a crash) see either the old file or the complete
/// new one — never a torn prefix. Throws std::runtime_error on any failure,
/// removing the temp file first. Concurrent writers of the same path must
/// be externally serialized (the rename is atomic but the shared temp name
/// is not).
void write_file_atomic(const std::string& path,
                       std::span<const std::byte> bytes);

}  // namespace orco::common
