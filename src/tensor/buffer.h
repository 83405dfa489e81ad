// Buffer — the one allocator behind every buffer the kernels stream:
// Tensor storage, PackedWeights panels and Workspace blocks.
//
// Every buffer is 64-byte aligned, so a vector load never straddles a cache
// line at a row start. A request below kLargeBufferBytes takes aligned
// operator new (the ordinary heap, no header of ours). A request of 2 MiB
// or more gets its own anonymous mapping: 2 MiB-aligned, its length rounded
// up to the page size only (never to whole huge pages, which would grow
// peak RSS), with madvise(MADV_HUGEPAGE) applied before the first touch, so
// on a transparent-huge-page host in `madvise` or `always` mode each full
// 2 MiB of it faults in as one huge page instead of 512 small ones; munmap
// releases it. On a THP `never` host the advice is refused and the mapping
// stays on 4 KiB pages: slower to fault, same values. Off Linux, and under
// AddressSanitizer (so ASan still bounds-checks every tensor), large
// requests take 2 MiB-aligned operator new instead.
//
// A large buffer therefore costs a fresh mapping, faulted in on first use.
// Hot loops must reuse such buffers, as InferContext and Workspace do
// (resize within capacity allocates nothing); no per-round buffer of the
// benchmark's shapes reaches 2 MiB. The global operator new is left alone:
// the policy covers the kernels' buffers, not the host program's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

namespace orco::tensor {

/// Alignment of every buffer.
inline constexpr std::size_t kBufferAlign = 64;
/// Requests of at least this many bytes get their own 2 MiB-aligned mapping.
inline constexpr std::size_t kLargeBufferBytes = std::size_t{2} << 20;

/// Returns `bytes` of uninitialised, kBufferAlign-aligned storage (2 MiB
/// aligned from kLargeBufferBytes up). Throws std::bad_alloc.
void* allocate_buffer(std::size_t bytes);

/// Releases a buffer; `bytes` must be the size it was allocated with.
void free_buffer(void* p, std::size_t bytes) noexcept;

/// Large-buffer mappings made so far in this process. The zero-allocation
/// tests count them beside operator new, since a mapping bypasses it.
std::uint64_t buffer_mappings() noexcept;

/// Stateless std::allocator replacement that routes through allocate_buffer.
template <typename T>
struct BufferAllocator {
  using value_type = T;

  BufferAllocator() noexcept = default;
  template <typename U>
  BufferAllocator(const BufferAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(allocate_buffer(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    free_buffer(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const BufferAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// A std::vector whose storage comes from allocate_buffer.
template <typename T>
using Buffer = std::vector<T, BufferAllocator<T>>;

}  // namespace orco::tensor
