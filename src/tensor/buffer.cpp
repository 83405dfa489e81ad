// The allocation policy of tensor/buffer.h. This is the one TU under src/
// that maps memory (tools/check_invariants.py, rule 6).
#include "tensor/buffer.h"

#include <atomic>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ORCO_BUFFER_USE_NEW 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || !defined(__linux__)
#define ORCO_BUFFER_USE_NEW 1
#endif

#ifndef ORCO_BUFFER_USE_NEW
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace orco::tensor {

namespace {

std::atomic<std::uint64_t> g_mappings{0};

#ifndef ORCO_BUFFER_USE_NEW

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t mapped_length(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

// Maps len + (2 MiB - page) bytes, keeps the 2 MiB-aligned len bytes
// inside and unmaps the head and tail around them.
void* map_large(std::size_t bytes) {
  const std::size_t len = mapped_length(bytes);
  const std::size_t span = len + kLargeBufferBytes - page_bytes();
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned =
      (start + kLargeBufferBytes - 1) / kLargeBufferBytes * kLargeBufferBytes;
  if (aligned > start) munmap(raw, aligned - start);
  const std::uintptr_t tail = start + span - (aligned + len);
  if (tail > 0) munmap(reinterpret_cast<void*>(aligned + len), tail);
  void* p = reinterpret_cast<void*>(aligned);
#ifdef MADV_HUGEPAGE
  // Refused on a THP `never` host: the mapping keeps its 4 KiB pages.
  (void)madvise(p, len, MADV_HUGEPAGE);
#endif
  g_mappings.fetch_add(1, std::memory_order_relaxed);
  return p;
}

#endif  // ORCO_BUFFER_USE_NEW

}  // namespace

void* allocate_buffer(std::size_t bytes) {
  if (bytes < kLargeBufferBytes) {
    return ::operator new(bytes, std::align_val_t{kBufferAlign});
  }
#ifdef ORCO_BUFFER_USE_NEW
  return ::operator new(bytes, std::align_val_t{kLargeBufferBytes});
#else
  return map_large(bytes);
#endif
}

void free_buffer(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kLargeBufferBytes) {
    ::operator delete(p, bytes, std::align_val_t{kBufferAlign});
    return;
  }
#ifdef ORCO_BUFFER_USE_NEW
  ::operator delete(p, bytes, std::align_val_t{kLargeBufferBytes});
#else
  munmap(p, mapped_length(bytes));
#endif
}

std::uint64_t buffer_mappings() noexcept {
  return g_mappings.load(std::memory_order_relaxed);
}

}  // namespace orco::tensor
