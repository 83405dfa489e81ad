#include "tensor/workspace.h"

#include <algorithm>

#include "common/check.h"

namespace orco::tensor {

float* Workspace::alloc(std::size_t n) {
  const std::size_t need = aligned(std::max<std::size_t>(n, 1));
  while (block_ < blocks_.size()) {
    Buffer<float>& b = blocks_[block_];
    if (offset_ + need <= b.size()) {
      float* p = b.data() + offset_;
      offset_ += need;
      note_high_water();
      return p;
    }
    // The current block's tail cannot fit this allocation. Skip forward
    // (the wasted tail is charged to used(), so the post-reset coalesced
    // slab is certainly large enough to fit the same sequence).
    if (block_ + 1 < blocks_.size()) {
      ++block_;
      offset_ = 0;
      continue;
    }
    break;
  }
  // Overflow: open a fresh block. Earlier blocks (and pointers into them)
  // stay valid until reset()/rewind(). Geometric growth bounds how many
  // times a cold arena spills before it fits its workload.
  const std::size_t grown =
      std::max({kMinBlockFloats, need, 2 * capacity()});
  blocks_.emplace_back(grown);
  block_ = blocks_.size() - 1;
  offset_ = need;
  note_high_water();
  return blocks_.back().data();
}

void Workspace::rewind(Mark m) {
  ORCO_CHECK(m.block < blocks_.size() || (m.block == 0 && m.offset == 0),
             "Workspace::rewind to a mark past the arena");
  ORCO_CHECK(m.block < block_ || (m.block == block_ && m.offset <= offset_),
             "Workspace::rewind marks must unwind LIFO");
  block_ = m.block;
  offset_ = m.offset;
}

void Workspace::reset() {
  block_ = 0;
  offset_ = 0;
  if (blocks_.size() > 1) {
    // The workload spilled: replace the block chain with one slab sized to
    // the high-water mark, so the next pass never spills again.
    const std::size_t slab = std::max(kMinBlockFloats, aligned(high_water_));
    blocks_.clear();
    reserve(slab);
  }
}

void Workspace::reserve(std::size_t floats) {
  ORCO_CHECK(used() == 0,
             "Workspace::reserve with live allocations (reset() first)");
  const std::size_t want =
      std::max(kMinBlockFloats, aligned(std::max(floats, high_water_)));
  if (blocks_.size() == 1 && blocks_.front().size() >= want) return;
  blocks_.clear();
  blocks_.emplace_back(want);
  block_ = 0;
  offset_ = 0;
}

std::size_t Workspace::capacity() const noexcept {
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.size();
  return total;
}

std::size_t Workspace::used() const noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < block_ && i < blocks_.size(); ++i) {
    total += blocks_[i].size();
  }
  return total + offset_;
}

}  // namespace orco::tensor
