#include "train/model_registry.h"

#include "common/check.h"

namespace orco::train {

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::entry(ClusterId cluster) {
  common::MutexLock lock(mu_);
  auto& slot = entries_[cluster];
  if (slot == nullptr) slot = std::make_shared<Entry>();
  return slot;
}

std::shared_ptr<ModelRegistry::Entry> ModelRegistry::find(
    ClusterId cluster) const {
  common::MutexLock lock(mu_);
  const auto it = entries_.find(cluster);
  return it == entries_.end() ? nullptr : it->second;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current(
    ClusterId cluster) const {
  const auto slot = find(cluster);
  return slot == nullptr ? nullptr : slot->load();
}

std::uint64_t ModelRegistry::publish(ClusterId cluster,
                                     std::shared_ptr<ModelSnapshot> snapshot) {
  ORCO_CHECK(snapshot != nullptr, "cannot publish a null snapshot");
  ORCO_CHECK(snapshot->decoder != nullptr,
             "snapshot for cluster " << cluster << " has no decoder");
  ORCO_CHECK(snapshot->latent_dim > 0 && snapshot->output_dim > 0,
             "snapshot dims must be positive");
  // Compile once per published version, outside the lock: the plan is what
  // shards execute, and packing the weights here means the first post-swap
  // decode pays no packing cost. It packs for the publisher's current
  // backend, the process default shards share.
  snapshot->plan = nn::InferPlan::compile(*snapshot->decoder);
  std::uint64_t version = 0;
  {
    // Serialize publishers per registry (publishes are rare — one per
    // fine-tune job) so the version check and the swap are one step;
    // readers never take this lock.
    common::MutexLock lock(mu_);
    auto& slot = entries_[cluster];
    if (slot == nullptr) slot = std::make_shared<Entry>();
    const auto previous = slot->load();
    ORCO_CHECK(previous == nullptr || snapshot->version > previous->version,
               "non-monotonic publish for cluster "
                   << cluster << ": version " << snapshot->version
                   << " after " << previous->version);
    snapshot->published_at = std::chrono::steady_clock::now();
    version = snapshot->version;
    slot->store(std::move(snapshot));
    slot->swaps_.fetch_add(1, std::memory_order_relaxed);
    total_published_.fetch_add(1, std::memory_order_relaxed);
  }
  return version;
}

bool ModelRegistry::remove(ClusterId cluster) {
  common::MutexLock lock(mu_);
  return entries_.erase(cluster) > 0;
}

std::size_t ModelRegistry::size() const {
  common::MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace orco::train
