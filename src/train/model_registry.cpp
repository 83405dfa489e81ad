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
  if (snapshot->plan == nullptr) {
    // Compile once per published version, outside the lock — the plan is
    // what shards execute, so every snapshot must carry one. It packs for
    // the publisher's current backend, the process default shards share.
    snapshot->plan = nn::InferPlan::compile(*snapshot->decoder);
  }
  std::shared_ptr<const ModelSnapshot> installed;
  PublishHook hook;
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
    installed = std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
    slot->store(installed);
    slot->swaps_.fetch_add(1, std::memory_order_relaxed);
    total_published_.fetch_add(1, std::memory_order_relaxed);
    hook = publish_hook_;  // copy: the hook runs outside the lock
  }
  if (hook) hook(cluster, installed);
  return version;
}

bool ModelRegistry::remove(ClusterId cluster) {
  common::MutexLock lock(mu_);
  return entries_.erase(cluster) > 0;
}

void ModelRegistry::set_publish_hook(PublishHook hook) {
  common::MutexLock lock(mu_);
  publish_hook_ = std::move(hook);
}

std::size_t ModelRegistry::size() const {
  common::MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace orco::train
