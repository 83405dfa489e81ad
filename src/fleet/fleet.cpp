#include "fleet/fleet.h"

#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/model_io.h"
#include "obs/fleet_metrics.h"

namespace orco::fleet {

namespace {

/// Microseconds demote() waits for in-flight submits to clear before
/// aborting (the fast path's inflight window is a few instructions, so
/// this only trips when a submit thread is descheduled mid-window).
constexpr std::uint64_t kDemoteDrainUs = 200000;

}  // namespace

EdgeFleet::EdgeFleet(const FleetConfig& config)
    : config_(config),
      residency_(config.warm_capacity),
      cold_(config.cold_dir) {
  ORCO_CHECK(config.replicas > 0, "a fleet needs at least one cell");
  ORCO_CHECK(config.warm_capacity > 0,
             "warm_capacity 0 could never serve anything");
  cells_.reserve(config.replicas);
  for (std::size_t i = 0; i < config.replicas; ++i) {
    auto cell = std::make_unique<Cell>();
    if (config_.trainer_threads > 0) {
      train::TrainerConfig trainer_config = config_.trainer;
      trainer_config.worker_threads = config_.trainer_threads;
      cell->trainer = std::make_unique<train::TrainerRuntime>(trainer_config);
      cell->registry = cell->trainer->registry();
    } else {
      cell->registry = std::make_shared<train::ModelRegistry>();
    }
    serve::ServeConfig serve_config = config_.serve;
    serve_config.model_registry = cell->registry;
    cell->runtime = std::make_unique<serve::ServerRuntime>(serve_config);
    cells_.push_back(std::move(cell));
  }
}

EdgeFleet::~EdgeFleet() { shutdown(); }

void EdgeFleet::start() {
  ORCO_CHECK(!stopped_.load(), "cannot restart a shut-down EdgeFleet");
  if (started_.exchange(true)) return;
  for (auto& cell : cells_) {
    if (cell->trainer != nullptr) cell->trainer->start();
    cell->runtime->start();
  }
}

void EdgeFleet::shutdown() {
  if (stopped_.exchange(true)) return;
  accepting_.store(false, std::memory_order_release);
  for (auto& cell : cells_) {
    // Trainers first so their final publishes land before serving drains.
    if (cell->trainer != nullptr) cell->trainer->shutdown();
    cell->runtime->shutdown();
  }
}

void EdgeFleet::register_tenant(ClusterId id) {
  {
    common::WriterMutexLock lock(tenants_mu_);
    ORCO_CHECK(tenants_.find(id) == tenants_.end(),
               "tenant " << id << " already registered with the fleet");
    tenants_.emplace(id, std::make_unique<TenantState>());
  }
  registered_.fetch_add(1, std::memory_order_relaxed);
  refresh_population_gauges();
}

EdgeFleet::TenantState* EdgeFleet::find_tenant(ClusterId id) const {
  common::ReaderMutexLock lock(tenants_mu_);
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::future<serve::DecodeResponse> EdgeFleet::immediate(
    serve::ResponseStatus status, std::string detail) {
  std::promise<serve::DecodeResponse> promise;
  serve::DecodeResponse response;
  response.status = status;
  response.detail = std::move(detail);
  promise.set_value(std::move(response));
  return promise.get_future();
}

std::future<serve::DecodeResponse> EdgeFleet::submit(ClusterId id,
                                                     Tensor latent) {
  if (!accepting_.load(std::memory_order_acquire)) {
    return immediate(serve::ResponseStatus::kShutdown);
  }
  TenantState* const t = find_tenant(id);
  if (t == nullptr) {
    return immediate(serve::ResponseStatus::kUnknownCluster);
  }
  // ORCO_HOT_PATH BEGIN (fleet route-and-submit fast path: fixed-hash
  // route + residency touch + the inflight/demoting store-load fence — a
  // handful of atomics, no lock, no allocation. The inflight increment
  // must happen before the serving/demoting loads (both seq_cst): either
  // this submit sees a demotion and diverts, or the demoter's drain wait
  // sees this submit.)
  const std::uint32_t cell_index = owner_of(id);
  t->last_touch.store(residency_.tick(), std::memory_order_relaxed);
  t->inflight.fetch_add(1, std::memory_order_seq_cst);
  const bool fast = t->serving.load(std::memory_order_seq_cst) &&
                    !t->demoting.load(std::memory_order_seq_cst);
  // ORCO_HOT_PATH END
  serve::ServerRuntime& runtime = *cells_[cell_index]->runtime;
  if (fast) {
    // Holding the inflight claim across the enqueue pins the tenant's
    // registration: demotion cannot pass its drain wait until the request
    // is safely in the cell's queue (where the demoter's sentinel barrier
    // flushes behind it).
    auto future = runtime.submit(id, std::move(latent));
    t->inflight.fetch_sub(1, std::memory_order_seq_cst);
    return future;
  }
  t->inflight.fetch_sub(1, std::memory_order_seq_cst);
  // Slow path: the tenant is cold, mid-wake, or mid-demotion. Make it warm
  // (single-flight) and retry; a demotion racing in between just sends us
  // around again.
  for (;;) {
    if (!accepting_.load(std::memory_order_acquire)) {
      return immediate(serve::ResponseStatus::kShutdown);
    }
    try {
      ensure_warm(id, *t);
    } catch (const std::exception& e) {
      return immediate(serve::ResponseStatus::kInternalError, e.what());
    }
    t->inflight.fetch_add(1, std::memory_order_seq_cst);
    const bool ready = t->serving.load(std::memory_order_seq_cst) &&
                       !t->demoting.load(std::memory_order_seq_cst);
    if (ready) {
      auto future = runtime.submit(id, std::move(latent));
      t->inflight.fetch_sub(1, std::memory_order_seq_cst);
      return future;
    }
    t->inflight.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void EdgeFleet::warm(ClusterId id) {
  TenantState* const t = find_tenant(id);
  ORCO_CHECK(t != nullptr, "tenant " << id << " is not registered");
  ensure_warm(id, *t);
}

bool EdgeFleet::resident(ClusterId id) const {
  const TenantState* const t = find_tenant(id);
  return t != nullptr && t->serving.load(std::memory_order_acquire);
}

void EdgeFleet::ensure_warm(ClusterId id, TenantState& t) {
  {
    common::MutexLock lock(t.mu);
    bool coalesced = false;
    for (;;) {
      if (t.warm) return;
      if (!t.waking) break;
      if (!coalesced) {
        // This waker arrived while another thread's wake was in flight —
        // it will ride that load instead of issuing its own.
        coalesced = true;
        wake_coalesced_.fetch_add(1, std::memory_order_relaxed);
        obs::fleet_metrics().wake_coalesced->inc();
      }
      t.cv.wait(lock.native());
    }
    // A woken waiter that finds the tenant neither warm nor waking (the
    // previous wake failed) falls through here and takes the wake over.
    t.waking = true;
  }
  common::Stopwatch timer;
  std::exception_ptr error;
  try {
    admit(id);
    activate(id, t);
  } catch (...) {
    // activate() never consumed the admission slot (add_warm is its last
    // fallible-free step), so hand the reservation back.
    residency_.release();
    error = std::current_exception();
  }
  if (error == nullptr) {
    // Open the fast path before releasing the waiters so they don't spin
    // through a warm-but-not-serving window.
    t.serving.store(true, std::memory_order_seq_cst);
  }
  {
    common::MutexLock lock(t.mu);
    t.waking = false;
    if (error == nullptr) t.warm = true;
  }
  t.cv.notify_all();
  if (error != nullptr) std::rethrow_exception(error);
  const double us = timer.seconds() * 1e6;
  cold_wake_hist_.record(us);
  obs::fleet_metrics().cold_wake_us->record(us);
}

void EdgeFleet::activate(ClusterId id, TenantState& t) {
  const std::uint32_t cell_index = owner_of(id);
  Cell& cell = *cells_[cell_index];
  core::SystemConfig system_config = config_.system;
  // Distinct deterministic initial weights per tenant.
  system_config.orco.seed =
      common::SplitMix64(system_config.orco.seed ^ id).next();
  auto system = std::make_shared<core::OrcoDcsSystem>(system_config);
  bool loaded = false;
  if (cold_.contains(id)) {
    const ColdRecord record = cold_.load(id);
    nn::load_params(system->aggregator().encoder(), record.encoder_params);
    nn::load_params(system->edge().decoder(), record.decoder_params);
    // Continue the decoder generation sequence where the demoted tenant
    // left off, so post-reactivation publishes stay strictly monotonic
    // against anything a client may have cached.
    system->edge().set_model_version(record.model_version);
    loaded = true;
  }
  // Read before the trainer can see the system: a fine-tune job submitted
  // right after registration must count as a change to write back.
  const std::uint64_t durable_version = system->model_version();
  // Either way the tenant's first snapshot is live in the cell registry
  // before the submit fast path opens.
  if (cell.trainer != nullptr) {
    cell.trainer->register_tenant(id, system);  // publishes the snapshot
  } else {
    cell.registry->publish(id, train::export_snapshot(*system));
  }
  cell.runtime->register_cluster(id, system);
  bool demoted_before = false;
  {
    common::MutexLock lock(t.mu);
    t.system = system;
    t.durable_version = durable_version;
    demoted_before = t.demoted;
  }
  residency_.add_warm(id);
  if (loaded || demoted_before) {
    cold_wakes_.fetch_add(1, std::memory_order_relaxed);
    obs::fleet_metrics().cold_wakes->inc();
  } else {
    cold_builds_.fetch_add(1, std::memory_order_relaxed);
  }
  refresh_population_gauges();
}

bool EdgeFleet::demote(ClusterId id) {
  TenantState* const t = find_tenant(id);
  if (t == nullptr) return false;
  common::Stopwatch timer;
  common::MutexLock lock(t->mu);
  if (!t->warm || t->waking) return false;
  Cell& cell = *cells_[owner_of(id)];
  t->demoting.store(true, std::memory_order_seq_cst);
  const auto abort_demotion = [&]() {
    t->demoting.store(false, std::memory_order_seq_cst);
    demotion_aborts_.fetch_add(1, std::memory_order_relaxed);
    obs::fleet_metrics().demotion_aborts->inc();
    return false;
  };
  // Phase 1 — fence the fast path: after the demoting store above, every
  // new submit diverts to the slow path (and blocks on t->mu, which we
  // hold); wait out the handful already between their increment and the
  // queue hand-off.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(kDemoteDrainUs);
  while (t->inflight.load(std::memory_order_seq_cst) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) return abort_demotion();
    std::this_thread::yield();
  }
  // Phase 2 — flush the tenant's queue lane. Lanes are per-tenant FIFO, so
  // a sentinel decode answered kOk proves every earlier request was
  // answered too; kShed means the lane is still loaded — yield to traffic.
  if (cell.runtime->running()) {
    const std::size_t latent_dim = t->system->config().orco.latent_dim;
    std::future<serve::DecodeResponse> barrier = cell.runtime->submit(
        id, Tensor({1, latent_dim}));
    if (barrier.get().status != serve::ResponseStatus::kOk) {
      return abort_demotion();
    }
  } else if (const std::optional<std::size_t> home =
                 cell.runtime->shard_of(id);
             home && cell.runtime->shard(*home).queue().size(id) > 0) {
    return abort_demotion();
  }
  // Phase 3 — detach training; refused unless the tenant is quiescent.
  if (cell.trainer != nullptr && !cell.trainer->unregister_tenant(id)) {
    return abort_demotion();
  }
  // Phase 4 — write back. Traffic is fenced, the lane is flushed and the
  // trainer detached: this thread is the only toucher of the system. An
  // unchanged tenant's durable state already reproduces it, so only a
  // tenant whose generation moved on pays for a record.
  core::OrcoDcsSystem& system = *t->system;
  if (system.model_version() > t->durable_version) {
    ColdRecord record;
    record.model_version = system.model_version();
    record.encoder_params = nn::save_params(system.aggregator().encoder());
    record.decoder_params = nn::save_params(system.edge().decoder());
    try {
      cold_.save(id, record);
    } catch (const std::exception& e) {
      // The tenant's only up-to-date copy is the live system: keep it warm.
      // Re-registering publishes nothing (the registry already holds this
      // generation); the trainer's per-tenant drift state starts afresh.
      ORCO_LOG_ERROR("fleet: demotion of tenant " << id
                     << " aborted, cold write failed: " << e.what());
      if (cell.trainer != nullptr) {
        cell.trainer->register_tenant(id, t->system);
      }
      return abort_demotion();
    }
  }
  // Phase 5 — evict derived state: registry slot (shards finish in-flight
  // batches on their pinned snapshots), runtime registration + queue lane,
  // and the system itself (prepacked panels, caches, optimizer state).
  cell.registry->remove(id);
  cell.runtime->unregister_cluster(id);
  t->system.reset();
  t->warm = false;
  t->demoted = true;
  // serving must drop before demoting: the fast path re-opens the moment
  // demoting clears, and it must find the gate closed.
  t->serving.store(false, std::memory_order_seq_cst);
  t->demoting.store(false, std::memory_order_seq_cst);
  residency_.remove_warm(id);
  demotions_.fetch_add(1, std::memory_order_relaxed);
  obs::fleet_metrics().demotions->inc();
  const double us = timer.seconds() * 1e6;
  demote_hist_.record(us);
  obs::fleet_metrics().demote_us->record(us);
  refresh_population_gauges();
  return true;
}

void EdgeFleet::admit(ClusterId id) {
  // Admission control: a wake takes its residency slot *before*
  // materializing anything, so the warm set never exceeds capacity — even
  // transiently, with every client thread waking a different tenant at
  // once. When the set is full, evict the LRU victim first; a victim that
  // is busy (inflight claim, mid-wake) is skipped and the sweep retried.
  // If nothing is evictable for an extended stretch (every warm tenant
  // pinned by a training job, say), availability wins: force the slot and
  // run over capacity until the next demotion succeeds.
  if (residency_.try_reserve()) return;
  common::Stopwatch waited;
  const double deadline_s =
      4.0 * static_cast<double>(kDemoteDrainUs) * 1e-6;
  while (!residency_.try_reserve()) {
    if (!evict_one(id)) {
      if (waited.seconds() > deadline_s) {
        residency_.force_reserve();
        capacity_overrides_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
  }
}

bool EdgeFleet::evict_one(ClusterId except) {
  const std::vector<ClusterId> victims = residency_.victims(
      residency_.warm_count(), [this](ClusterId vid) {
        const TenantState* const vt = find_tenant(vid);
        return vt == nullptr
                   ? std::uint64_t{0}
                   : vt->last_touch.load(std::memory_order_relaxed);
      });
  for (const ClusterId vid : victims) {
    if (vid == except) continue;
    if (demote(vid)) return true;
  }
  return false;
}

FleetStats EdgeFleet::stats() const {
  FleetStats s;
  s.registered = registered_.load(std::memory_order_relaxed);
  s.resident = residency_.warm_count();
  s.cold_wakes = cold_wakes_.load(std::memory_order_relaxed);
  s.cold_builds = cold_builds_.load(std::memory_order_relaxed);
  s.wake_coalesced = wake_coalesced_.load(std::memory_order_relaxed);
  s.demotions = demotions_.load(std::memory_order_relaxed);
  s.demotion_aborts = demotion_aborts_.load(std::memory_order_relaxed);
  s.capacity_overrides = capacity_overrides_.load(std::memory_order_relaxed);
  return s;
}

void EdgeFleet::refresh_population_gauges() {
  const double registered =
      static_cast<double>(registered_.load(std::memory_order_relaxed));
  const double resident = static_cast<double>(residency_.warm_count());
  obs::FleetMetrics& metrics = obs::fleet_metrics();
  metrics.tenants_registered->set(registered);
  metrics.tenants_resident->set(resident);
  metrics.tenants_cold->set(registered - resident);
}

}  // namespace orco::fleet
