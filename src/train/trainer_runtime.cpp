#include "train/trainer_runtime.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "data/dataloader.h"
#include "obs/config.h"
#include "obs/trace.h"

#ifdef __linux__
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace orco::train {

namespace {

/// Niceness of a trainer thread where SCHED_IDLE is unavailable.
constexpr int kBackgroundNice = 19;

/// Drops the calling thread to background scheduling (no-op off Linux).
/// SCHED_IDLE is the real background class — the thread runs only on
/// otherwise-idle cycles and a waking decode thread preempts it
/// immediately, which is what keeps serve p99 flat while a
/// multi-millisecond training round is in flight on a shared core. Safe
/// here because trainer threads never hold a lock the serve path takes
/// (registry snapshot reads are a single atomic load). Falls back to plain
/// niceness where SCHED_IDLE is unavailable; lowering priority never needs
/// privileges.
void background_current_thread() {
#ifdef __linux__
  const sched_param param{};
  if (sched_setscheduler(static_cast<pid_t>(gettid()), SCHED_IDLE, &param) ==
      0) {
    return;
  }
  if (setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()),
                  kBackgroundNice) != 0) {
    ORCO_LOG_ERROR("could not renice trainer thread to " << kBackgroundNice);
  }
#endif
}

}  // namespace

namespace {

double seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

TrainerRuntime::Tenant::Tenant(std::shared_ptr<core::OrcoDcsSystem> sys)
    : system(std::move(sys)),
      monitor(system->config().orco.relaunch_factor,
              system->config().orco.monitor_window,
              system->config().orco.monitor_cooldown) {}

TrainerRuntime::TrainerRuntime(const TrainerConfig& config)
    : config_(config), registry_(std::make_shared<ModelRegistry>()) {
  ORCO_CHECK(config.worker_threads > 0,
             "TrainerRuntime needs at least one worker thread");
  ORCO_CHECK(config.queue_capacity > 0, "job queue capacity must be positive");
  const double duty = config.default_budget.duty_cycle;
  ORCO_CHECK(duty > 0.0 && duty <= 1.0,
             "duty cycle must be in (0, 1], got " << duty);
}

TrainerRuntime::~TrainerRuntime() { shutdown(); }

void TrainerRuntime::register_tenant(
    ClusterId cluster, std::shared_ptr<core::OrcoDcsSystem> system) {
  ORCO_CHECK(system != nullptr, "cannot register a null tenant system");
  auto tenant = std::make_unique<Tenant>(std::move(system));
  Tenant* inserted = tenant.get();
  {
    common::MutexLock lock(tenants_mu_);
    ORCO_CHECK(tenants_.emplace(cluster, std::move(tenant)).second,
               "tenant " << cluster << " already registered with the trainer");
  }
  common::MutexLock train_lock(inserted->train_mu);
  (void)export_and_publish(cluster, *inserted);
}

bool TrainerRuntime::unregister_tenant(ClusterId cluster) {
  // Lock order mu_ -> tenants_mu_ (no path takes them the other way
  // round). Holding mu_ across the erase pins the invariant: no worker can
  // pop a job for the tenant between our scan and the erase.
  common::MutexLock lock(mu_);
  if (active_jobs_.count(cluster) > 0) return false;
  for (const auto& pending : queue_) {
    if (pending.job.cluster == cluster) return false;
  }
  common::MutexLock tenants_lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  if (it == tenants_.end()) return false;
  // A drift trigger may have armed the flag but not enqueued yet (the
  // window between monitor_mu release and enqueue); refuse until it lands.
  if (it->second->drift_job_inflight.load()) return false;
  tenants_.erase(it);
  return true;
}

TrainerRuntime::Tenant* TrainerRuntime::find_tenant(ClusterId cluster) const {
  common::MutexLock lock(tenants_mu_);
  const auto it = tenants_.find(cluster);
  return it == tenants_.end() ? nullptr : it->second.get();
}

std::future<TrainResult> TrainerRuntime::reject(ClusterId cluster,
                                                JobOutcome outcome) {
  std::promise<TrainResult> promise;
  std::future<TrainResult> future = promise.get_future();
  TrainResult result;
  result.cluster = cluster;
  result.outcome = outcome;
  if (outcome == JobOutcome::kRejected) {
    jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  promise.set_value(std::move(result));
  return future;
}

std::future<TrainResult> TrainerRuntime::enqueue(TrainJob&& job) {
  PendingJob pending;
  pending.job = std::move(job);
  std::future<TrainResult> future = pending.promise.get_future();
  {
    common::MutexLock lock(mu_);
    if (closed_) {
      TrainResult result;
      result.cluster = pending.job.cluster;
      result.outcome = JobOutcome::kShutdown;
      pending.promise.set_value(std::move(result));
      return future;
    }
    if (queue_.size() >= config_.queue_capacity) {
      TrainResult result;
      result.cluster = pending.job.cluster;
      result.outcome = JobOutcome::kRejected;
      jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
      pending.promise.set_value(std::move(result));
      return future;
    }
    queue_.push_back(std::move(pending));
    jobs_submitted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

std::future<TrainResult> TrainerRuntime::submit_job(ClusterId cluster,
                                                    data::Dataset dataset,
                                                    std::size_t epochs) {
  const Tenant* tenant = find_tenant(cluster);
  if (tenant == nullptr || epochs == 0 || dataset.size() == 0 ||
      dataset.geometry().features() !=
          tenant->system->config().orco.input_dim) {
    return reject(cluster, JobOutcome::kRejected);
  }
  TrainJob job;
  job.cluster = cluster;
  job.dataset = std::make_shared<const data::Dataset>(std::move(dataset));
  job.epochs = epochs;
  return enqueue(std::move(job));
}

void TrainerRuntime::update_stream(ClusterId cluster, data::Dataset dataset) {
  Tenant* tenant = find_tenant(cluster);
  ORCO_CHECK(tenant != nullptr, "unknown tenant " << cluster);
  ORCO_CHECK(dataset.size() > 0 &&
                 dataset.geometry().features() ==
                     tenant->system->config().orco.input_dim,
             "stream for tenant " << cluster
                                  << " does not match its input_dim");
  auto shared = std::make_shared<const data::Dataset>(std::move(dataset));
  common::MutexLock lock(tenant->monitor_mu);
  tenant->stream = std::move(shared);
}

void TrainerRuntime::set_baseline(ClusterId cluster, float loss) {
  Tenant* tenant = find_tenant(cluster);
  ORCO_CHECK(tenant != nullptr, "unknown tenant " << cluster);
  common::MutexLock lock(tenant->monitor_mu);
  tenant->monitor.set_baseline(loss);
  tenant->monitor.reset_observations();
}

bool TrainerRuntime::observe_loss(ClusterId cluster, float loss) {
  Tenant* tenant = find_tenant(cluster);
  ORCO_CHECK(tenant != nullptr, "unknown tenant " << cluster);
  bool triggered = false;
  std::optional<TrainJob> auto_job;
  {
    common::MutexLock lock(tenant->monitor_mu);
    if (!tenant->monitor.has_baseline()) return false;
    triggered = tenant->monitor.observe(loss);
    if (triggered) {
      drift_triggers_.fetch_add(1, std::memory_order_relaxed);
      if (tenant->stream != nullptr &&
          !tenant->drift_job_inflight.exchange(true)) {
        TrainJob job;
        job.cluster = cluster;
        job.dataset = tenant->stream;  // aliased, not copied: O(1) trigger
        job.epochs = std::max<std::size_t>(1, config_.drift_epochs);
        job.drift_triggered = true;
        auto_job = std::move(job);
      }
    }
  }
  if (auto_job.has_value()) {
    std::future<TrainResult> future = enqueue(std::move(*auto_job));
    // Re-arm only when the queue actually refused the job (full/closed).
    // Readiness alone is not refusal: a fast worker can have completed the
    // job already — clearing the flag then would cancel the suppression a
    // *newer* in-flight drift job re-armed, letting duplicates pile up.
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      const TrainResult result = future.get();
      if (result.outcome == JobOutcome::kRejected ||
          result.outcome == JobOutcome::kShutdown) {
        tenant->drift_job_inflight.store(false);
      }
    }
  }
  return triggered;
}

std::shared_ptr<ModelSnapshot> export_snapshot(core::OrcoDcsSystem& system) {
  const core::OrcoConfig& orco = system.config().orco;
  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = system.model_version();
  snapshot->decoder =
      std::shared_ptr<const nn::Sequential>(system.export_decoder_clone());
  snapshot->encoder =
      std::shared_ptr<const nn::Sequential>(system.export_encoder_clone());
  snapshot->latent_dim = orco.latent_dim;
  snapshot->output_dim = orco.input_dim;
  return snapshot;
}

std::uint64_t TrainerRuntime::export_and_publish(ClusterId cluster,
                                                 Tenant& tenant) {
  // Publishes are rare (one per completed job) — trace every one so a
  // hot-swap window is findable in the timeline without sampling luck. The
  // span's n is the published version (0 when nothing was published).
  obs::ScopedSpan span("train.publish", "train", obs::trace_enabled(),
                       /*id=*/0, /*tenant=*/cluster);
  const auto current = registry_->current(cluster);
  if (current != nullptr &&
      current->version >= tenant.system->model_version()) {
    // Nothing trained since the last publish (e.g. a zero-round job):
    // re-publishing the same generation would only churn caches.
    return 0;
  }
  const std::uint64_t version =
      registry_->publish(cluster, export_snapshot(*tenant.system));
  span.set_n(version);
  return version;
}

void TrainerRuntime::worker_loop() {
  background_current_thread();
  tensor::set_thread_gemm_parallelism(false);
  for (;;) {
    PendingJob pending;
    {
      common::MutexLock lock(mu_);
      while (!closed_ && queue_.empty()) cv_.wait(lock.native());
      if (closed_) return;  // still-queued jobs are resolved by shutdown()
      pending = std::move(queue_.front());
      queue_.pop_front();
      // Marked active under the same lock hold that popped it, so
      // unregister_tenant can never observe the job in neither the queue
      // nor the active set.
      ++active_jobs_[pending.job.cluster];
    }
    TrainResult result = run_job(pending.job);
    pending.promise.set_value(std::move(result));
    {
      common::MutexLock lock(mu_);
      const auto it = active_jobs_.find(pending.job.cluster);
      if (it != active_jobs_.end() && --it->second == 0) {
        active_jobs_.erase(it);
      }
    }
  }
}

TrainResult TrainerRuntime::run_job(const TrainJob& job) {
  TrainResult result;
  result.cluster = job.cluster;
  Tenant* tenant = find_tenant(job.cluster);
  if (tenant == nullptr || job.dataset == nullptr) {
    result.outcome = JobOutcome::kRejected;
    return result;
  }
  common::MutexLock train_lock(tenant->train_mu);
  const bool traced = obs::trace_enabled();
  obs::ScopedSpan job_span("train.job", "train", traced, /*id=*/0,
                           /*tenant=*/job.cluster);
  core::OrcoDcsSystem& system = *tenant->system;
  const core::OrcoConfig& orco = system.config().orco;
  const std::size_t max_rounds = config_.default_budget.max_rounds_per_job;
  const double duty = config_.default_budget.duty_cycle;

  // Salt the shuffle with rounds_completed like train_online: repeated jobs
  // see fresh sample orders, deterministically.
  common::Pcg32 loader_rng(orco.seed ^
                           (0x7261696eULL +
                            system.orchestrator().rounds_completed()));
  const data::Dataset& dataset = *job.dataset;
  data::DataLoader loader(dataset, orco.batch_size, /*shuffle=*/true,
                          loader_rng);
  result.outcome = JobOutcome::kCompleted;
  bool capped = false;
  try {
    for (std::size_t epoch = 0; epoch < job.epochs && !capped; ++epoch) {
      loader.reshuffle();
      for (std::size_t b = 0; b < loader.batch_count() && !capped; ++b) {
        const auto round_start = std::chrono::steady_clock::now();
        core::RoundRecord record;
        {
          obs::ScopedSpan round_span("train.round", "train", traced,
                                     /*id=*/0, /*tenant=*/job.cluster,
                                     /*n=*/result.rounds_run + 1);
          record = system.orchestrator().train_round(loader.batch(b).images);
        }
        result.final_loss = record.loss;
        ++result.rounds_run;
        rounds_run_.fetch_add(1, std::memory_order_relaxed);
        const double round_s = seconds_since(round_start);
        result.train_seconds += round_s;
        if (max_rounds > 0 && result.rounds_run >= max_rounds) {
          capped = true;
          break;
        }
        if (duty < 1.0) {
          // Duty-cycle budget: sleeping (1 - duty)/duty of each round's
          // wall time caps this job at `duty` of one trainer thread, so
          // serving shards keep their cores under sustained fine-tuning.
          const double sleep_s = round_s * (1.0 - duty) / duty;
          result.throttle_seconds += sleep_s;
          std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
        }
      }
    }
  } catch (const std::exception& e) {
    ORCO_LOG_ERROR("fine-tune job for tenant " << job.cluster
                                               << " failed: " << e.what());
    result.outcome = JobOutcome::kFailed;
  }
  if (capped) result.outcome = JobOutcome::kBudgetExhausted;

  if (result.rounds_run > 0 && result.outcome != JobOutcome::kFailed) {
    try {
      // The clean eval loss on the data just trained on is the §III-D
      // baseline for the next drift watch (same rule as train_online). The
      // decode half of the sweep runs through the tenant's reusable
      // context (we hold train_mu, so the context is ours).
      {
        obs::ScopedSpan eval_span("train.eval", "train", traced, /*id=*/0,
                                  /*tenant=*/job.cluster);
        result.eval_loss = system.evaluate_loss(dataset, tenant->infer_ctx);
      }
      {
        common::MutexLock lock(tenant->monitor_mu);
        tenant->monitor.set_baseline(result.eval_loss);
        tenant->monitor.reset_observations();
      }
      result.published_version = export_and_publish(job.cluster, *tenant);
    } catch (const std::exception& e) {
      ORCO_LOG_ERROR("publishing tenant " << job.cluster
                                          << " snapshot failed: " << e.what());
      result.outcome = JobOutcome::kFailed;
    }
  }
  if (job.drift_triggered) tenant->drift_job_inflight.store(false);
  jobs_completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void TrainerRuntime::start() {
  ORCO_CHECK(!stopped_.load(), "cannot restart a shut-down TrainerRuntime");
  if (running_.exchange(true)) return;
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void TrainerRuntime::shutdown() {
  if (stopped_.exchange(true)) return;
  {
    common::MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  running_.store(false);
  // Resolve whatever never ran; callers' futures must not dangle.
  std::deque<PendingJob> leftover;
  {
    common::MutexLock lock(mu_);
    leftover.swap(queue_);
  }
  for (auto& pending : leftover) {
    TrainResult result;
    result.cluster = pending.job.cluster;
    result.outcome = JobOutcome::kShutdown;
    pending.promise.set_value(std::move(result));
  }
}

std::size_t TrainerRuntime::tenant_count() const {
  common::MutexLock lock(tenants_mu_);
  return tenants_.size();
}

std::size_t TrainerRuntime::queued_jobs() const {
  common::MutexLock lock(mu_);
  return queue_.size();
}

TrainerRuntime::Stats TrainerRuntime::stats() const {
  Stats s;
  s.jobs_submitted = jobs_submitted_.load(std::memory_order_relaxed);
  s.jobs_rejected = jobs_rejected_.load(std::memory_order_relaxed);
  s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
  s.drift_triggers = drift_triggers_.load(std::memory_order_relaxed);
  s.rounds_run = rounds_run_.load(std::memory_order_relaxed);
  s.snapshots_published = registry_->total_published();
  return s;
}

}  // namespace orco::train
