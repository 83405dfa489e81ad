// TrainerRuntime — online background fine-tuning concurrently with serving.
//
// The paper's central loop (§III-B + §III-D) is serve-while-retraining: the
// edge keeps reconstructing from live latents while the orchestrated
// training protocol adapts the per-cluster autoencoder to drift. PR 1-3
// could serve OR train; this runtime does both at once:
//
//   * worker threads pop TrainJobs (explicit submit_job, or enqueued by the
//     per-tenant FineTuningMonitor when observed reconstruction error
//     drifts past its threshold) and run the §III-B protocol rounds on the
//     tenant's OrcoDcsSystem — which serving no longer touches;
//   * jobs run in arrival order (one FIFO queue), each under the
//     config-wide TrainBudget (rounds cap + duty cycle), so fine-tuning
//     cannot starve the serving shards;
//   * the budget bounds how much CPU a job takes, scheduling bounds when:
//     workers run as SCHED_IDLE (else at nice 19) and run their GEMMs
//     inline, never on the shared pool, whose normal-priority workers
//     would head-of-line-block decode batches — a training round can
//     outlast a whole serve p99 budget;
//   * when a job finishes, the freshly trained encoder/decoder pair is
//     cloned into an immutable ModelSnapshot (export_snapshot below) and
//     atomically published to the ModelRegistry, which packs its weight
//     panels before the swap — the serving shards hot-swap to it between
//     batches, and the first post-swap decode pays no packing cost.
//
// Ownership rule: once a tenant is registered here, its OrcoDcsSystem is
// mutated only by trainer threads; serving must go through the registry
// snapshots (register the tenant with a ServerRuntime whose
// ServeConfig::model_registry is this runtime's registry()).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/monitor.h"
#include "core/system.h"
#include "train/model_registry.h"
#include "train/train_job.h"

namespace orco::train {

/// The one way a tenant's live weights become a ModelSnapshot, for the
/// trainer and the fleet alike: bitwise clones of the system's decoder and
/// encoder (OrcoDcsSystem::export_*_clone), stamped with its model version.
/// ModelRegistry::publish compiles the plan. The caller must be the
/// system's only writer for the call (the trainer holds the tenant's
/// train_mu; the fleet calls it before the tenant is registered anywhere).
std::shared_ptr<ModelSnapshot> export_snapshot(core::OrcoDcsSystem& system);

struct TrainerConfig {
  /// Background trainer threads. Keep this well below the serving shard
  /// count: a trainer thread runs full protocol rounds and is the main CPU
  /// competitor of the decode path.
  std::size_t worker_threads = 1;
  std::size_t queue_capacity = 16;  // pending jobs; beyond -> kRejected
  /// The budget every job runs under; the constructor refuses a duty
  /// cycle outside (0, 1].
  TrainBudget default_budget;
  /// Epochs a drift-triggered job runs over the tenant's current stream.
  std::size_t drift_epochs = 2;
};

class TrainerRuntime {
 public:
  explicit TrainerRuntime(const TrainerConfig& config = {});

  /// Calls shutdown(); queued jobs resolve kShutdown.
  ~TrainerRuntime();

  TrainerRuntime(const TrainerRuntime&) = delete;
  TrainerRuntime& operator=(const TrainerRuntime&) = delete;

  /// Registers a tenant and publishes a snapshot of its current weights,
  /// so serving reads the registry from the tenant's first request.
  void register_tenant(ClusterId cluster,
                       std::shared_ptr<core::OrcoDcsSystem> system);

  /// Removes a tenant when it is quiescent: no queued job targets it, no
  /// worker is running one, and no drift job is in flight. Returns false
  /// (and changes nothing) otherwise — the caller retries after traffic
  /// drains. The fleet's cold-tier demotion path; callers must not race
  /// submit_job / observe_loss / update_stream for the same tenant with
  /// this call (those assert the tenant exists).
  bool unregister_tenant(ClusterId cluster);

  /// The registry serving shards should read snapshots from (wire it into
  /// ServeConfig::model_registry).
  const std::shared_ptr<ModelRegistry>& registry() const noexcept {
    return registry_;
  }

  /// Queues one fine-tuning job. The future always resolves: kRejected
  /// immediately when the queue is full / the tenant is unknown / the
  /// dataset does not match the tenant's input_dim, kShutdown if the
  /// runtime stops first, otherwise the job's TrainResult.
  std::future<TrainResult> submit_job(ClusterId cluster, data::Dataset dataset,
                                      std::size_t epochs = 1);

  /// Installs the tenant's latest sensed window — the dataset a
  /// drift-triggered job fine-tunes on. Cheap to call repeatedly.
  void update_stream(ClusterId cluster, data::Dataset dataset);

  /// Seeds the tenant's drift monitor baseline (e.g. the post-training
  /// evaluation loss) without running a job. Jobs refresh it automatically.
  void set_baseline(ClusterId cluster, float loss);

  /// Feeds one reconstruction-error observation to the tenant's
  /// FineTuningMonitor (§III-D; thresholds from the tenant's OrcoConfig).
  /// Returns true when drift triggered; if a stream is installed and no
  /// drift job for this tenant is already queued or running, a fine-tune
  /// job over the stream is enqueued automatically. Observations before a
  /// baseline exists are ignored (returns false).
  bool observe_loss(ClusterId cluster, float loss);

  /// Launches the worker threads. Idempotent until shutdown().
  void start();

  /// Stops intake, resolves still-queued jobs kShutdown, joins workers. The
  /// job currently running finishes its round loop and publishes normally.
  void shutdown();

  bool running() const noexcept { return running_.load(); }
  std::size_t tenant_count() const;
  std::size_t queued_jobs() const;

  struct Stats {
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_rejected = 0;
    std::uint64_t jobs_completed = 0;  // includes kBudgetExhausted/kFailed
    std::uint64_t drift_triggers = 0;
    std::uint64_t rounds_run = 0;
    std::uint64_t snapshots_published = 0;
  };
  Stats stats() const;

 private:
  struct Tenant {
    /// The pointer is set once at registration; the pointed-to system is
    /// mutated only with train_mu held (trainer threads). Lock-free reads
    /// of its immutable config() from caller threads are intentional.
    std::shared_ptr<core::OrcoDcsSystem> system;
    /// Guards monitor + stream (fed from caller threads, consumed and
    /// re-baselined from trainer threads).
    common::Mutex monitor_mu;
    /// Serializes jobs per tenant: the tenant's OrcoDcsSystem is
    /// single-writer.
    common::Mutex train_mu;
    core::FineTuningMonitor monitor ORCO_GUARDED_BY(monitor_mu);
    std::shared_ptr<const data::Dataset> stream
        ORCO_GUARDED_BY(monitor_mu);  // latest sensed window
    /// A drift-triggered job is queued or running; suppresses duplicate
    /// auto-enqueues while the relaunch is still in flight.
    std::atomic<bool> drift_job_inflight{false};
    /// Inference memory for the validation path (evaluate_loss sweeps),
    /// reused across this tenant's jobs so repeat fine-tunes stop
    /// hammering the allocator.
    nn::InferContext infer_ctx ORCO_GUARDED_BY(train_mu);

    explicit Tenant(std::shared_ptr<core::OrcoDcsSystem> sys);
  };

  struct PendingJob {
    TrainJob job;
    std::promise<TrainResult> promise;
  };

  Tenant* find_tenant(ClusterId cluster) const ORCO_EXCLUDES(tenants_mu_);
  std::future<TrainResult> reject(ClusterId cluster, JobOutcome outcome);
  std::future<TrainResult> enqueue(TrainJob&& job);
  void worker_loop();
  TrainResult run_job(const TrainJob& job);
  /// Publishes export_snapshot of the tenant's current weights unless the
  /// registry already holds that version (returns 0 then). The train_mu
  /// hold makes this call the only system writer.
  std::uint64_t export_and_publish(ClusterId cluster, Tenant& tenant)
      ORCO_REQUIRES(tenant.train_mu);

  TrainerConfig config_;
  std::shared_ptr<ModelRegistry> registry_;

  mutable common::Mutex tenants_mu_;  // registration vs. lookup only
  std::map<ClusterId, std::unique_ptr<Tenant>> tenants_
      ORCO_GUARDED_BY(tenants_mu_);

  mutable common::Mutex mu_;  // guards the job queue
  std::condition_variable cv_;
  /// Pending jobs in arrival order; workers pop the front.
  std::deque<PendingJob> queue_ ORCO_GUARDED_BY(mu_);
  /// Jobs popped by a worker and not yet finished, per tenant — the guard
  /// that makes unregister_tenant safe: a tenant with a running job cannot
  /// be erased under the worker. Incremented at pop (same mu_ hold),
  /// decremented when the job's promise resolves.
  std::map<ClusterId, std::size_t> active_jobs_ ORCO_GUARDED_BY(mu_);
  bool closed_ ORCO_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> drift_triggers_{0};
  std::atomic<std::uint64_t> rounds_run_{0};
};

}  // namespace orco::train
