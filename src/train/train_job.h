// Train-job and budget types for the background fine-tuning runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "data/dataset.h"
#include "train/model_registry.h"

namespace orco::train {

/// How much of the box a fine-tune job may consume (one budget per
/// TrainerRuntime, TrainerConfig::default_budget). The rounds cap bounds a
/// single job; the duty cycle bounds steady-state CPU share so a fine-tune
/// burst cannot starve the serving shards of cores: after every protocol
/// round the trainer sleeps round_time * (1 - duty) / duty, capping the job
/// at `duty_cycle` of one trainer thread.
struct TrainBudget {
  std::size_t max_rounds_per_job = 0;  // 0 = unbounded
  double duty_cycle = 0.5;             // (0, 1]; 1 = no throttling
};

/// One queued fine-tuning request: run `epochs` passes of the §III-B online
/// protocol over `dataset` on the tenant's system, then publish a snapshot.
/// The dataset is shared, not owned: drift-triggered jobs alias the
/// tenant's installed stream so enqueueing a job is O(1) — copying a
/// multi-MB window on the observing (serving-side) thread would stall it
/// exactly when reconstruction quality is degrading.
struct TrainJob {
  ClusterId cluster = 0;
  std::shared_ptr<const data::Dataset> dataset;
  std::size_t epochs = 1;
  /// True for jobs the drift monitor enqueued (vs. explicit submit_job).
  bool drift_triggered = false;
};

enum class JobOutcome {
  kCompleted,        // ran every requested round
  kBudgetExhausted,  // stopped early at the budget's rounds cap
  kRejected,         // queue full or unknown tenant: nothing ran
  kShutdown,         // runtime stopped before the job ran to completion
  kFailed,           // training threw; see TrainerRuntime logs
};

inline const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kBudgetExhausted: return "budget-exhausted";
    case JobOutcome::kRejected: return "rejected";
    case JobOutcome::kShutdown: return "shutdown";
    case JobOutcome::kFailed: return "failed";
  }
  return "invalid";
}

struct TrainResult {
  ClusterId cluster = 0;
  JobOutcome outcome = JobOutcome::kRejected;
  std::size_t rounds_run = 0;
  float final_loss = 0.0f;  // last round's training loss
  float eval_loss = 0.0f;   // post-job eval on the job dataset (new baseline)
  /// Version installed in the ModelRegistry by this job; 0 when nothing was
  /// published (rejected/shutdown/failed or zero rounds run).
  std::uint64_t published_version = 0;
  double train_seconds = 0.0;     // wall time spent inside training rounds
  double throttle_seconds = 0.0;  // wall time slept for the duty-cycle budget
};

}  // namespace orco::train
