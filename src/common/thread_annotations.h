// Clang thread-safety (capability) analysis macros.
//
// These turn the repo's locking contracts — "guards the map only",
// "never on the emit path", "caller holds mu_" — from comments into
// compile errors. Under clang with -Wthread-safety (the CI
// clang-thread-safety job compiles the whole tree with
// -Werror=thread-safety-analysis), a field marked ORCO_GUARDED_BY(mu_)
// cannot be touched without mu_ held, and a helper marked
// ORCO_REQUIRES(mu_) cannot be called without it. GCC and MSVC see empty
// macros, so the annotations cost nothing outside the analysis build.
//
// Conventions used across the codebase:
//   * Raw std::mutex/std::shared_mutex are wrapped in the annotated
//     orco::common::Mutex/SharedMutex (common/mutex.h) so ACQUIRE/RELEASE
//     attach to real lockable types; lock with MutexLock /
//     ReaderMutexLock / WriterMutexLock, never std::lock_guard on a
//     naked mutex in annotated classes.
//   * Private helpers that expect the caller to hold a lock are marked
//     ORCO_REQUIRES(mu_) instead of carrying a "caller holds mu_"
//     comment.
//   * Intentionally lock-free paths (sharded metric cells, single-writer
//     trace rings) stay unannotated on purpose — their safety argument is
//     memory ordering, not mutual exclusion — and keep an explanatory
//     comment instead.
//   * Condition-variable waits are written as explicit while loops over
//     the guarded predicate (not wait(lock, pred) lambdas) so the
//     analysis sees every guarded access in the enclosing function.
#pragma once

#if defined(__clang__)
#define ORCO_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define ORCO_THREAD_ANNOTATION__(x)  // no-op on GCC/MSVC
#endif

/// Marks a type as a lockable capability ("mutex", "shared_mutex", ...).
#define ORCO_CAPABILITY(x) ORCO_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define ORCO_SCOPED_CAPABILITY ORCO_THREAD_ANNOTATION__(scoped_lockable)

/// Data member readable/writable only with the capability held (shared
/// hold permits reads, exclusive hold permits writes).
#define ORCO_GUARDED_BY(x) ORCO_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability (the
/// pointer itself may be read freely).
#define ORCO_PT_GUARDED_BY(x) ORCO_THREAD_ANNOTATION__(pt_guarded_by(x))

/// Function requires the capability held exclusively (caller locks).
#define ORCO_REQUIRES(...) \
  ORCO_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// Function requires the capability held at least shared.
#define ORCO_REQUIRES_SHARED(...) \
  ORCO_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (exclusively / shared) and holds it
/// on return.
#define ORCO_ACQUIRE(...) \
  ORCO_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define ORCO_ACQUIRE_SHARED(...) \
  ORCO_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (generic release also ends a shared
/// hold — used by scoped-lock destructors).
#define ORCO_RELEASE(...) \
  ORCO_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define ORCO_RELEASE_SHARED(...) \
  ORCO_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define ORCO_TRY_ACQUIRE(...) \
  ORCO_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// Function must be called with the capability NOT held (deadlock guard
/// for non-reentrant locks).
#define ORCO_EXCLUDES(...) \
  ORCO_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (for call sites the
/// analysis cannot follow, e.g. callbacks invoked under a lock).
#define ORCO_ASSERT_CAPABILITY(x) \
  ORCO_THREAD_ANNOTATION__(assert_capability(x))

/// Function returns a reference to the capability guarding its result.
#define ORCO_RETURN_CAPABILITY(x) ORCO_THREAD_ANNOTATION__(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the contract cannot be expressed.
#define ORCO_NO_THREAD_SAFETY_ANALYSIS \
  ORCO_THREAD_ANNOTATION__(no_thread_safety_analysis)
