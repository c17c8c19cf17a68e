#ifndef CACKLE_COMMON_THREAD_ANNOTATIONS_H_
#define CACKLE_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

/// \file
/// Clang thread-safety annotations (-Wthread-safety) for every
/// lock-protected structure in the tree, plus the annotated `Mutex` /
/// `MutexLock` / `CondVar` wrappers they require.
///
/// The repo's headline invariant — bit-identical results at any thread
/// count, under either scheduler — depends on parallel code touching shared
/// state only under the locks the comments claim. These macros turn those
/// comments into compile-time proofs: with a Clang toolchain every build
/// configuration compiles with `-Wthread-safety -Werror=thread-safety`
/// (see the top-level CMakeLists), so an unguarded access to a
/// `CACKLE_GUARDED_BY` member is a build failure, not a latent race for
/// TSan to hopefully tickle. Under GCC (no thread-safety analysis) the
/// macros expand to nothing and the wrappers are zero-cost shims over the
/// std primitives.
///
/// Conventions (enforced by the `cackle-lock-annotation` lint check):
///  - every `std::mutex` / `Mutex` member must guard something: at least
///    one sibling member carries `CACKLE_GUARDED_BY(that_mutex)`, or the
///    mutex carries a justified `NOLINT(cackle-lock-annotation)` (the only
///    accepted justification is a pure condition-variable handshake mutex
///    that orders atomics, guarding no plain data);
///  - classes that are deliberately lock-free because each instance is
///    confined to one thread (one Simulation, one sweep cell) say so with
///    `CACKLE_THREAD_CONFINED("why")` at the class head, so a reader — or a
///    future reviewer adding cross-thread sharing — knows the absence of
///    locks is a contract, not an oversight.

// Raw attribute spelling, active only under Clang's analysis.
#if defined(__clang__) && !defined(SWIG)
#define CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside Clang
#endif

/// Declares a type to be a capability (lockable). Used on `Mutex`.
#define CACKLE_CAPABILITY(x) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction. Used on `MutexLock`.
#define CACKLE_SCOPED_CAPABILITY \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// A data member readable/writable only while holding `x`.
#define CACKLE_GUARDED_BY(x) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// A pointer member whose *pointee* is protected by `x` (the pointer itself
/// may be read freely).
#define CACKLE_PT_GUARDED_BY(x) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// The function may only be called while holding all listed capabilities
/// exclusively (it neither acquires nor releases them).
#define CACKLE_REQUIRES(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

/// Shared (reader) variant of CACKLE_REQUIRES.
#define CACKLE_REQUIRES_SHARED(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__( \
      requires_shared_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and holds them on return.
#define CACKLE_ACQUIRE(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))

#define CACKLE_ACQUIRE_SHARED(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__( \
      acquire_shared_capability(__VA_ARGS__))

/// The function releases the listed capabilities (which must be held).
#define CACKLE_RELEASE(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))

#define CACKLE_RELEASE_SHARED(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__( \
      release_shared_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define CACKLE_TRY_ACQUIRE(b, ...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__( \
      try_acquire_capability(b, __VA_ARGS__))

/// The caller must NOT hold the listed capabilities (deadlock guard for
/// functions that acquire them internally).
#define CACKLE_EXCLUDES(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Static lock-ordering declarations on mutex members.
#define CACKLE_ACQUIRED_BEFORE(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))

#define CACKLE_ACQUIRED_AFTER(...) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Asserts (at analysis level) that the capability is already held.
#define CACKLE_ASSERT_CAPABILITY(x) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The function returns a reference to the named capability.
#define CACKLE_RETURN_CAPABILITY(x) \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: disables analysis inside one function. Every use needs a
/// comment explaining why the analysis cannot express the pattern.
#define CACKLE_NO_THREAD_SAFETY_ANALYSIS \
  CACKLE_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

/// Documentation-only marker for classes that are deliberately lock-free
/// because every instance is confined to one thread for its whole life
/// (one Simulation, one sweep cell, one bench driver). Expands to nothing
/// under every compiler; it exists so the thread-confinement claim is
/// explicit, greppable, and reviewed when such a class grows cross-thread
/// callers. Place between `class` and the class name:
///   class CACKLE_THREAD_CONFINED("one registry per Simulation")
///   MetricsRegistry { ... };
#define CACKLE_THREAD_CONFINED(reason)

namespace cackle {

/// \brief An annotated exclusive lock: `std::mutex` made visible to Clang's
/// thread-safety analysis.
///
/// All lock-protected structures in the tree use this wrapper (never a bare
/// `std::mutex`) so their guarded members can carry `CACKLE_GUARDED_BY` and
/// misuse fails the build. Lock it via `MutexLock` (scoped) or
/// `Lock()`/`Unlock()` when the critical section cannot be a lexical scope.
class CACKLE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CACKLE_ACQUIRE() { mu_.lock(); }
  void Unlock() CACKLE_RELEASE() { mu_.unlock(); }
  bool TryLock() CACKLE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Scoped lock holder for `Mutex` (the annotated analogue of
/// `std::lock_guard`). The analysis sees the capability held for exactly
/// the guard's lexical scope.
class CACKLE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) CACKLE_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() CACKLE_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// \brief Condition variable paired with `Mutex`.
///
/// The wait methods require the mutex held (annotated), adopt it into a
/// `std::unique_lock` for the underlying `std::condition_variable`, and
/// hand it back on return — so a `MutexLock` in the caller's scope stays
/// the single owner the analysis reasons about.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

  /// Blocks until notified (or woken spuriously): callers re-check their
  /// condition, with `mu` held, in a loop around the call.
  void Wait(Mutex& mu) CACKLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Blocks until `pred()` holds. `pred` runs with `mu` held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) CACKLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  /// Blocks until `pred()` holds or `timeout` elapses; returns `pred()`.
  template <typename Rep, typename Period, typename Pred>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout,
               Pred pred) CACKLE_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool satisfied = cv_.wait_for(lock, timeout, std::move(pred));
    lock.release();
    return satisfied;
  }

 private:
  std::condition_variable cv_;
};

}  // namespace cackle

#endif  // CACKLE_COMMON_THREAD_ANNOTATIONS_H_
