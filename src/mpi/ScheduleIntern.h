//===- mpi/ScheduleIntern.h - Compiled-schedule interning -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide cache of compiled schedules for the single-shot
/// runners of model/Runner.h (runBcastOnce, runBcastGatherOnce, the
/// gamma and barrier trains, the ping-pong) and for schedlint. Their
/// callers invoke them once per repetition in loops of their own --
/// the barrier-train gamma method, Hockney ping-pongs, canary sweeps
/// -- and every call for one grid point executes the *same* schedule
/// with a different seed. Interning builds and compiles that schedule
/// once and hands every call (on every ParallelSweep worker) the same
/// immutable CompiledSchedule. Adaptive measurements do not intern:
/// each compiles its experiment once and frees it when it ends
/// (model/Runner.h).
///
/// Keys are explicit strings assembled by the caller from everything
/// that determines the schedule's shape (collective, algorithm, rank
/// count, message size, segment size, root, fanout, tag, call count).
///
/// Entries are evicted least-recently-used once the cache holds more
/// than a fixed byte budget, so memory follows the working set, not
/// the length of the run. The repetitions of one grid point run close
/// together in time, which is where the hits come from; a budget a few
/// times the largest entry keeps nearly all of them. An evicted key is
/// simply rebuilt on its next use, bit-identically, because schedule
/// generation is deterministic in the key. Entries keep only the
/// compiled arrays: replay and the static verifier read nothing else,
/// so the source Schedule is dropped at insertion.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_SCHEDULEINTERN_H
#define MPICSEL_MPI_SCHEDULEINTERN_H

#include "mpi/CompiledSchedule.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace mpicsel {

/// What a schedule generator produces for one grid point: the schedule
/// plus the per-rank exit ops the experiment's timer reads.
struct BuiltSchedule {
  Schedule S;
  std::vector<OpId> Exit;
};

/// A compiled experiment: the compiled schedule (with an empty Source)
/// and its exit ops. One cache entry, or the schedule one measurement
/// replays (model/Runner.h). Immutable after construction; shared
/// across threads.
struct InternedSchedule {
  CompiledSchedule Compiled;
  std::vector<OpId> Exit;
};

using InternedScheduleRef = std::shared_ptr<const InternedSchedule>;

/// Compiles \p Built and drops its source: the form both the cache and
/// measurement-scoped callers (model/Runner.h) replay.
InternedSchedule compileBuiltSchedule(BuiltSchedule Built);

/// Thread-safe, byte-budgeted LRU interning cache. Lookups take a
/// mutex; misses build and compile *outside* the lock (so concurrent
/// workers hitting distinct keys never serialise on schedule
/// construction) and insert-if-absent afterwards -- the loser of a
/// racing build discards its copy and adopts the winner's entry, which
/// is identical because schedule generation is deterministic in the
/// key. Eviction only drops the cache's reference: callers holding an
/// entry keep it alive and valid.
class ScheduleInternCache {
public:
  /// Heap bytes the process-wide cache may hold. A broadcast entry at
  /// the paper's largest grid point is about 17 MB; 64 MiB keeps the
  /// entries of a few grid points at once, which is all a loop of
  /// single-shot calls reuses.
  static constexpr std::size_t DefaultBudgetBytes = std::size_t{64} << 20;

  /// Cache observability for tests and tools.
  struct CacheStats {
    std::uint64_t Hits = 0;
    /// Times a schedule was built (a lost insertion race counts as a
    /// miss too: the build did happen).
    std::uint64_t Misses = 0;
    /// Entries dropped to stay within the budget.
    std::uint64_t Evictions = 0;
    std::size_t Entries = 0;
    /// Heap bytes of the entries held now, and the most ever held.
    std::size_t CachedBytes = 0;
    std::size_t PeakCachedBytes = 0;
  };

  /// A cache that evicts beyond \p BudgetBytes. The process-wide
  /// instance uses DefaultBudgetBytes; tests build small ones.
  explicit ScheduleInternCache(std::size_t BudgetBytes = DefaultBudgetBytes)
      : Budget(BudgetBytes) {}

  /// The process-wide instance shared by all sweeps (or the instance a
  /// ScopedGlobal currently installs).
  static ScheduleInternCache &global();

  /// Routes global() to another instance for the guard's lifetime, so
  /// tests can drive whole sweeps through a small-budget cache.
  /// Install it before the sweep starts and let it expire after.
  class ScopedGlobal {
  public:
    explicit ScopedGlobal(ScheduleInternCache &Cache);
    ~ScopedGlobal();
    ScopedGlobal(const ScopedGlobal &) = delete;
    ScopedGlobal &operator=(const ScopedGlobal &) = delete;

  private:
    ScheduleInternCache *Saved;
  };

  /// Returns the entry for \p Key, invoking \p Build exactly when the
  /// key is not cached. \p Build must be a pure function of the key.
  template <typename BuildFn>
  InternedScheduleRef intern(const std::string &Key, BuildFn &&Build) {
    if (InternedScheduleRef Hit = lookup(Key))
      return Hit;
    return insert(Key, std::make_shared<InternedSchedule>(
                           compileBuiltSchedule(Build())));
  }

  CacheStats stats() const;

  std::size_t budgetBytes() const { return Budget; }

  /// Drops every entry and resets the counters (tests only; in-flight
  /// shared_ptrs stay valid).
  void clear();

private:
  struct Slot {
    std::string Key;
    InternedScheduleRef Entry;
    std::size_t Bytes = 0;
  };
  using SlotList = std::list<Slot>;

  InternedScheduleRef lookup(const std::string &Key);
  InternedScheduleRef insert(const std::string &Key,
                             std::shared_ptr<InternedSchedule> Entry);

  const std::size_t Budget;
  mutable std::mutex Lock;
  /// Most recently used first.
  SlotList Lru;
  std::unordered_map<std::string, SlotList::iterator> Index;
  std::size_t CachedBytes = 0;
  std::size_t PeakCachedBytes = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Evictions = 0;
};

} // namespace mpicsel

#endif // MPICSEL_MPI_SCHEDULEINTERN_H
