//===- mpi/ScheduleIntern.cpp - Compiled-schedule interning ---------------===//

#include "mpi/ScheduleIntern.h"

#include "obs/Journal.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <atomic>

using namespace mpicsel;

namespace {

std::atomic<ScheduleInternCache *> &globalOverride() {
  static std::atomic<ScheduleInternCache *> Override{nullptr};
  return Override;
}

} // namespace

InternedSchedule mpicsel::compileBuiltSchedule(BuiltSchedule Built) {
  InternedSchedule Result;
  Result.Compiled = compileSchedule(std::move(Built.S));
  Result.Compiled.Source = Schedule();
  Result.Exit = std::move(Built.Exit);
  return Result;
}

ScheduleInternCache &ScheduleInternCache::global() {
  if (ScheduleInternCache *Override =
          globalOverride().load(std::memory_order_acquire))
    return *Override;
  static ScheduleInternCache Cache;
  return Cache;
}

ScheduleInternCache::ScopedGlobal::ScopedGlobal(ScheduleInternCache &Cache)
    : Saved(globalOverride().exchange(&Cache, std::memory_order_acq_rel)) {}

ScheduleInternCache::ScopedGlobal::~ScopedGlobal() {
  globalOverride().store(Saved, std::memory_order_release);
}

InternedScheduleRef ScheduleInternCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Index.find(Key);
  if (It == Index.end())
    return nullptr;
  ++Hits;
  obs::bump(obs::Counter::InternHits);
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->Entry;
}

InternedScheduleRef
ScheduleInternCache::insert(const std::string &Key,
                            std::shared_ptr<InternedSchedule> Entry) {
  const std::size_t Bytes = Entry->Compiled.heapBytes() +
                            Entry->Exit.capacity() * sizeof(OpId) +
                            Key.capacity();
  std::lock_guard<std::mutex> Guard(Lock);
  ++Misses;
  obs::bump(obs::Counter::InternBuilds);
  // Losing the race is harmless: both builds compiled the same
  // schedule, and the winner's entry is the one every caller shares.
  // Builds vs adoptions are journalled so the wasted duplicate work
  // under wide sweeps stays visible.
  auto [It, Inserted] = Index.try_emplace(Key, Lru.end());
  std::uint64_t Evicted = 0;
  if (Inserted) {
    Lru.push_front(Slot{Key, std::move(Entry), Bytes});
    It->second = Lru.begin();
    CachedBytes += Bytes;
    // Oldest first; the entry just inserted always stays, even when it
    // alone exceeds the budget.
    while (CachedBytes > Budget && Lru.size() > 1) {
      const Slot &Victim = Lru.back();
      CachedBytes -= Victim.Bytes;
      Index.erase(Victim.Key);
      Lru.pop_back();
      ++Evicted;
    }
    Evictions += Evicted;
    PeakCachedBytes = std::max(PeakCachedBytes, CachedBytes);
    obs::bump(obs::Counter::InternEvictions, Evicted);
    obs::gaugeMax(obs::Gauge::InternPeakCachedBytes, PeakCachedBytes);
  } else {
    obs::bump(obs::Counter::InternAdoptions);
    Lru.splice(Lru.begin(), Lru, It->second);
  }
  obs::Journal &J = obs::Journal::global();
  if (J.enabled()) {
    JsonObject Event = J.line("intern");
    Event.set("key", Key);
    Event.set("adopted", !Inserted);
    Event.set("bytes", static_cast<std::uint64_t>(Bytes));
    Event.set("evicted", Evicted);
    J.write(Event);
  }
  return It->second->Entry;
}

ScheduleInternCache::CacheStats ScheduleInternCache::stats() const {
  std::lock_guard<std::mutex> Guard(Lock);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Lru.size();
  S.CachedBytes = CachedBytes;
  S.PeakCachedBytes = PeakCachedBytes;
  return S;
}

void ScheduleInternCache::clear() {
  std::lock_guard<std::mutex> Guard(Lock);
  Index.clear();
  Lru.clear();
  CachedBytes = PeakCachedBytes = 0;
  Hits = Misses = Evictions = 0;
}
