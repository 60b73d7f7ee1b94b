//===- model/Runner.cpp - Measurement harness over the simulator ----------===//

#include "model/Runner.h"

#include "coll/Barrier.h"
#include "coll/PointToPoint.h"
#include "drift/Drift.h"
#include "mpi/ScheduleIntern.h"
#include "obs/Metrics.h"
#include "sim/Engine.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

static void checkRanks(const Platform &P, unsigned NumProcs) {
  assert(NumProcs >= 1 && "experiments need at least one rank");
  if (NumProcs > P.maxProcs())
    fatalError("experiment requests more processes than the platform hosts");
}

namespace {

/// The per-thread replay engine of the single-shot runners.
/// ParallelSweep gives each worker its own thread, and a run's result
/// is a pure function of (schedule, platform, seed, faults), so
/// per-worker engines preserve the bit-identity of serial and threaded
/// sweeps while letting repeated single-shot calls reuse one warm
/// arena.
Engine &workerEngine() {
  thread_local Engine E;
  return E;
}

/// Replays \p CS on \p E and aborts on deadlock. Every simulated
/// measurement in the process funnels through here; interned
/// single-shot schedules on the worker engine, measurement-scoped ones
/// on their own.
const ExecutionResult &replayChecked(const CompiledSchedule &CS,
                                     const Platform &P, std::uint64_t Seed,
                                     const char *What,
                                     Engine &E = workerEngine()) {
  obs::bump(obs::Counter::RunnerExperiments);
  const ExecutionResult &R = E.run(CS, P, Seed);
  if (!R.Completed)
    fatalError(strFormat("%s schedule deadlocked: ", What) + R.Diagnostic);
  return R;
}

/// Replays \p Experiment and returns its time: the latest completion
/// among its Exit ops.
double replayExperiment(const InternedSchedule &Experiment, const Platform &P,
                        std::uint64_t Seed, const char *What,
                        Engine &E = workerEngine()) {
  const ExecutionResult &R =
      replayChecked(Experiment.Compiled, P, Seed, What, E);
  double Latest = R.doneTime(Experiment.Exit.front());
  for (OpId Id : Experiment.Exit)
    Latest = std::max(Latest, R.doneTime(Id));
  return Latest;
}

/// Interning key fragment for one broadcast configuration.
std::string bcastKey(const BcastConfig &Config, unsigned NumProcs) {
  return strFormat("alg=%d|P=%u|m=%llu|seg=%llu|root=%u|k=%u|tag=%d",
                   static_cast<int>(Config.Algorithm), NumProcs,
                   static_cast<unsigned long long>(Config.MessageBytes),
                   static_cast<unsigned long long>(Config.SegmentBytes),
                   Config.Root, Config.KChainFanout, Config.Tag);
}

/// The plain-broadcast experiment over ranks 0..NumProcs-1, timed to
/// the latest exit over all ranks.
BuiltSchedule bcastExperiment(unsigned NumProcs, const BcastConfig &Config) {
  ScheduleBuilder B(NumProcs);
  BuiltSchedule Built;
  Built.Exit = appendBcast(B, Config);
  Built.S = B.take();
  return Built;
}

/// The Sect. 4.2 calibration experiment: the broadcast closed by a
/// linear gather of \p GatherBytes per rank, timed on the root.
BuiltSchedule bcastGatherExperiment(unsigned NumProcs,
                                    const BcastConfig &Bcast,
                                    std::uint64_t GatherBytes) {
  ScheduleBuilder B(NumProcs);
  return closeWithGather(B, appendBcast(B, Bcast), GatherBytes, Bcast.Root,
                         Bcast.Tag);
}

/// Plain broadcast replays are what the deployed selection serves, so
/// they are the drift sentinel's feed; the calibration's bcast+gather
/// experiments deliberately are not (a repair measuring through them
/// must not re-trigger itself). One atomic load when no sentinel is
/// installed. Returns \p Latency.
double feedDriftSentinel(unsigned NumProcs, const BcastConfig &Config,
                         double Latency) {
  if (DriftSentinel *Sentinel = globalDriftSentinel())
    Sentinel->observe(Config.Algorithm, NumProcs, Config.MessageBytes,
                      Latency);
  return Latency;
}

/// measureExperiment with every repetition's time passed through
/// \p Observe before the stopping rule sees it.
template <typename ObserveFn>
AdaptiveResult measureScoped(const Platform &P, BuiltSchedule Built,
                             const char *What, const AdaptiveOptions &Options,
                             ObserveFn Observe) {
  checkRanks(P, Built.S.RankCount);
  const InternedSchedule Experiment = compileBuiltSchedule(std::move(Built));
  Engine E; // Not the worker engine: see the file comment of Runner.h.
  return measureAdaptively(
      [&](std::uint64_t Seed) {
        return Observe(replayExperiment(Experiment, P, Seed, What, E));
      },
      Options);
}

} // namespace

BuiltSchedule mpicsel::closeWithGather(ScheduleBuilder &B,
                                       const std::vector<OpId> &After,
                                       std::uint64_t GatherBytes,
                                       unsigned Root, int Tag) {
  GatherConfig Gather;
  Gather.BlockBytes = GatherBytes;
  Gather.Root = Root;
  Gather.Tag = Tag + 8;
  Gather.Synchronised = false;
  BuiltSchedule Built;
  Built.Exit = {appendLinearGather(B, Gather, After)[Root]};
  Built.S = B.take();
  return Built;
}

double mpicsel::runExperimentOnce(const Platform &P, BuiltSchedule Built,
                                  std::uint64_t Seed, const char *What) {
  checkRanks(P, Built.S.RankCount);
  Engine E;
  return replayExperiment(compileBuiltSchedule(std::move(Built)), P, Seed,
                          What, E);
}

AdaptiveResult mpicsel::measureExperiment(const Platform &P,
                                          BuiltSchedule Built,
                                          const char *What,
                                          const AdaptiveOptions &Options) {
  return measureScoped(P, std::move(Built), What, Options,
                       [](double Time) { return Time; });
}

double mpicsel::runBcastOnce(const Platform &P, unsigned NumProcs,
                             const BcastConfig &Config, std::uint64_t Seed) {
  checkRanks(P, NumProcs);
  InternedScheduleRef IS = ScheduleInternCache::global().intern(
      "bcast|" + bcastKey(Config, NumProcs),
      [&] { return bcastExperiment(NumProcs, Config); });
  return feedDriftSentinel(NumProcs, Config,
                           replayExperiment(*IS, P, Seed, "broadcast"));
}

AdaptiveResult mpicsel::measureBcast(const Platform &P, unsigned NumProcs,
                                     const BcastConfig &Config,
                                     const AdaptiveOptions &Options) {
  return measureScoped(P, bcastExperiment(NumProcs, Config), "broadcast",
                       Options, [&](double Latency) {
                         return feedDriftSentinel(NumProcs, Config, Latency);
                       });
}

double mpicsel::runBcastGatherOnce(const Platform &P, unsigned NumProcs,
                                   const BcastConfig &Bcast,
                                   std::uint64_t GatherBytes,
                                   std::uint64_t Seed) {
  checkRanks(P, NumProcs);
  InternedScheduleRef IS = ScheduleInternCache::global().intern(
      strFormat("bcastgather|gb=%llu|",
                static_cast<unsigned long long>(GatherBytes)) +
          bcastKey(Bcast, NumProcs),
      [&] { return bcastGatherExperiment(NumProcs, Bcast, GatherBytes); });
  // The experiment starts and finishes on the root (paper Sect. 4.2).
  return replayExperiment(*IS, P, Seed, "bcast+gather");
}

AdaptiveResult mpicsel::measureBcastGather(const Platform &P,
                                           unsigned NumProcs,
                                           const BcastConfig &Bcast,
                                           std::uint64_t GatherBytes,
                                           const AdaptiveOptions &Options) {
  return measureExperiment(P,
                           bcastGatherExperiment(NumProcs, Bcast, GatherBytes),
                           "bcast+gather", Options);
}

double mpicsel::runLinearBcastTrainOnce(const Platform &P, unsigned NumProcs,
                                        std::uint64_t SegmentBytes,
                                        unsigned Calls, std::uint64_t Seed) {
  checkRanks(P, NumProcs);
  assert(Calls >= 1 && "need at least one call");
  InternedScheduleRef IS = ScheduleInternCache::global().intern(
      strFormat("bcasttrain|P=%u|seg=%llu|calls=%u", NumProcs,
                static_cast<unsigned long long>(SegmentBytes), Calls),
      [&] {
        ScheduleBuilder B(NumProcs);
        BcastConfig Config;
        Config.Algorithm = BcastAlgorithm::Linear;
        Config.MessageBytes = SegmentBytes;
        Config.SegmentBytes = 0;
        Config.Root = 0;
        BuiltSchedule Built;
        for (unsigned Call = 0; Call != Calls; ++Call) {
          Config.Tag = static_cast<int>(Call) * 16;
          Built.Exit = appendBcast(B, Config, Built.Exit);
          Built.Exit = appendBarrier(B, Config.Tag + 8, Built.Exit);
        }
        Built.S = B.take();
        return Built;
      });
  // T1: measured on the root, from the experiment start to the root's
  // exit from the last barrier (which certifies the last delivery).
  return replayChecked(IS->Compiled, P, Seed, "gamma-experiment")
             .doneTime(IS->Exit[0]) /
         static_cast<double>(Calls);
}

double mpicsel::runBarrierTrainOnce(const Platform &P, unsigned NumProcs,
                                    unsigned Calls, std::uint64_t Seed) {
  checkRanks(P, NumProcs);
  assert(Calls >= 1 && "need at least one call");
  InternedScheduleRef IS = ScheduleInternCache::global().intern(
      strFormat("barriertrain|P=%u|calls=%u", NumProcs, Calls), [&] {
        ScheduleBuilder B(NumProcs);
        BuiltSchedule Built;
        for (unsigned Call = 0; Call != Calls; ++Call)
          Built.Exit =
              appendBarrier(B, static_cast<int>(Call) * 16 + 8, Built.Exit);
        Built.S = B.take();
        return Built;
      });
  return replayChecked(IS->Compiled, P, Seed, "barrier-train")
             .doneTime(IS->Exit[0]) /
         static_cast<double>(Calls);
}

double mpicsel::runPingPongOnce(const Platform &P, unsigned RankA,
                                unsigned RankB, std::uint64_t Bytes,
                                std::uint64_t Seed) {
  unsigned NumProcs = std::max(RankA, RankB) + 1;
  checkRanks(P, NumProcs);
  InternedScheduleRef IS = ScheduleInternCache::global().intern(
      strFormat("pingpong|a=%u|b=%u|bytes=%llu", RankA, RankB,
                static_cast<unsigned long long>(Bytes)),
      [&] {
        ScheduleBuilder B(NumProcs);
        BuiltSchedule Built;
        Built.Exit = appendPingPong(B, RankA, RankB, Bytes, /*Tag=*/0);
        Built.S = B.take();
        return Built;
      });
  return replayChecked(IS->Compiled, P, Seed, "ping-pong")
             .doneTime(IS->Exit[RankA]) /
         2.0;
}
