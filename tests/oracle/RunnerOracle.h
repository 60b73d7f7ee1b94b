//===- tests/oracle/RunnerOracle.h - Per-repetition runner oracle -*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The straightforward measurement path the model runners must match
/// bit for bit: every repetition rebuilds the experiment's schedule
/// and runs it through the one-shot runSchedule facade (a fresh
/// compile and a fresh engine per seed). The library compiles each
/// measurement once and replays it on an engine of the measurement's
/// own, warm from the second repetition (model/Runner.h); the tests
/// hold that to this oracle, and check the warm replay with
/// expectWarmReplays.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_TESTS_ORACLE_RUNNERORACLE_H
#define MPICSEL_TESTS_ORACLE_RUNNERORACLE_H

#include "coll/Gather.h"
#include "obs/Metrics.h"
#include "sim/Engine.h"
#include "stat/AdaptiveBenchmark.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mpicsel {

/// One experiment, rebuilt from scratch for every repetition.
struct RunnerOracle {
  unsigned NumProcs = 1;
  /// Appends the measured collective and returns its per-rank exits.
  std::function<std::vector<OpId>(ScheduleBuilder &)> Append;
  /// When set, a linear gather without synchronisation of this many
  /// bytes per rank to Root follows (tag Tag + 8) and the experiment
  /// is timed on the root's gather exit (Sect. 4.2).
  std::optional<std::uint64_t> GatherBytes;
  unsigned Root = 0;
  int Tag = 0;
  /// Without a gather: time the root's exit only (reduce) instead of
  /// the latest exit over all ranks.
  bool RootOnly = false;

  double runOnce(const Platform &P, std::uint64_t Seed) const {
    ScheduleBuilder B(NumProcs);
    std::vector<OpId> Exit = Append(B);
    if (GatherBytes) {
      GatherConfig Gather;
      Gather.BlockBytes = *GatherBytes;
      Gather.Root = Root;
      Gather.Tag = Tag + 8;
      Exit = appendLinearGather(B, Gather, Exit);
    }
    Schedule S = B.take();
    ExecutionResult R = runSchedule(S, P, Seed);
    if (!R.Completed)
      fatalError("oracle schedule deadlocked: " + R.Diagnostic);
    if (GatherBytes || RootOnly)
      return R.doneTime(Exit[Root]);
    double Latest = 0.0;
    for (OpId Id : Exit)
      Latest = std::max(Latest, R.doneTime(Id));
    return Latest;
  }

  AdaptiveResult measure(const Platform &P,
                         const AdaptiveOptions &Options) const {
    return measureAdaptively(
        [&](std::uint64_t Seed) { return runOnce(P, Seed); }, Options);
  }
};

/// A noisy variant of the unit-test platform, so every seed matters.
inline Platform noisyTestPlatform(unsigned NumProcs) {
  Platform P = makeTestPlatform(NumProcs);
  P.NoiseSigma = 0.03;
  return P;
}

inline void expectSameMeasurement(const AdaptiveResult &Got,
                                  const AdaptiveResult &Want) {
  EXPECT_EQ(Got.Observations, Want.Observations);
  EXPECT_EQ(Got.Stats.Mean, Want.Stats.Mean);
  EXPECT_EQ(Got.Converged, Want.Converged);
}

/// Bit-equality of two calibrations of one collective (any of the
/// *Models structs: per-algorithm Alpha, Beta and Fit).
template <typename ModelsT>
void expectSameCalibration(const ModelsT &Got, const ModelsT &Want) {
  ASSERT_EQ(Got.Algorithms.size(), Want.Algorithms.size());
  for (std::size_t I = 0; I != Got.Algorithms.size(); ++I) {
    SCOPED_TRACE("algorithm " + std::to_string(I));
    const auto &G = Got.Algorithms[I];
    const auto &W = Want.Algorithms[I];
    EXPECT_EQ(G.Algorithm, W.Algorithm);
    EXPECT_EQ(G.Alpha, W.Alpha);
    EXPECT_EQ(G.Beta, W.Beta);
    EXPECT_EQ(G.Fit.Intercept, W.Fit.Intercept);
    EXPECT_EQ(G.Fit.Slope, W.Fit.Slope);
    EXPECT_EQ(G.Fit.Rmse, W.Fit.Rmse);
    EXPECT_EQ(G.Fit.Valid, W.Fit.Valid);
  }
}

/// Runs \p Measure under no faults and under \p Scenario, labelled.
template <typename MeasureFn>
void forCleanAndFaulted(const char *Scenario, MeasureFn Measure) {
  {
    SCOPED_TRACE("fault-free");
    Measure();
  }
  const FaultSchedule Faults = makeFaultScenario(Scenario);
  ScopedFaultInjection Injection(Faults);
  SCOPED_TRACE(Scenario);
  Measure();
}

/// Takes two identical adaptive measurements of exactly \p N
/// observations each via \p Measure (given the options to pass on)
/// with metrics enabled, and checks that each replayed N times: the
/// first on a fresh engine arena, the rest on that arena warm. The
/// second measurement must warm its own arena, not inherit the first
/// one's, so that no arena outlives its measurement.
template <typename MeasureFn>
void expectWarmReplays(unsigned N, MeasureFn Measure) {
  AdaptiveOptions Options;
  Options.MinReps = N;
  Options.MaxReps = N;
  const bool WasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  for (int Measurement = 0; Measurement != 2; ++Measurement) {
    SCOPED_TRACE(Measurement);
    const obs::MetricsSnapshot Before = obs::snapshotMetrics();
    const AdaptiveResult R = Measure(Options);
    const obs::MetricsSnapshot After = obs::snapshotMetrics();
    auto Delta = [&](obs::Counter C) {
      return After.counter(C) - Before.counter(C);
    };
    EXPECT_EQ(R.Observations.size(), N);
    EXPECT_EQ(Delta(obs::Counter::EngineReplays), N);
    EXPECT_EQ(Delta(obs::Counter::EngineArenaWarmups), 1u);
    EXPECT_EQ(Delta(obs::Counter::EngineArenaReuses), N - 1);
  }
  obs::setMetricsEnabled(WasEnabled);
}

} // namespace mpicsel

#endif // MPICSEL_TESTS_ORACLE_RUNNERORACLE_H
