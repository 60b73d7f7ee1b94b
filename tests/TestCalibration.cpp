//===- tests/TestCalibration.cpp - end-to-end calibration tests ------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Integration tests of the full paper pipeline on small platforms:
// gamma estimation (Sect. 4.1), algorithm-specific alpha/beta
// (Sect. 4.2), prediction quality and the model-based selection.
//
//===----------------------------------------------------------------------===//

#include "drift/Drift.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "model/Runner.h"
#include "model/Selection.h"
#include "model/TraditionalModels.h"
#include "mpi/ScheduleIntern.h"
#include "oracle/RunnerOracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <type_traits>

using namespace mpicsel;

namespace {

/// A small fast platform with mild noise for integration tests.
Platform smallCluster() {
  Platform P = makeTestPlatform(24);
  P.NoiseSigma = 0.01;
  return P;
}

/// Calibration options trimmed for test runtime.
CalibrationOptions quickOptions(unsigned NumProcs) {
  CalibrationOptions Options;
  Options.NumProcs = NumProcs;
  Options.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  return Options;
}

/// The broadcast experiment of the runners, rebuilt per repetition;
/// with \p GatherBytes, the Sect. 4.2 bcast+gather experiment.
RunnerOracle bcastOracle(unsigned NumProcs, const BcastConfig &Config,
                         std::optional<std::uint64_t> GatherBytes) {
  RunnerOracle O;
  O.NumProcs = NumProcs;
  O.Append = [Config](ScheduleBuilder &B) { return appendBcast(B, Config); };
  O.GatherBytes = GatherBytes;
  O.Root = Config.Root;
  O.Tag = Config.Tag;
  return O;
}

BcastConfig bcastConfig(BcastAlgorithm Alg, std::uint64_t MessageBytes) {
  BcastConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.SegmentBytes = Alg == BcastAlgorithm::Linear ? 0 : 8192;
  return Config;
}

/// calibrate()'s stage 2 written out by hand, with every observation
/// taken through the oracle. \p Gamma comes from the library (stage 1
/// runs the gamma trains, not the experiments under test).
CalibratedModels oracleCalibrateBcast(const Platform &Plat,
                                      const CalibrationOptions &Options,
                                      const GammaFunction &Gamma) {
  CalibratedModels Models;
  Models.Gamma = Gamma;
  const unsigned NumProcs = Options.NumProcs;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    AlgorithmCalibration &Calib =
        Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;
    for (std::size_t I = 0; I != Options.MessageSizes.size(); ++I) {
      BcastConfig Config = bcastConfig(Alg, Options.MessageSizes[I]);
      Config.KChainFanout = Options.KChainFanout;
      std::uint64_t GatherBytes = std::clamp<std::uint64_t>(
          Config.MessageBytes / 64, 1024, 256 * 1024);
      if (GatherBytes == Options.SegmentBytes)
        GatherBytes += 512;
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed += 0x100000ull * static_cast<unsigned>(Alg) +
                           0x100ull * I;
      const double Mean = bcastOracle(NumProcs, Config, GatherBytes)
                              .measure(Plat, Adaptive)
                              .Stats.Mean;
      BcastModelQuery Query;
      Query.NumProcs = NumProcs;
      Query.MessageBytes = Config.MessageBytes;
      Query.SegmentBytes = Config.SegmentBytes;
      Query.KChainFanout = Options.KChainFanout;
      const CostCoefficients C =
          bcastCostCoefficients(Alg, Query, Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherBytes);
      Calib.CanonicalX.push_back(C.B / C.A);
      Calib.CanonicalT.push_back(Mean / C.A);
    }
    Calib.Fit = fitHuber(Calib.CanonicalX, Calib.CanonicalT);
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}

} // namespace

//===----------------------------------------------------------------------===//
// Gamma estimation
//===----------------------------------------------------------------------===//

TEST(GammaEstimation, GammaIsOneAtTwoAndGrows) {
  GammaEstimationOptions Options;
  Options.MaxP = 7;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  GammaEstimate E = estimateGamma(smallCluster(), Options);
  ASSERT_EQ(E.MeanCallTime.size(), 6u);
  EXPECT_DOUBLE_EQ(E.Gamma(2), 1.0);
  // Serialisation makes more children strictly slower on this
  // platform; gamma must be increasing and within the Eq. 1 bounds.
  for (unsigned P = 3; P <= 7; ++P) {
    EXPECT_GT(E.Gamma(P), E.Gamma(P - 1)) << "P=" << P;
    EXPECT_LE(E.Gamma(P), static_cast<double>(P - 1));
  }
}

TEST(GammaEstimation, BarrierTrainVariantAgreesRoughly) {
  Platform P = smallCluster();
  P.NoiseSigma = 0.0;
  GammaEstimationOptions Direct;
  Direct.MaxP = 5;
  Direct.Adaptive.MinReps = 2;
  Direct.Adaptive.MaxReps = 3;
  GammaEstimationOptions Train = Direct;
  Train.UseBarrierTrain = true;
  Train.CallsPerMeasurement = 20;
  GammaEstimate DirectE = estimateGamma(P, Direct);
  GammaEstimate TrainE = estimateGamma(P, Train);
  for (unsigned Procs = 3; Procs <= 5; ++Procs)
    EXPECT_NEAR(TrainE.Gamma(Procs), DirectE.Gamma(Procs),
                0.35 * DirectE.Gamma(Procs))
        << "P=" << Procs;
}

TEST(GammaEstimation, TrainRunnerProducesPositiveTimes) {
  Platform P = smallCluster();
  double Bcast = runLinearBcastTrainOnce(P, 5, 8192, 5, 1);
  double Barrier = runBarrierTrainOnce(P, 5, 5, 1);
  EXPECT_GT(Bcast, 0.0);
  EXPECT_GT(Barrier, 0.0);
  EXPECT_GT(Bcast, Barrier); // The broadcast adds real work.
}

//===----------------------------------------------------------------------===//
// Alpha/beta calibration
//===----------------------------------------------------------------------===//

TEST(Calibration, ProducesNonNegativeParamsForEveryAlgorithm) {
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const AlgorithmCalibration &C = M.of(Alg);
    EXPECT_EQ(C.Algorithm, Alg);
    EXPECT_GE(C.Alpha, 0.0) << bcastAlgorithmName(Alg);
    EXPECT_GE(C.Beta, 0.0) << bcastAlgorithmName(Alg);
    EXPECT_GT(C.Alpha + C.Beta, 0.0) << bcastAlgorithmName(Alg);
    ASSERT_EQ(C.CanonicalX.size(), 5u);
    ASSERT_EQ(C.CanonicalT.size(), 5u);
    EXPECT_TRUE(C.Fit.Valid);
    for (double T : C.CanonicalT)
      EXPECT_GT(T, 0.0);
  }
}

TEST(Calibration, PredictionsTrackMeasurementsAtCalibrationPoints) {
  Platform Plat = smallCluster();
  CalibrationOptions Options = quickOptions(12);
  CalibratedModels M = calibrate(Plat, Options);
  // At the calibrated (P, m) points, the model should predict the
  // *measured broadcast* within a modest factor -- the experiment
  // includes a gather, so exact agreement is not expected, but order
  // of magnitude and trend must hold.
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    for (std::uint64_t MessageBytes : Options.MessageSizes) {
      BcastConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      Config.SegmentBytes =
          Alg == BcastAlgorithm::Linear ? 0 : Options.SegmentBytes;
      double Measured = runBcastOnce(Plat, 12, Config, 99);
      double Predicted = M.predict(Alg, 12, MessageBytes);
      EXPECT_GT(Predicted, 0.25 * Measured)
          << bcastAlgorithmName(Alg) << " m=" << MessageBytes;
      EXPECT_LT(Predicted, 4.0 * Measured)
          << bcastAlgorithmName(Alg) << " m=" << MessageBytes;
    }
  }
}

TEST(Calibration, ParametersAreAlgorithmSpecific) {
  // The paper's Table 2 finding: (alpha, beta) differ by algorithm.
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  int Distinct = 0;
  for (unsigned I = 0; I + 1 < NumBcastAlgorithms; ++I) {
    const auto &A = M.Algorithms[I];
    const auto &B = M.Algorithms[I + 1];
    if (std::fabs(A.Alpha - B.Alpha) > 1e-12 ||
        std::fabs(A.Beta - B.Beta) > 1e-15)
      ++Distinct;
  }
  EXPECT_GE(Distinct, 4);
}

TEST(Calibration, DefaultsFillInProcsSizesAndGamma) {
  Platform Plat = smallCluster();
  CalibrationOptions Options;
  Options.Adaptive.MinReps = 2;
  Options.Adaptive.MaxReps = 4;
  Options.MessageSizes = {8192, 65536};
  CalibratedModels M = calibrate(Plat, Options);
  // Gamma was measured far enough for every model lookup at full
  // scale: ceil(log2 24) + 1 = 6.
  EXPECT_GE(M.Gamma.measuredMax(), 6u);
  EXPECT_EQ(M.SegmentBytes, 8192u);
}

TEST(Calibration, OlsVariantAlsoWorks) {
  CalibrationOptions Options = quickOptions(12);
  Options.UseHuber = false;
  CalibratedModels M = calibrate(smallCluster(), Options);
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    EXPECT_GE(M.of(Alg).Beta, 0.0);
}

TEST(Calibration, MatchesOracleAtEveryThreadCount) {
  const Platform Plat = noisyTestPlatform(8);
  CalibrationOptions Options;
  Options.NumProcs = 8;
  // 8 KiB takes the 1 KiB floor of the gather ramp; 512 KiB lands on
  // the segment size and takes the 512-byte bump.
  Options.MessageSizes = {8192, 65536, 524288};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 5;
  Options.GammaOptions.Adaptive = Options.Adaptive;
  Options.Threads = 1;
  const CalibratedModels Serial = calibrate(Plat, Options);
  Options.Threads = 4;
  const CalibratedModels Threaded = calibrate(Plat, Options);
  for (unsigned P = 2; P <= 8; ++P)
    EXPECT_EQ(Threaded.Gamma(P), Serial.Gamma(P));
  const CalibratedModels Oracle =
      oracleCalibrateBcast(Plat, Options, Serial.Gamma);
  for (const CalibratedModels *Got : {&Serial, &Threaded}) {
    expectSameCalibration(*Got, Oracle);
    for (BcastAlgorithm Alg : AllBcastAlgorithms) {
      EXPECT_EQ(Got->of(Alg).CanonicalX, Oracle.of(Alg).CanonicalX);
      EXPECT_EQ(Got->of(Alg).CanonicalT, Oracle.of(Alg).CanonicalT);
    }
  }
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

TEST(Selection, ModelBasedSelectionIsNearOptimalOnTheTestCluster) {
  Platform Plat = smallCluster();
  CalibratedModels M = calibrate(Plat, quickOptions(12));
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  double WorstDegradation = 0.0;
  for (std::uint64_t MessageBytes :
       {std::uint64_t(8192), std::uint64_t(131072), std::uint64_t(1 << 20),
        std::uint64_t(4 << 20)}) {
    SelectionPoint Point =
        evaluateSelectionPoint(Plat, 20, MessageBytes, M, Quick);
    EXPECT_GT(Point.BestTime, 0.0);
    EXPECT_GE(Point.modelDegradation(), -1e-9);
    WorstDegradation = std::max(WorstDegradation, Point.modelDegradation());
  }
  // The bar the paper sets on real clusters is ~10%; allow slack for
  // the coarse test calibration.
  EXPECT_LT(WorstDegradation, 0.35);
}

TEST(Selection, PointIsInternallyConsistent) {
  Platform Plat = smallCluster();
  CalibratedModels M = calibrate(Plat, quickOptions(12));
  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  SelectionPoint Point = evaluateSelectionPoint(Plat, 16, 262144, M, Quick);
  // Best is the argmin of the measured landscape.
  double Min = Point.MeasuredTime[0];
  for (double T : Point.MeasuredTime)
    Min = std::min(Min, T);
  EXPECT_DOUBLE_EQ(Point.BestTime, Min);
  EXPECT_DOUBLE_EQ(Point.MeasuredTime[static_cast<unsigned>(Point.Best)],
                   Point.BestTime);
  // The model choice's measured time comes from the same landscape.
  EXPECT_DOUBLE_EQ(
      Point.ModelChoiceTime,
      Point.MeasuredTime[static_cast<unsigned>(Point.ModelChoice)]);
  EXPECT_GT(Point.OmpiChoiceTime, 0.0);
  EXPECT_GT(Point.ModelPredictedTime, 0.0);
}

TEST(Selection, SelectBestIsTheArgminOfPredict) {
  CalibratedModels M = calibrate(smallCluster(), quickOptions(12));
  for (std::uint64_t MessageBytes : {std::uint64_t(16384),
                                     std::uint64_t(1 << 20)}) {
    BcastAlgorithm Chosen = M.selectBest(20, MessageBytes);
    double ChosenTime = M.predict(Chosen, 20, MessageBytes);
    for (BcastAlgorithm Alg : AllBcastAlgorithms)
      EXPECT_LE(ChosenTime, M.predict(Alg, 20, MessageBytes) + 1e-15);
  }
}

template <typename OpT> class SelectionOf : public ::testing::Test {};
using AllOps = ::testing::Types<
    std::integral_constant<CollectiveOp, CollectiveOp::Bcast>,
    std::integral_constant<CollectiveOp, CollectiveOp::Scatter>,
    std::integral_constant<CollectiveOp, CollectiveOp::Reduce>,
    std::integral_constant<CollectiveOp, CollectiveOp::Allgather>,
    std::integral_constant<CollectiveOp, CollectiveOp::Allreduce>>;
TYPED_TEST_SUITE(SelectionOf, AllOps);

TYPED_TEST(SelectionOf, SelectBestIsTheArgminOfPredict) {
  constexpr CollectiveOp Op = TypeParam::value;
  // Latency falls and bandwidth cost rises with the ordinal, so the
  // argmin moves across the grid.
  CollectiveModels<Op> M;
  M.Gamma = GammaFunction({1.0, 1.3, 1.55, 1.7, 1.9});
  for (std::size_t I = 0; I != M.Algorithms.size(); ++I) {
    M.Algorithms[I].Algorithm = CollectiveDescriptor<Op>::Algorithms[I];
    M.Algorithms[I].Alpha = 1e-5 / static_cast<double>(I + 1);
    M.Algorithms[I].Beta = 1e-10 * static_cast<double>(I + 1);
  }
  const std::vector<unsigned> Procs = {2, 5, 16, 20};
  const std::vector<std::uint64_t> Sizes = {1024, 16384, 1 << 20};
  const DecisionTable T = buildDecisionTable(M, Procs, Sizes);
  EXPECT_EQ(T.Collective, Op);
  for (std::size_t PI = 0; PI != Procs.size(); ++PI)
    for (std::size_t SI = 0; SI != Sizes.size(); ++SI) {
      const auto Chosen = M.selectBest(Procs[PI], Sizes[SI]);
      EXPECT_EQ(T.at(PI, SI), static_cast<unsigned>(Chosen));
      const double ChosenTime = M.predict(Chosen, Procs[PI], Sizes[SI]);
      for (auto Alg : CollectiveDescriptor<Op>::Algorithms)
        EXPECT_LE(ChosenTime, M.predict(Alg, Procs[PI], Sizes[SI]));
    }
}


//===----------------------------------------------------------------------===//
// Runner determinism and statistics
//===----------------------------------------------------------------------===//

TEST(Runner, BcastOnceIsDeterministicPerSeed) {
  Platform Plat = smallCluster();
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binary;
  Config.MessageBytes = 65536;
  EXPECT_EQ(runBcastOnce(Plat, 12, Config, 5),
            runBcastOnce(Plat, 12, Config, 5));
  EXPECT_NE(runBcastOnce(Plat, 12, Config, 5),
            runBcastOnce(Plat, 12, Config, 6));
}

TEST(Runner, NoiselessMeasurementConvergesImmediately) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binomial;
  Config.MessageBytes = 65536;
  AdaptiveOptions Options;
  Options.MinReps = 3;
  Options.MaxReps = 20;
  AdaptiveResult R = measureBcast(Plat, 8, Config, Options);
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(R.Observations.size(), 3u);
  EXPECT_DOUBLE_EQ(R.Stats.Variance, 0.0);
}

TEST(Runner, BcastGatherEndsOnRootAfterBcast) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  BcastConfig Config;
  Config.Algorithm = BcastAlgorithm::Binary;
  Config.MessageBytes = 262144;
  double BcastOnly = runBcastOnce(Plat, 12, Config, 0);
  double WithGather = runBcastGatherOnce(Plat, 12, Config, 4096, 0);
  EXPECT_GT(WithGather, BcastOnly);
}

TEST(Runner, PingPongScalesWithMessageSize) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  double Small = runPingPongOnce(Plat, 0, 1, 1024, 0);
  double Large = runPingPongOnce(Plat, 0, 1, 1024 * 1024, 0);
  EXPECT_GT(Large, 10 * Small);
}

TEST(Runner, HockneyMeasurementRecoversPlatformScale) {
  Platform Plat = smallCluster();
  Plat.NoiseSigma = 0.0;
  AdaptiveOptions Quick;
  Quick.MinReps = 2;
  Quick.MaxReps = 3;
  HockneyParams H = measureHockneyParams(Plat, 0, 1, {}, Quick);
  // Test platform: one-way latency path ~12us fixed + 1 ns/B.
  EXPECT_GT(H.Alpha, 5e-6);
  EXPECT_LT(H.Alpha, 30e-6);
  EXPECT_NEAR(H.Beta, 1e-9, 0.3e-9);
}

//===----------------------------------------------------------------------===//
// Broadcast runners: one compile and one engine per measurement
//===----------------------------------------------------------------------===//

TEST(BcastRunner, MatchesPerRepetitionRunScheduleOracle) {
  const Platform Plat = noisyTestPlatform(12);
  forCleanAndFaulted("straggler-root", [&] {
    for (BcastAlgorithm Alg : AllBcastAlgorithms)
      for (std::uint64_t Seed : {std::uint64_t(1), std::uint64_t(7919)}) {
        SCOPED_TRACE(std::string(bcastAlgorithmName(Alg)) + " seed " +
                     std::to_string(Seed));
        const BcastConfig Config = bcastConfig(Alg, 48000);
        AdaptiveOptions Options;
        Options.MinReps = 3;
        Options.MaxReps = 6;
        Options.BaseSeed = Seed;
        const RunnerOracle Plain = bcastOracle(12, Config, std::nullopt);
        const RunnerOracle Gathered = bcastOracle(12, Config, 2048);
        expectSameMeasurement(measureBcast(Plat, 12, Config, Options),
                              Plain.measure(Plat, Options));
        expectSameMeasurement(
            measureBcastGather(Plat, 12, Config, 2048, Options),
            Gathered.measure(Plat, Options));
        EXPECT_EQ(runBcastOnce(Plat, 12, Config, Seed),
                  Plain.runOnce(Plat, Seed));
        EXPECT_EQ(runBcastGatherOnce(Plat, 12, Config, 2048, Seed),
                  Gathered.runOnce(Plat, Seed));
      }
  });
}

TEST(BcastRunner, RepetitionsReplayOnAWarmArena) {
  const Platform Plat = noisyTestPlatform(12);
  const BcastConfig Config = bcastConfig(BcastAlgorithm::Binomial, 65536);
  {
    SCOPED_TRACE("broadcast");
    expectWarmReplays(8, [&](const AdaptiveOptions &Options) {
      return measureBcast(Plat, 12, Config, Options);
    });
  }
  SCOPED_TRACE("bcast+gather");
  expectWarmReplays(8, [&](const AdaptiveOptions &Options) {
    return measureBcastGather(Plat, 12, Config, 4096, Options);
  });
}

TEST(BcastRunner, MeasurementMakesNoInternLookups) {
  // Adaptive measurements compile their experiment once and never
  // touch the intern cache; only single-shot runs intern.
  const Platform Plat = noisyTestPlatform(12);
  const BcastConfig Config = bcastConfig(BcastAlgorithm::SplitBinary, 65536);
  AdaptiveOptions Options;
  Options.MinReps = 3;
  Options.MaxReps = 6;
  GammaEstimationOptions Gamma;
  Gamma.MaxP = 6;
  Gamma.Adaptive = Options;
  ScheduleInternCache Cache;
  ScheduleInternCache::ScopedGlobal Install(Cache);
  measureBcast(Plat, 12, Config, Options);
  measureBcastGather(Plat, 12, Config, 4096, Options);
  CalibratedModels Models;
  Models.Gamma = estimateGamma(Plat, Gamma).Gamma;
  evaluateSelectionPoint(Plat, 12, 65536, Models, Options);
  EXPECT_EQ(Cache.stats().Hits + Cache.stats().Misses, 0u);

  runBcastOnce(Plat, 12, Config, 1);
  runBcastOnce(Plat, 12, Config, 2);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

TEST(BcastRunner, MeasureFeedsDriftSentinelOncePerRepetition) {
  const Platform Plat = noisyTestPlatform(12);
  CalibratedModels Models;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    AlgorithmCalibration &C = Models.Algorithms[static_cast<unsigned>(Alg)];
    C.Algorithm = Alg;
    C.Alpha = 1e-5;
    C.Beta = 1e-9;
  }
  DriftSentinel Sentinel(DriftMode::Warn);
  Sentinel.bindModels(&Models);
  ScopedDriftSentinel Install(Sentinel);
  AdaptiveOptions Options;
  Options.MinReps = 4;
  Options.MaxReps = 12;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    SCOPED_TRACE(bcastAlgorithmName(Alg));
    const BcastConfig Config = bcastConfig(Alg, 65536);
    const std::uint64_t Before = Sentinel.stats().Samples;
    const AdaptiveResult R = measureBcast(Plat, 12, Config, Options);
    ASSERT_GE(R.Observations.size(), Options.MinReps);
    EXPECT_EQ(Sentinel.stats().Samples - Before, R.Observations.size());
    // The calibration experiment is not the sentinel's feed.
    const std::uint64_t Gathered = Sentinel.stats().Samples;
    measureBcastGather(Plat, 12, Config, 4096, Options);
    EXPECT_EQ(Sentinel.stats().Samples, Gathered);
  }
}
