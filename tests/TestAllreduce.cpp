//===- tests/TestAllreduce.cpp - Allreduce extension tests -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Tests of the collective-zoo extension: the paper's methodology
// applied to MPI_Allreduce (coll/Allreduce.h +
// model/CollectiveModels.h).
//
//===----------------------------------------------------------------------===//

#include "coll/Allreduce.h"
#include "coll/OmpiDecision.h"
#include "model/CollectiveModels.h"
#include "oracle/RunnerOracle.h"
#include "sim/Engine.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace mpicsel;

namespace {

constexpr CollectiveOp ThisOp = CollectiveOp::Allreduce;

/// One run of the library's allreduce experiment, closed by a gather of
/// \p GatherBytes when given.
double runOnce(const Platform &P, unsigned NumProcs,
               const AllreduceConfig &Config, std::uint64_t Seed,
               std::optional<std::uint64_t> GatherBytes = std::nullopt) {
  return runExperimentOnce(
      P, CollectiveDescriptor<ThisOp>::experiment(P, NumProcs, Config,
                                                  GatherBytes),
      Seed, "allreduce");
}

Platform testPlatform(unsigned NumProcs) { return makeTestPlatform(NumProcs); }

using AllreduceCase = std::tuple<AllreduceAlgorithm, unsigned, std::uint64_t>;

std::vector<AllreduceCase> allreduceCases() {
  std::vector<AllreduceCase> Cases;
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
    for (unsigned Size : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 24u, 33u})
      for (std::uint64_t Bytes : {std::uint64_t(7), std::uint64_t(20000)})
        Cases.emplace_back(Alg, Size, Bytes);
  return Cases;
}

/// The allreduce experiment of the runners, rebuilt per repetition.
RunnerOracle allreduceOracle(const Platform &P, unsigned NumProcs,
                             AllreduceConfig Config,
                             std::optional<std::uint64_t> GatherBytes) {
  if (Config.ComputeSecondsPerByte == 0.0)
    Config.ComputeSecondsPerByte = P.ReduceComputePerByte;
  RunnerOracle O;
  O.NumProcs = NumProcs;
  O.Append = [Config](ScheduleBuilder &B) {
    return appendAllreduce(B, Config);
  };
  O.GatherBytes = GatherBytes;
  O.Tag = Config.Tag;
  return O;
}

/// calibrateCollective's allreduce sweep with every observation taken
/// through the oracle. \p Gamma comes from the library (its
/// estimation runs the broadcast runners, not the ones under test).
CollectiveModels<ThisOp>
oracleCalibrateAllreduce(const Platform &Plat,
                         const CollectiveOptions<ThisOp> &Options,
                         const GammaFunction &Gamma) {
  CollectiveModels<ThisOp> Models;
  Models.Gamma = Gamma;
  Models.SegmentBytes = Options.SegmentBytes;
  const unsigned NumProcs = Options.NumProcs;
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    std::vector<double> X, T;
    for (std::size_t I = 0; I != Options.MessageSizes.size(); ++I) {
      const std::uint64_t Bytes = Options.MessageSizes[I];
      AllreduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = Bytes;
      Config.SegmentBytes = Alg == AllreduceAlgorithm::ReduceBcast
                                ? Options.SegmentBytes
                                : 0;
      std::uint64_t GatherBytes = std::max<std::uint64_t>(512, Bytes / 64);
      if (GatherBytes == Options.SegmentBytes)
        GatherBytes += 512;
      AdaptiveOptions Adaptive = Options.Adaptive;
      Adaptive.BaseSeed += 0x1000000ull * static_cast<unsigned>(Alg) +
                           0x100ull * I;
      const double Mean =
          allreduceOracle(Plat, NumProcs, Config, GatherBytes)
              .measure(Plat, Adaptive)
              .Stats.Mean;
      const CostCoefficients C =
          allreduceCostCoefficients(Alg, NumProcs, Bytes, Config.SegmentBytes,
                                    Gamma) +
          linearGatherCostCoefficients(NumProcs, GatherBytes);
      X.push_back(C.B / C.A);
      T.push_back(Mean / C.A);
    }
    AlgorithmFit<AllreduceAlgorithm> &Calib =
        Models.Algorithms[static_cast<unsigned>(Alg)];
    Calib.Algorithm = Alg;
    Calib.Fit = fitHuber(X, T);
    Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
    Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  }
  return Models;
}

} // namespace

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, ValidatesExecutesAndBalancesTraffic) {
  auto [Alg, Size, MessageBytes] = GetParam();
  Platform P = testPlatform(Size);

  ScheduleBuilder B(Size);
  AllreduceConfig Config;
  Config.Algorithm = Alg;
  Config.MessageBytes = MessageBytes;
  Config.ComputeSecondsPerByte = 4e-10;
  std::vector<OpId> Exit = appendAllreduce(B, Config);
  ASSERT_EQ(Exit.size(), Size);
  Schedule S = B.take();

  std::string Why;
  ASSERT_TRUE(validateSchedule(S, &Why)) << Why;
  ScheduleContract C = allreduceContract(Config, Size);
  VerifyReport Report = verifySchedule(S, &C);
  // The degenerate single-rank schedule is one dependency-free join,
  // which the dead-op lint flags by design; errors/warnings still fail.
  if (Size == 1)
    ASSERT_TRUE(Report.clean(Severity::Warning)) << Report.str();
  else
    ASSERT_TRUE(Report.Findings.empty())
        << allreduceAlgorithmName(Alg) << " P=" << Size
        << " m=" << MessageBytes << ":\n"
        << Report.str();

  ExecutionResult R = runSchedule(S, P);
  ASSERT_TRUE(R.Completed) << R.Diagnostic;
  for (unsigned Rank = 0; Rank != Size; ++Rank)
    EXPECT_TRUE(R.Timings[Exit[Rank]].Done);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllreduceSweep,
                         ::testing::ValuesIn(allreduceCases()));

TEST(Allreduce, NamesRoundTripAndRejectGarbage) {
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    auto Parsed = parseAllreduceAlgorithm(allreduceAlgorithmName(Alg));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Alg);
  }
  EXPECT_FALSE(parseAllreduceAlgorithm("bogus").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("ring ").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("ring,").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("reduce_bcastx").has_value());
  EXPECT_FALSE(parseAllreduceAlgorithm("").has_value());
}

TEST(Allreduce, RingBlocksSpreadTheRemainder) {
  // m = 10, P = 4: blocks 3, 3, 2, 2.
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 0), 3u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 1), 3u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 2), 2u);
  EXPECT_EQ(allreduceRingBlockBytes(10, 4, 3), 2u);
  // A vector shorter than the communicator leaves empty blocks.
  EXPECT_EQ(allreduceRingBlockBytes(2, 5, 0), 1u);
  EXPECT_EQ(allreduceRingBlockBytes(2, 5, 4), 0u);
  std::uint64_t Sum = 0;
  for (unsigned I = 0; I != 5; ++I)
    Sum += allreduceRingBlockBytes(2, 5, I);
  EXPECT_EQ(Sum, 2u);
}

TEST(Allreduce, RecursiveDoublingNonPowerOfTwoFoldsExtraRanks) {
  // P = 5: r = 1, so ranks {0, 1} fold; rank 0 sends once and
  // receives once, rank 1 carries H+1 = 3 exchanges per direction.
  ScheduleBuilder B(5);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  Config.MessageBytes = 4096;
  appendAllreduce(B, Config);
  Schedule S = B.take();
  std::vector<unsigned> Sends(5, 0), Recvs(5, 0);
  for (const Op &O : S.Ops) {
    if (O.Kind == OpKind::Send)
      ++Sends[O.Rank];
    if (O.Kind == OpKind::Recv)
      ++Recvs[O.Rank];
  }
  EXPECT_EQ(Sends[0], 1u);
  EXPECT_EQ(Recvs[0], 1u);
  EXPECT_EQ(Sends[1], 3u);
  EXPECT_EQ(Recvs[1], 3u);
  for (unsigned Rank : {2u, 3u, 4u}) {
    EXPECT_EQ(Sends[Rank], 2u) << Rank;
    EXPECT_EQ(Recvs[Rank], 2u) << Rank;
  }
}

TEST(AllreduceModels, CoefficientsMatchRoundArithmetic) {
  GammaFunction G;
  // P = 16 power of two: H = 4 full-vector rounds.
  CostCoefficients Rd = allreduceCostCoefficients(
      AllreduceAlgorithm::RecursiveDoubling, 16, 64000, 0, G);
  EXPECT_DOUBLE_EQ(Rd.A, 4.0);
  EXPECT_DOUBLE_EQ(Rd.B, 4.0 * 64000);
  // P = 5: the fold adds two rounds.
  CostCoefficients RdOdd = allreduceCostCoefficients(
      AllreduceAlgorithm::RecursiveDoubling, 5, 64000, 0, G);
  EXPECT_DOUBLE_EQ(RdOdd.A, 4.0);
  // Ring: 2(P-1) rounds of m/P.
  CostCoefficients Ring = allreduceCostCoefficients(
      AllreduceAlgorithm::Ring, 16, 64000, 0, G);
  EXPECT_DOUBLE_EQ(Ring.A, 30.0);
  EXPECT_DOUBLE_EQ(Ring.B, 30.0 * 64000 / 16);
  // The composition adds reduce and bcast coefficients.
  CostCoefficients Composed = allreduceCostCoefficients(
      AllreduceAlgorithm::ReduceBcast, 16, 64000, 8192, G);
  EXPECT_GT(Composed.A, 0.0);
  EXPECT_GT(Composed.B, 2.0 * 64000); // Two full traversals of m.
  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    CostCoefficients C = allreduceCostCoefficients(Alg, 1, 64000, 0, G);
    EXPECT_DOUBLE_EQ(C.A, 0.0);
    EXPECT_DOUBLE_EQ(C.B, 0.0);
  }
}

TEST(AllreduceOmpi, FixedDecisionThresholds) {
  EXPECT_EQ(ompiAllreduceDecisionFixed(16, 1024),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(ompiAllreduceDecisionFixed(4, 1 << 20),
            AllreduceAlgorithm::RecursiveDoubling);
  EXPECT_EQ(ompiAllreduceDecisionFixed(16, 1 << 20),
            AllreduceAlgorithm::Ring);
  EXPECT_EQ(ompiAllreduceDecisionFixed(100, 10000),
            AllreduceAlgorithm::Ring);
}

TEST(AllreduceCalibration, EndToEndSelectionIsReasonable) {
  Platform Plat = testPlatform(24);
  Plat.NoiseSigma = 0.01;
  CollectiveOptions<ThisOp> Options;
  Options.NumProcs = 12;
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 6;
  const auto Models = calibrateCollective<ThisOp>(Plat, Options);

  for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
    EXPECT_GE(Models.of(Alg).Alpha, 0.0);
    EXPECT_GE(Models.of(Alg).Beta, 0.0);
    EXPECT_GT(Models.of(Alg).Alpha + Models.of(Alg).Beta, 0.0);
  }

  AdaptiveOptions Quick;
  Quick.MinReps = 3;
  Quick.MaxReps = 6;
  for (std::uint64_t MessageBytes :
       {std::uint64_t(8192), std::uint64_t(131072),
        std::uint64_t(1 << 21)}) {
    double Best = 0, Chosen = 0;
    AllreduceAlgorithm Choice = Models.selectBest(20, MessageBytes);
    for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
      AllreduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      double Time =
          measureCollective<ThisOp>(Plat, 20, Config, Quick).Stats.Mean;
      if (Best == 0 || Time < Best)
        Best = Time;
      if (Alg == Choice)
        Chosen = Time;
    }
    EXPECT_LT(Chosen, 1.5 * Best) << "message " << MessageBytes;
  }
}

TEST(AllreduceRunner, DeterministicAndComposable) {
  Platform Plat = testPlatform(8);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::Ring;
  Config.MessageBytes = 65536;
  EXPECT_EQ(runOnce(Plat, 8, Config, 3), runOnce(Plat, 8, Config, 3));
  double AllreduceOnly = runOnce(Plat, 8, Config, 3);
  double WithGather = runOnce(Plat, 8, Config, 3, 1024);
  EXPECT_GT(WithGather, AllreduceOnly);
}

TEST(AllreduceRunner, MatchesPerRepetitionRunScheduleOracle) {
  const Platform Plat = noisyTestPlatform(12);
  forCleanAndFaulted("straggler-root", [&] {
    for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
      for (std::uint64_t Seed : {std::uint64_t(1), std::uint64_t(7919)}) {
        SCOPED_TRACE(std::string(allreduceAlgorithmName(Alg)) + " seed " +
                     std::to_string(Seed));
        AllreduceConfig Config;
        Config.Algorithm = Alg;
        Config.MessageBytes = 48000;
        Config.SegmentBytes = 8192;
        AdaptiveOptions Options;
        Options.MinReps = 3;
        Options.MaxReps = 6;
        Options.BaseSeed = Seed;
        const RunnerOracle Plain =
            allreduceOracle(Plat, 12, Config, std::nullopt);
        expectSameMeasurement(
            measureCollective<ThisOp>(Plat, 12, Config, Options),
            Plain.measure(Plat, Options));
        EXPECT_EQ(runOnce(Plat, 12, Config, Seed),
                  Plain.runOnce(Plat, Seed));
        EXPECT_EQ(runOnce(Plat, 12, Config, Seed, 2048),
                  allreduceOracle(Plat, 12, Config, 2048).runOnce(Plat, Seed));
      }
  });
}

TEST(AllreduceCalibration, MatchesOracleAtEveryGammaThreadCount) {
  const Platform Plat = noisyTestPlatform(8);
  CollectiveOptions<ThisOp> Options;
  Options.NumProcs = 8;
  Options.MessageSizes = {8192, 65536, 524288};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 5;
  Options.GammaOptions.Adaptive = Options.Adaptive;
  Options.GammaOptions.Threads = 1;
  const auto Serial = calibrateCollective<ThisOp>(Plat, Options);
  Options.GammaOptions.Threads = 4;
  const auto Threaded = calibrateCollective<ThisOp>(Plat, Options);
  for (unsigned P = 2; P <= 8; ++P)
    EXPECT_EQ(Threaded.Gamma(P), Serial.Gamma(P));
  const CollectiveModels<ThisOp> Oracle =
      oracleCalibrateAllreduce(Plat, Options, Serial.Gamma);
  expectSameCalibration(Serial, Oracle);
  expectSameCalibration(Threaded, Oracle);
}

TEST(AllreduceRunner, RepetitionsReplayOnAWarmArena) {
  const Platform Plat = noisyTestPlatform(12);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::Ring;
  Config.MessageBytes = 65536;
  expectWarmReplays(8, [&](const AdaptiveOptions &Options) {
    return measureCollective<ThisOp>(Plat, 12, Config, Options);
  });
}
