//===- tests/TestAudit.cpp - Model/table auditor defect injection ----------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Defect-injection suite for the performance auditor, mirroring the
// TestVerify approach for the schedule verifier: start from a clean
// calibration of a small platform (which must audit clean), perturb
// one artifact at a time -- negative beta, NaN alpha, a non-monotone
// gamma table, a crushed linear model, swapped table cells -- and
// assert the matching check class fires. Also covers the
// DecisionCache interplay: a corrupt-but-parseable cached entry must
// be flagged by the post-calibration audit instead of being served
// silently.
//
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"
#include "model/DecisionCache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

using namespace mpicsel;

namespace {

/// A small fast platform with mild noise.
Platform smallCluster() {
  Platform P = makeTestPlatform(24);
  P.NoiseSigma = 0.01;
  return P;
}

/// Calibration options trimmed for test runtime.
CalibrationOptions quickOptions(unsigned NumProcs = 12) {
  CalibrationOptions Options;
  Options.NumProcs = NumProcs;
  Options.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  Options.Adaptive.MinReps = 3;
  Options.Adaptive.MaxReps = 8;
  return Options;
}

/// One clean calibration shared by every test: the baseline every
/// perturbation starts from.
const CalibratedModels &cleanModels() {
  static const CalibratedModels Models =
      calibrate(smallCluster(), quickOptions());
  return Models;
}

/// Audit options matched to the platform the baseline was calibrated
/// on: communicators up to its size, the calibrated message range.
AuditOptions testOptions() {
  AuditOptions Options;
  Options.Procs = {2, 4, 8, 16};
  Options.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  return Options;
}

/// Whether \p Report holds at least one finding of \p Check.
bool fired(const AuditReport &Report, AuditCheck Check) {
  for (const AuditFinding &F : Report.Findings)
    if (F.Check == Check)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Clean baseline
//===----------------------------------------------------------------------===//

TEST(Audit, CleanCalibrationAuditsClean) {
  AuditReport Report = auditModels(cleanModels(), testOptions());
  EXPECT_EQ(Report.violations(), 0u) << Report.str();
  EXPECT_GT(Report.ChecksRun, 100u);
}

TEST(Audit, CleanDecisionTableAuditsClean) {
  AuditOptions Options = testOptions();
  DecisionTable T = buildDecisionTable(cleanModels(), Options.Procs,
                                       Options.MessageSizes);
  AuditReport Report = auditDecisionTable(T, cleanModels(), Options);
  EXPECT_EQ(Report.violations(), 0u) << Report.str();
}

TEST(Audit, TaggedAllreduceTableAuditsCleanGenerically) {
  // The op-generic table audit: a tagged allreduce table built from
  // the calibrated allreduce models' own selectBest must pass the
  // same shape/argmin/island checks through a cost callback.
  constexpr CollectiveOp Allreduce = CollectiveOp::Allreduce;
  CollectiveOptions<Allreduce> CalOptions;
  CalOptions.NumProcs = 12;
  CalOptions.MessageSizes = {8192, 32768, 131072, 524288, 2097152};
  CalOptions.Adaptive.MinReps = 3;
  CalOptions.Adaptive.MaxReps = 8;
  CalOptions.GammaOptions.Adaptive.MinReps = 3;
  CalOptions.GammaOptions.Adaptive.MaxReps = 8;
  const CollectiveModels<Allreduce> Models =
      calibrateCollective<Allreduce>(smallCluster(), CalOptions);
  AuditOptions Options = testOptions();
  const DecisionTable T =
      buildDecisionTable(Models, Options.Procs, Options.MessageSizes);
  EXPECT_EQ(T.Collective, CollectiveOp::Allreduce);
  const TableCostFn Predict = [&Models](unsigned Choice, unsigned P,
                                        std::uint64_t M) {
    return Models.predict(static_cast<AllreduceAlgorithm>(Choice), P, M);
  };
  AuditReport Report = auditDecisionTable(T, Predict, Options);
  EXPECT_EQ(Report.violations(), 0u) << Report.str();

  // A swapped cell must fire the consistency check here exactly as it
  // does for bcast tables.
  DecisionTable Swapped = T;
  Swapped.Choice[0] =
      (Swapped.Choice[0] + 1) % NumAllreduceAlgorithms;
  EXPECT_TRUE(fired(auditDecisionTable(Swapped, Predict, Options),
                    AuditCheck::TableConsistency));
}

TEST(Audit, WrongCollectiveTableVsBcastModelsIsViolation) {
  // Auditing a non-bcast table against the bcast model set is a
  // category error the bcast overload must flag, not silently score
  // with the wrong cost functions.
  AuditOptions Options = testOptions();
  DecisionTable T = buildDecisionTable(cleanModels(), Options.Procs,
                                       Options.MessageSizes);
  T.Collective = CollectiveOp::Allreduce;
  AuditReport Report = auditDecisionTable(T, cleanModels(), Options);
  EXPECT_EQ(Report.violations(), 1u) << Report.str();
  EXPECT_TRUE(fired(Report, AuditCheck::TableConsistency));
}

TEST(Audit, ReportIsIdenticalForAnyThreadCount) {
  AuditOptions Serial = testOptions();
  Serial.Threads = 1;
  AuditOptions Fanned = testOptions();
  Fanned.Threads = 4;
  AuditReport A = auditModels(cleanModels(), Serial);
  AuditReport B = auditModels(cleanModels(), Fanned);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_EQ(A.ChecksRun, B.ChecksRun);
}

//===----------------------------------------------------------------------===//
// Parameter defects
//===----------------------------------------------------------------------===//

TEST(Audit, NegativeBetaFiresParamRange) {
  CalibratedModels M = cleanModels();
  M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Chain)].Beta = -1e-9;
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::ParamRange)) << Report.str();
  EXPECT_GT(Report.violations(), 0u);
}

TEST(Audit, NonFiniteAlphaFiresParamFinite) {
  CalibratedModels M = cleanModels();
  M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Binomial)].Alpha =
      std::numeric_limits<double>::quiet_NaN();
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::ParamFinite)) << Report.str();
  EXPECT_GT(Report.violations(), 0u);
}

TEST(Audit, ZeroSegmentSizeFiresParamRange) {
  CalibratedModels M = cleanModels();
  M.SegmentBytes = 0;
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::ParamRange)) << Report.str();
}

TEST(Audit, StronglyNegativeAlphaFiresCostPositive) {
  CalibratedModels M = cleanModels();
  M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Linear)].Alpha = -1.0;
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::CostPositive)) << Report.str();
}

//===----------------------------------------------------------------------===//
// Gamma defects
//===----------------------------------------------------------------------===//

TEST(Audit, NonMonotoneGammaFiresGammaShape) {
  CalibratedModels M = cleanModels();
  // gamma(4) = 2.5, gamma(5) = 1.2: a dip far beyond the tolerance.
  M.Gamma = GammaFunction({1.0, 1.8, 2.5, 1.2, 2.9, 3.4, 3.9});
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::GammaShape)) << Report.str();
  EXPECT_GT(Report.violations(), 0u);
}

TEST(Audit, GammaBelowOneFiresGammaShape) {
  CalibratedModels M = cleanModels();
  M.Gamma = GammaFunction({1.0, 0.7, 1.4, 1.9, 2.3, 2.8, 3.2});
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::GammaShape)) << Report.str();
}

TEST(Audit, DecreasingGammaFiresMonotoneProcs) {
  CalibratedModels M = cleanModels();
  // Monotonically *decreasing* gamma beyond P=3: every model's cost
  // then shrinks as the communicator grows -- impossible on hardware.
  M.Gamma = GammaFunction({1.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0});
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::MonotoneProcs)) << Report.str();
}

//===----------------------------------------------------------------------===//
// Cost-shape and guideline defects
//===----------------------------------------------------------------------===//

TEST(Audit, NegativeBetaAlsoBreaksMessageMonotonicity) {
  CalibratedModels M = cleanModels();
  // The linear model's A = gamma(P) is constant in m, so its cost is
  // gamma(P) * (alpha + m * beta): with a negative beta and an alpha
  // large enough to keep it positive, the cost strictly *decreases*
  // in m. (The segmented models hide small negative betas behind
  // their growing alpha terms -- exactly why the monotonicity check
  // exists alongside the parameter range check.)
  AlgorithmCalibration &Linear =
      M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Linear)];
  Linear.Alpha = 1e-3;
  Linear.Beta = -1e-10;
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::MonotoneMessage)) << Report.str();
}

TEST(Audit, CrushedLinearModelFiresGuideline) {
  CalibratedModels M = cleanModels();
  AlgorithmCalibration &Linear =
      M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Linear)];
  // A contaminated calibration that makes the flat linear tree look
  // ~100x cheaper per byte than every segmented algorithm: the
  // segmented-beats-linear-bulk guideline must reject it.
  Linear.Alpha /= 100.0;
  Linear.Beta /= 100.0;
  AuditReport Report = auditModels(M, testOptions());
  EXPECT_TRUE(fired(Report, AuditCheck::Guideline)) << Report.str();
  EXPECT_GT(Report.violations(), 0u);
}

//===----------------------------------------------------------------------===//
// Decision-table defects
//===----------------------------------------------------------------------===//

TEST(Audit, SwappedTableCellFiresConsistency) {
  AuditOptions Options = testOptions();
  DecisionTable T = buildDecisionTable(cleanModels(), Options.Procs,
                                       Options.MessageSizes);
  // Overwrite one cell with the predicted-worst algorithm at that
  // grid point (guaranteed not the argmin).
  const unsigned P = T.Procs.back();
  const std::uint64_t Msg = T.MessageSizes.back();
  BcastAlgorithm Worst = BcastAlgorithm::Linear;
  double WorstCost = -1.0;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const double Cost = cleanModels().predict(Alg, P, Msg);
    if (Cost > WorstCost) {
      WorstCost = Cost;
      Worst = Alg;
    }
  }
  T.Choice[(T.Procs.size() - 1) * T.MessageSizes.size() +
           (T.MessageSizes.size() - 1)] = static_cast<unsigned>(Worst);
  AuditReport Report = auditDecisionTable(T, cleanModels(), Options);
  EXPECT_TRUE(fired(Report, AuditCheck::TableConsistency)) << Report.str();
  EXPECT_GT(Report.violations(), 0u);
}

TEST(Audit, MalformedTableShapesAreFlagged) {
  AuditOptions Options = testOptions();
  const CalibratedModels &M = cleanModels();

  DecisionTable Unsorted = buildDecisionTable(M, Options.Procs,
                                              Options.MessageSizes);
  std::swap(Unsorted.Procs[0], Unsorted.Procs[1]);
  EXPECT_TRUE(fired(auditDecisionTable(Unsorted, M, Options),
                    AuditCheck::TableShape));

  DecisionTable Truncated = buildDecisionTable(M, Options.Procs,
                                               Options.MessageSizes);
  Truncated.Choice.pop_back();
  EXPECT_TRUE(fired(auditDecisionTable(Truncated, M, Options),
                    AuditCheck::TableShape));

  DecisionTable BadAlg = buildDecisionTable(M, Options.Procs,
                                            Options.MessageSizes);
  BadAlg.Choice[0] = 99;
  EXPECT_TRUE(fired(auditDecisionTable(BadAlg, M, Options),
                    AuditCheck::TableShape));

  DecisionTable Empty;
  EXPECT_TRUE(fired(auditDecisionTable(Empty, M, Options),
                    AuditCheck::TableShape));
}

TEST(Audit, NarrowCrossoverIslandIsWarned) {
  // A hand-built row A A X A A: a one-cell island inside a uniform
  // band. Islands are warnings (suspicious, not provably broken), so
  // they must not flip the exit-gating violation count by themselves.
  DecisionTable T;
  T.Procs = {4};
  T.MessageSizes = {8192, 16384, 32768, 65536, 131072};
  T.Choice.assign(5, static_cast<unsigned>(BcastAlgorithm::Binomial));
  T.Choice[2] = static_cast<unsigned>(BcastAlgorithm::Chain);
  AuditOptions Options;
  Options.Procs = {4};
  Options.MessageSizes = T.MessageSizes;
  // Island detection only; the hand-built choices are not argmins.
  Options.ConsistencyTolerance = std::numeric_limits<double>::infinity();
  AuditReport Report = auditDecisionTable(T, cleanModels(), Options);
  EXPECT_TRUE(fired(Report, AuditCheck::TableIsland)) << Report.str();
  for (const AuditFinding &F : Report.Findings)
    if (F.Check == AuditCheck::TableIsland) {
      EXPECT_EQ(F.Sev, AuditSeverity::Warning);
    }
}

//===----------------------------------------------------------------------===//
// Table diffing
//===----------------------------------------------------------------------===//

TEST(Audit, DiffDetectsChangedCellsAndGridMismatch) {
  AuditOptions Options = testOptions();
  DecisionTable A = buildDecisionTable(cleanModels(), Options.Procs,
                                       Options.MessageSizes);
  EXPECT_TRUE(diffDecisionTables(A, A).identical());

  DecisionTable B = A;
  B.Choice[3] = B.Choice[3] == static_cast<unsigned>(BcastAlgorithm::Chain)
                    ? static_cast<unsigned>(BcastAlgorithm::Binomial)
                    : static_cast<unsigned>(BcastAlgorithm::Chain);
  TableDiff Diff = diffDecisionTables(A, B);
  ASSERT_TRUE(Diff.Comparable);
  ASSERT_EQ(Diff.Changed.size(), 1u);
  EXPECT_EQ(Diff.Changed[0].MessageBytes, A.MessageSizes[3]);
  EXPECT_EQ(Diff.Changed[0].Before, A.Choice[3]);
  EXPECT_EQ(Diff.Changed[0].After, B.Choice[3]);

  DecisionTable C = A;
  C.Procs.push_back(C.Procs.back() * 2);
  for (std::size_t I = 0; I != C.MessageSizes.size(); ++I)
    C.Choice.push_back(static_cast<unsigned>(BcastAlgorithm::Linear));
  EXPECT_FALSE(diffDecisionTables(A, C).Comparable);
}

//===----------------------------------------------------------------------===//
// File IO helpers
//===----------------------------------------------------------------------===//

TEST(Audit, TableFileRoundTrips) {
  AuditOptions Options = testOptions();
  DecisionTable T = buildDecisionTable(cleanModels(), Options.Procs,
                                       Options.MessageSizes);
  const std::string Path = ::testing::TempDir() + "mpicsel-audit-table.txt";
  ASSERT_TRUE(writeDecisionTableFile(Path, T));
  DecisionTable Back;
  ASSERT_TRUE(readDecisionTableFile(Path, Back));
  EXPECT_TRUE(diffDecisionTables(T, Back).identical());
  DecisionTable Missing;
  EXPECT_FALSE(readDecisionTableFile(Path + ".absent", Missing));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// MPICSEL_AUDIT policy and the DecisionCache interplay
//===----------------------------------------------------------------------===//

namespace {

/// Guard restoring MPICSEL_AUDIT around a test.
class AuditEnvGuard {
public:
  explicit AuditEnvGuard(const char *Value) {
    const char *Old = std::getenv("MPICSEL_AUDIT");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
    if (Value)
      setenv("MPICSEL_AUDIT", Value, 1);
    else
      unsetenv("MPICSEL_AUDIT");
  }
  ~AuditEnvGuard() {
    if (HadOld)
      setenv("MPICSEL_AUDIT", OldValue.c_str(), 1);
    else
      unsetenv("MPICSEL_AUDIT");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

} // namespace

TEST(Audit, AuditModeParsesTheEnvironment) {
  {
    AuditEnvGuard Guard(nullptr);
    EXPECT_EQ(auditModeFromEnv(), AuditMode::Warn);
  }
  {
    AuditEnvGuard Guard("warn");
    EXPECT_EQ(auditModeFromEnv(), AuditMode::Warn);
  }
  {
    AuditEnvGuard Guard("off");
    EXPECT_EQ(auditModeFromEnv(), AuditMode::Off);
  }
  {
    AuditEnvGuard Guard("strict");
    EXPECT_EQ(auditModeFromEnv(), AuditMode::Strict);
  }
}

TEST(AuditDeathTest, UnknownAuditModeIsFatal) {
  AuditEnvGuard Guard("loose");
  EXPECT_DEATH(auditModeFromEnv(), "MPICSEL_AUDIT");
}

TEST(Audit, CorruptButParseableCacheEntryIsFlagged) {
  // A cached calibration that parses cleanly but carries a negative
  // beta: bit-exact storage faithfully round-trips the defect, so
  // only the post-calibration audit stands between it and the
  // selection pipeline.
  const std::string Dir =
      ::testing::TempDir() + "mpicsel-audit-corrupt-cache";
  Platform P = smallCluster();
  CalibrationOptions Options = quickOptions();
  CalibratedModels Poisoned = cleanModels();
  Poisoned.Algorithms[static_cast<unsigned>(BcastAlgorithm::Chain)].Beta =
      -1e-9;
  {
    DecisionCache Cache(Dir);
    ASSERT_TRUE(Cache.storeModels(
        DecisionCache::calibrationKey(P, Options), Poisoned));
  }

  // Warn (the default): the entry is served -- bit-exact, defect
  // included -- and the direct audit flags it.
  {
    AuditEnvGuard Guard("warn");
    DecisionCache Cache(Dir);
    CalibratedModels Served = calibrateCached(P, Options, Cache);
    EXPECT_EQ(Cache.stats().Hits, 1u);
    EXPECT_EQ(
        Served.Algorithms[static_cast<unsigned>(BcastAlgorithm::Chain)].Beta,
        -1e-9);
    AuditReport Report = auditModels(Served, testOptions());
    EXPECT_TRUE(fired(Report, AuditCheck::ParamRange)) << Report.str();
  }

  DecisionCache(Dir).clear();
}

TEST(AuditDeathTest, StrictModeRejectsCorruptCacheEntry) {
  const std::string Dir =
      ::testing::TempDir() + "mpicsel-audit-strict-cache";
  Platform P = smallCluster();
  CalibrationOptions Options = quickOptions();
  CalibratedModels Poisoned = cleanModels();
  Poisoned.Algorithms[static_cast<unsigned>(BcastAlgorithm::Chain)].Beta =
      -1e-9;
  DecisionCache Cache(Dir);
  ASSERT_TRUE(Cache.storeModels(
      DecisionCache::calibrationKey(P, Options), Poisoned));

  AuditEnvGuard Guard("strict");
  EXPECT_DEATH(
      {
        DecisionCache InnerCache(Dir);
        calibrateCached(P, Options, InnerCache);
      },
      "MPICSEL_AUDIT=strict");
  DecisionCache(Dir).clear();
}

TEST(Audit, OffModeSkipsThePostCalibrationAudit) {
  AuditEnvGuard Guard("off");
  CalibratedModels M = cleanModels();
  M.Algorithms[static_cast<unsigned>(BcastAlgorithm::Chain)].Beta = -1e-9;
  AuditReport Report = postCalibrationAudit(M, "off-test", 16);
  EXPECT_TRUE(Report.clean());
  EXPECT_EQ(Report.ChecksRun, 0u);
}
