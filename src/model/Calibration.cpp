//===- model/Calibration.cpp - Algorithm-specific alpha/beta --------------===//

#include "model/Calibration.h"

#include "model/Runner.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "stat/ParallelSweep.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>

using namespace mpicsel;

namespace {

template <CollectiveOp Op> using Desc = CollectiveDescriptor<Op>;
template <CollectiveOp Op> using Alg = typename Desc<Op>::Algorithm;

/// Measures one calibration experiment, retrying with reseed and a
/// MaxReps backoff when the quality policy is enabled and the
/// measurement does not converge. With the policy disabled this is a
/// single measurement with the historical options -- bit-identical to
/// the unguarded pass.
template <CollectiveOp Op>
AdaptiveResult measureWithRetries(const Platform &Plat, unsigned NumProcs,
                                  const typename Desc<Op>::Config &Config,
                                  std::uint64_t MessageBytes,
                                  std::uint64_t GatherBytes,
                                  AdaptiveOptions Adaptive,
                                  const CalibrationQualityOptions &Quality,
                                  unsigned &AttemptsOut) {
  const std::string What = std::string(collectiveOpName(Op)) + "+gather";
  if (Quality.Enabled) {
    Adaptive.ScreenOutliers = true;
    Adaptive.OutlierMadSigma = Quality.OutlierMadSigma;
  }
  const std::uint64_t BaseSeed = Adaptive.BaseSeed;
  const unsigned BaseMaxReps = Adaptive.MaxReps;
  AdaptiveResult Best;
  for (unsigned Attempt = 0;; ++Attempt) {
    // Attempt 0 keeps the caller's seed (the historical stream);
    // retries reseed so a pathological draw is not replayed, and grow
    // the repetition budget so a noisier regime can still converge.
    if (Attempt != 0) {
      Adaptive.BaseSeed =
          SplitMix64(BaseSeed ^ (0xC13FA9A902A6328Full + Attempt)).next();
      double Grown = static_cast<double>(BaseMaxReps) *
                     std::pow(Quality.BackoffGrowth, Attempt);
      Adaptive.MaxReps = static_cast<unsigned>(std::ceil(Grown));
      // Retries are where a contaminated regime costs wall-clock, so
      // each reseed/backoff is journalled with its grown budget.
      obs::bump(obs::Counter::CalibRetries);
      obs::Journal &J = obs::Journal::global();
      if (J.enabled()) {
        JsonObject Event = J.line("calib_retry");
        Event.set("attempt", Attempt);
        Event.set("max_reps", Adaptive.MaxReps);
        Event.set("procs", NumProcs);
        Event.set("message_bytes", MessageBytes);
        J.write(Event);
      }
    }
    AdaptiveResult R = measureExperiment(
        Plat, Desc<Op>::experiment(Plat, NumProcs, Config, GatherBytes),
        What.c_str(), Adaptive);
    AttemptsOut = Attempt + 1;
    obs::bump(obs::Counter::CalibExperiments);
    obs::bump(obs::Counter::CalibOutliers, R.OutliersRejected);
    // Timing contamination is one-sided (stalls and spikes only add
    // time), so of several attempts the one with the lowest screened
    // mean is closest to the truth.
    if (Attempt == 0 || R.Stats.Mean < Best.Stats.Mean)
      Best = R;
    if (!Quality.Enabled || Attempt >= Quality.MaxRetriesPerExperiment)
      return Best;
    // A batch whose screen rejected a large fraction is suspicious
    // even when it converged: if the contaminated cluster was the
    // majority, the screen kept *it* and rejected the clean tail.
    double RejectedFraction =
        R.Observations.empty()
            ? 0.0
            : static_cast<double>(R.OutliersRejected) /
                  static_cast<double>(R.Observations.size());
    if (R.Converged && RejectedFraction < 0.3)
      return Best;
  }
}

/// Appends one gate verdict and folds it into the usable flag.
void addGate(AlgorithmCalibrationReport &Rep, const char *Gate, bool Passed,
             std::string Detail) {
  Rep.Gates.push_back({Gate, Passed, std::move(Detail)});
  Rep.Usable = Rep.Usable && Passed;
}

/// Evaluates the per-algorithm quality gates against the canonical
/// fit and the experiment records.
template <typename CalibT>
void evaluateGates(const CalibT &Calib,
                   AlgorithmCalibrationReport &Rep,
                   const CalibrationQualityOptions &Quality) {
  if (!Calib.Fit.Valid) {
    addGate(Rep, "fit-valid", false, "degenerate regression");
    return; // The remaining gates are meaningless without a line.
  }
  addGate(Rep, "fit-valid", true, "");

  unsigned ConvergedCount = 0;
  for (const ExperimentRecord &E : Rep.Experiments)
    ConvergedCount += E.Converged ? 1 : 0;
  double ConvergedFraction =
      Rep.Experiments.empty()
          ? 1.0
          : static_cast<double>(ConvergedCount) /
                static_cast<double>(Rep.Experiments.size());
  addGate(Rep, "converged-fraction",
          ConvergedFraction >= Quality.MinConvergedFraction,
          strFormat("%u/%zu converged (need %s)", ConvergedCount,
                    Rep.Experiments.size(),
                    formatPercent(Quality.MinConvergedFraction).c_str()));

  const double MedianT = median(Calib.CanonicalT);

  bool AlphaOk = Calib.Fit.Intercept <= Quality.MaxAlpha &&
                 Calib.Fit.Intercept >= -Quality.AlphaSlack * MedianT;
  addGate(Rep, "alpha", AlphaOk,
          strFormat("intercept %s (median t %s)",
                    formatSci(Calib.Fit.Intercept).c_str(),
                    formatSci(MedianT).c_str()));

  // A small negative slope is healed downstream (Beta is clamped to
  // zero for prediction), so it only disqualifies the model when the
  // fitted line collapses within the calibrated range: the prediction
  // at the largest observed x must stay a meaningful fraction of the
  // median time. A steep contamination-driven negative slope fails
  // this; the near-flat fits of alpha-dominated algorithms pass.
  const double MaxX =
      Calib.CanonicalX.empty()
          ? 0.0
          : *std::max_element(Calib.CanonicalX.begin(),
                              Calib.CanonicalX.end());
  const double FitAtMaxX = Calib.Fit.Intercept + Calib.Fit.Slope * MaxX;
  bool BetaOk = Calib.Fit.Slope <= Quality.MaxBeta &&
                (Calib.Fit.Slope >= 0.0 ||
                 FitAtMaxX >= Quality.BetaSlack * MedianT);
  addGate(Rep, "beta", BetaOk,
          strFormat("slope %s, fit at max x %s (median t %s)",
                    formatSci(Calib.Fit.Slope).c_str(),
                    formatSci(FitAtMaxX).c_str(),
                    formatSci(MedianT).c_str()));

  addGate(Rep, "r2", Calib.Fit.R2 >= Quality.MinR2,
          strFormat("R2 %.3f (need %.3f)", Calib.Fit.R2, Quality.MinR2));

  bool ResidualOk =
      MedianT > 0.0 && Calib.Fit.Rmse <= Quality.MaxRelativeRmse * MedianT;
  addGate(Rep, "residual", ResidualOk,
          strFormat("rmse %s = %s of median t",
                    formatSci(Calib.Fit.Rmse).c_str(),
                    formatPercent(MedianT > 0.0 ? Calib.Fit.Rmse / MedianT
                                                : 0.0)
                        .c_str()));
}

/// The resolved stage-2 experiment grid: process count plus the
/// paired message/gather size ramps. calibrate() and
/// calibrateSingleAlgorithm() must resolve identically, or the
/// targeted repair loses its bit-identity with the full pass.
struct CalibrationGrid {
  unsigned NumProcs = 0;
  std::vector<std::uint64_t> MessageSizes;
  std::vector<std::uint64_t> GatherSizes;
};

template <CollectiveOp Op>
CalibrationGrid resolveCalibrationGrid(const Platform &Plat,
                                       const CalibrationOptions &Options) {
  CalibrationGrid Grid;
  Grid.NumProcs = Options.NumProcs;
  if (Grid.NumProcs == 0)
    Grid.NumProcs = std::max(2u, Plat.maxProcs() / 2);
  if (Grid.NumProcs > Plat.maxProcs())
    fatalError("calibration requests more processes than the platform hosts");
  Grid.MessageSizes = Options.MessageSizes;
  if (Grid.MessageSizes.empty())
    Grid.MessageSizes = Desc<Op>::defaultSizes();
  Grid.GatherSizes = Options.GatherSizes;
  if (Grid.GatherSizes.empty())
    for (std::uint64_t Bytes : Grid.MessageSizes)
      Grid.GatherSizes.push_back(
          Desc<Op>::defaultGather(Bytes, Options.SegmentBytes));
  if (Grid.GatherSizes.size() != Grid.MessageSizes.size())
    fatalError("calibration needs one gather size per message size");
  return Grid;
}

/// One stage-2 measurement plus its quality record.
struct ExperimentOutcome {
  AdaptiveResult Result;
  ExperimentRecord Record;
};

/// The model query of the (Alg, I) experiment of \p Grid.
template <CollectiveOp Op>
BcastModelQuery pointQuery(const CalibrationGrid &Grid,
                           const CalibrationOptions &Options, Alg<Op> A,
                           std::size_t I) {
  return {Grid.NumProcs, Grid.MessageSizes[I],
          Desc<Op>::segmented(A) ? Options.SegmentBytes : 0,
          Options.KChainFanout};
}

/// Runs the (Alg, I) stage-2 experiment of \p Grid. The seed derives
/// from the grid position off \p BaseAdaptive, so any sweep order --
/// and the single-algorithm repair pass -- reproduces the full pass's
/// measurement stream bit for bit.
template <CollectiveOp Op>
ExperimentOutcome runCalibrationPoint(const Platform &Plat,
                                      const CalibrationGrid &Grid,
                                      const CalibrationOptions &Options,
                                      const AdaptiveOptions &BaseAdaptive,
                                      Alg<Op> A, std::size_t I) {
  AdaptiveOptions Adaptive = BaseAdaptive;
  Adaptive.BaseSeed = BaseAdaptive.BaseSeed +
                      Desc<Op>::SeedStride * static_cast<unsigned>(A) +
                      0x100ull * I;
  ExperimentOutcome Outcome;
  Outcome.Record.MessageBytes = Grid.MessageSizes[I];
  Outcome.Record.GatherBytes = Grid.GatherSizes[I];
  Outcome.Result = measureWithRetries<Op>(
      Plat, Grid.NumProcs,
      Desc<Op>::config(A, pointQuery<Op>(Grid, Options, A, I)),
      Grid.MessageSizes[I], Grid.GatherSizes[I], Adaptive, Options.Quality,
      Outcome.Record.Attempts);
  Outcome.Record.OutliersRejected = Outcome.Result.OutliersRejected;
  Outcome.Record.Converged = Outcome.Result.Converged;
  Outcome.Record.Precision = Outcome.Result.Stats.relativePrecision();
  Outcome.Record.Mean = Outcome.Result.Stats.Mean;
  return Outcome;
}

/// Assembles one algorithm's canonical system from its \p Outcomes
/// (one per grid size, in grid order), fits it, applies the
/// physical clamps and -- when enabled -- the quality gates.
template <CollectiveOp Op>
void assembleAlgorithm(const CalibrationGrid &Grid,
                       const CalibrationOptions &Options,
                       const GammaFunction &Gamma, Alg<Op> A,
                       const ExperimentOutcome *Outcomes,
                       AlgorithmFit<Alg<Op>> &Calib,
                       AlgorithmCalibrationReport &Rep) {
  Calib.Algorithm = A;
  for (std::size_t I = 0; I != Grid.MessageSizes.size(); ++I) {
    const ExperimentOutcome &Outcome = Outcomes[I];
    Rep.Experiments.push_back(Outcome.Record);

    // Canonical form of Fig. 4: T / (A_tot) = alpha + beta * (B_tot
    // / A_tot).
    CostCoefficients Total =
        Desc<Op>::cost(A, pointQuery<Op>(Grid, Options, A, I), Gamma) +
        linearGatherCostCoefficients(Grid.NumProcs, Grid.GatherSizes[I]);
    assert(Total.A > 0 && "degenerate experiment coefficients");
    Calib.CanonicalX.push_back(Total.B / Total.A);
    Calib.CanonicalT.push_back(Outcome.Result.Stats.Mean / Total.A);
  }

  Calib.Fit = Options.UseHuber
                  ? fitHuber(Calib.CanonicalX, Calib.CanonicalT)
                  : fitLeastSquares(Calib.CanonicalX, Calib.CanonicalT);
  if (!Calib.Fit.Valid && !Options.Quality.Enabled)
    fatalError(strFormat("%s alpha/beta regression degenerate for "
                         "algorithm %s",
                         collectiveOpName(Op),
                         collectiveAlgorithmName(
                             Op, static_cast<unsigned>(A))));
  // Physically, both parameters are non-negative; tiny negative
  // intercepts are regression noise (the paper's alphas are
  // O(1e-12)).
  Calib.Alpha = std::max(Calib.Fit.Intercept, 0.0);
  Calib.Beta = std::max(Calib.Fit.Slope, 0.0);
  if (Options.Quality.Enabled)
    evaluateGates(Calib, Rep, Options.Quality);
}

/// The calibration of \p Op under the resolved plan \p Options:
/// gamma (Sect. 4.1), then one canonical system per algorithm
/// (Sect. 4.2). \p Reports, when given, receives one record per
/// algorithm.
template <CollectiveOp Op>
CollectiveModels<Op> calibrateModels(const Platform &Plat,
                                     const CalibrationOptions &Options,
                                     AlgorithmCalibrationReport *Reports) {
  obs::PhaseSpan CalibSpan(obs::Phase::Calibration, Plat.Name);
  CollectiveModels<Op> Models;
  Models.SegmentBytes = Options.SegmentBytes;
  Models.KChainFanout = Options.KChainFanout;

  const CalibrationGrid Grid = resolveCalibrationGrid<Op>(Plat, Options);
  const unsigned Threads = resolveSweepThreads(Options.Threads);

  // Stage 1 (Sect. 4.1): gamma, measured far enough for every gamma
  // argument the models can ask for.
  GammaEstimationOptions GammaOpts = Options.GammaOptions;
  GammaOpts.MaxP = std::max(
      GammaOpts.MaxP, maxGammaArgument(Plat.maxProcs(),
                                       Desc<Op>::gammaFanout(
                                           Options.KChainFanout)));
  GammaOpts.MaxP = std::min(GammaOpts.MaxP, Plat.maxProcs());
  GammaOpts.SegmentBytes = Options.SegmentBytes;
  if (Options.Quality.Enabled) {
    GammaOpts.Adaptive.ScreenOutliers = true;
    GammaOpts.Adaptive.OutlierMadSigma = Options.Quality.OutlierMadSigma;
  }
  {
    obs::PhaseSpan GammaSpan(obs::Phase::GammaFit);
    Models.Gamma = estimateGamma(Plat, GammaOpts).Gamma;
  }

  // Stage 2 (Sect. 4.2): one linear system per algorithm. The
  // (algorithm x message-size) experiments are mutually independent
  // and each derives its seed from its grid position, so they fan
  // across the sweep pool; the canonical systems are then assembled
  // serially in grid order, making the results bit-identical to the
  // historical nested loop for any thread count.
  const auto &Algorithms = Desc<Op>::Algorithms;
  const std::size_t NumSizes = Grid.MessageSizes.size();
  std::vector<ExperimentOutcome> Outcomes = sweepIndexed<ExperimentOutcome>(
      Threads, Algorithms.size() * NumSizes, [&](std::size_t Task) {
        return runCalibrationPoint<Op>(Plat, Grid, Options, Options.Adaptive,
                                       Algorithms[Task / NumSizes],
                                       Task % NumSizes);
      });
  for (std::size_t Index = 0; Index != Algorithms.size(); ++Index) {
    AlgorithmCalibrationReport Rep;
    assembleAlgorithm<Op>(Grid, Options, Models.Gamma, Algorithms[Index],
                          Outcomes.data() + Index * NumSizes,
                          Models.Algorithms[Index], Rep);
    if (Reports)
      Reports[Index] = std::move(Rep);
  }
  return Models;
}

/// The plan of an op without a quality policy or a threaded sweep.
template <typename OptionsT>
CalibrationOptions calibrationPlan(const OptionsT &O) {
  CalibrationOptions Plan;
  Plan.NumProcs = O.NumProcs;
  Plan.GammaOptions = O.GammaOptions;
  Plan.Adaptive = O.Adaptive;
  Plan.UseHuber = O.UseHuber;
  Plan.Threads = 1;
  if constexpr (std::is_same_v<OptionsT, BlockCalibrationOptions>) {
    // No block algorithm is segmented: keep the gamma stage's own size.
    Plan.SegmentBytes = O.GammaOptions.SegmentBytes;
    Plan.MessageSizes = O.BlockSizes;
    Plan.GatherSizes = O.GatherSizes;
  } else {
    Plan.SegmentBytes = O.SegmentBytes;
    Plan.MessageSizes = O.MessageSizes;
  }
  return Plan;
}

} // namespace

template <CollectiveOp Op>
CollectiveModels<Op>
mpicsel::calibrateCollective(const Platform &Plat,
                             const CollectiveOptions<Op> &Options) {
  return calibrateModels<Op>(Plat, calibrationPlan(Options), nullptr);
}

template CollectiveModels<CollectiveOp::Scatter>
mpicsel::calibrateCollective<CollectiveOp::Scatter>(
    const Platform &, const BlockCalibrationOptions &);
template CollectiveModels<CollectiveOp::Reduce>
mpicsel::calibrateCollective<CollectiveOp::Reduce>(
    const Platform &, const VectorCalibrationOptions &);
template CollectiveModels<CollectiveOp::Allgather>
mpicsel::calibrateCollective<CollectiveOp::Allgather>(
    const Platform &, const BlockCalibrationOptions &);
template CollectiveModels<CollectiveOp::Allreduce>
mpicsel::calibrateCollective<CollectiveOp::Allreduce>(
    const Platform &, const VectorCalibrationOptions &);

std::string CalibrationReport::str() const {
  std::string Out;
  for (const AlgorithmCalibrationReport &A : Algorithms) {
    Out += strFormat("%-14s %s", bcastAlgorithmName(A.Algorithm),
                     A.Usable ? "usable  " : "EXCLUDED");
    Out += strFormat("  retries %u  outliers %u", A.totalRetries(),
                     A.totalOutliersRejected());
    for (const QualityGateResult &G : A.Gates)
      if (!G.Passed)
        Out += strFormat("  [%s: %s]", G.Gate.c_str(), G.Detail.c_str());
    Out += '\n';
  }
  return Out;
}

CalibratedModels mpicsel::calibrate(const Platform &Plat,
                                    const CalibrationOptions &Options,
                                    CalibrationReport *Report) {
  // Both stages fan their independent experiments over one resolved
  // thread count, with bit-identical results.
  CalibrationOptions Plan = Options;
  Plan.Threads = resolveSweepThreads(Options.Threads);
  Plan.GammaOptions.Threads = Plan.Threads;
  CalibrationReport LocalReport;
  CalibratedModels Models = calibrateModels<CollectiveOp::Bcast>(
      Plat, Plan, LocalReport.Algorithms.data());
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    LocalReport.Algorithms[static_cast<unsigned>(Alg)].Algorithm = Alg;
  if (Report)
    *Report = std::move(LocalReport);
  return Models;
}

AlgorithmCalibration mpicsel::calibrateSingleAlgorithm(
    const Platform &Plat, const CalibrationOptions &Options,
    const GammaFunction &Gamma, BcastAlgorithm Alg, unsigned Attempt,
    AlgorithmCalibrationReport *Report) {
  constexpr CollectiveOp Bcast = CollectiveOp::Bcast;
  const CalibrationGrid Grid = resolveCalibrationGrid<Bcast>(Plat, Options);
  const unsigned Threads = resolveSweepThreads(Options.Threads);

  // Attempt 0 replays the full pass's exact measurement stream for
  // this algorithm (the per-experiment seeds derive from the grid
  // position). Repair retries reseed the whole stream and grow the
  // repetition budget, mirroring the per-experiment retry policy.
  AdaptiveOptions Base = Options.Adaptive;
  if (Attempt != 0) {
    Base.BaseSeed =
        SplitMix64(Base.BaseSeed ^ (0xA24BAED4963EE407ull + Attempt)).next();
    const double Growth =
        Options.Quality.Enabled ? Options.Quality.BackoffGrowth : 2.0;
    Base.MaxReps = static_cast<unsigned>(std::ceil(
        static_cast<double>(Base.MaxReps) * std::pow(Growth, Attempt)));
  }

  std::vector<ExperimentOutcome> Outcomes = sweepIndexed<ExperimentOutcome>(
      Threads, Grid.MessageSizes.size(), [&](std::size_t I) {
        return runCalibrationPoint<Bcast>(Plat, Grid, Options, Base, Alg, I);
      });

  AlgorithmCalibration Calib;
  AlgorithmCalibrationReport Rep;
  Rep.Algorithm = Alg;
  assembleAlgorithm<Bcast>(Grid, Options, Gamma, Alg, Outcomes.data(), Calib,
                           Rep);
  if (Report)
    *Report = std::move(Rep);
  return Calib;
}
