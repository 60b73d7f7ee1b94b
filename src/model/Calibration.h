//===- model/Calibration.h - Algorithm-specific alpha/beta ------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second innovation (Sect. 4.2): estimate alpha and beta
/// *separately for each collective algorithm*, from communication
/// experiments in which the modelled algorithm itself dominates.
///
/// Experiment (one per message size m_i): the modelled collective of
/// m_i over P ranks, immediately followed by a linear gather without
/// synchronisation of m_g_i per rank, timed on the root. Its model is
///
///   T_i = (A_i + P - 1) * alpha + (B_i + (P-1) * m_g_i) * beta,
///
/// where (A_i, B_i) are the collective's implementation-derived cost
/// coefficients. Dividing by (A_i + P - 1) puts every equation in the
/// canonical form `alpha + beta * x_i = t_i` of the paper's Fig. 4;
/// the stacked system over the message sizes is solved with the
/// Huber regressor [25].
///
/// One loop runs this for every collective (model/CollectiveModels.h).
/// The broadcast adds what only it has: quality gates and retries, the
/// CalibrationReport, a threaded sweep and the single-algorithm repair
/// of the drift sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_CALIBRATION_H
#define MPICSEL_MODEL_CALIBRATION_H

#include "cluster/Platform.h"
#include "coll/Algorithms.h"
#include "model/CollectiveModels.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mpicsel {

/// What happened to one calibration experiment (one message size of
/// one algorithm): every retry, rejection and the final verdict.
struct ExperimentRecord {
  std::uint64_t MessageBytes = 0;
  std::uint64_t GatherBytes = 0;
  /// Measurement attempts consumed (1 = no retry).
  unsigned Attempts = 1;
  /// Observations the MAD screen rejected in the final attempt.
  unsigned OutliersRejected = 0;
  /// Whether the final attempt met the precision target.
  bool Converged = false;
  /// Relative precision achieved by the final attempt.
  double Precision = 0.0;
  /// The mean used in the canonical system.
  double Mean = 0.0;
};

/// One quality-gate verdict for one algorithm's calibration.
struct QualityGateResult {
  /// Gate identifier ("fit-valid", "r2", "residual", "alpha",
  /// "beta", "converged-fraction").
  std::string Gate;
  bool Passed = true;
  /// Human-readable detail ("R2 0.31 < 0.90").
  std::string Detail;
};

/// The structured per-algorithm quality record of a calibration run.
struct AlgorithmCalibrationReport {
  BcastAlgorithm Algorithm = BcastAlgorithm::Linear;
  std::vector<ExperimentRecord> Experiments;
  std::vector<QualityGateResult> Gates;
  /// All gates passed: the model is fit for selection.
  bool Usable = true;

  unsigned totalRetries() const {
    unsigned Retries = 0;
    for (const ExperimentRecord &E : Experiments)
      Retries += E.Attempts - 1;
    return Retries;
  }
  unsigned totalOutliersRejected() const {
    unsigned Rejected = 0;
    for (const ExperimentRecord &E : Experiments)
      Rejected += E.OutliersRejected;
    return Rejected;
  }
};

/// The full calibration quality report: one record per algorithm.
/// With gates disabled every model is marked usable and the records
/// still describe what was measured.
struct CalibrationReport {
  std::array<AlgorithmCalibrationReport, NumBcastAlgorithms> Algorithms;

  const AlgorithmCalibrationReport &of(BcastAlgorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }
  unsigned usableCount() const {
    unsigned Count = 0;
    for (const AlgorithmCalibrationReport &A : Algorithms)
      Count += A.Usable ? 1 : 0;
    return Count;
  }
  /// Renders the report as a human-readable multi-line summary.
  std::string str() const;
};

/// Calibration result for one broadcast algorithm.
using AlgorithmCalibration = AlgorithmFit<BcastAlgorithm>;

/// The calibrated broadcast models. The name is kept for
/// perfbench/cpp/PaperWorkloads.cpp.
using CalibratedModels = CollectiveModels<CollectiveOp::Bcast>;

/// Runs the full broadcast calibration (gamma, then per-algorithm
/// alpha/beta) on \p P; perfbench/cpp/PaperWorkloads.cpp calls it by
/// name. This is the offline stage of the paper's method; its cost
/// is independent of the application.
///
/// With Options.Quality.Enabled the per-experiment measurements are
/// screened and retried and the per-algorithm fits are checked
/// against the quality gates; \p Report (if non-null) receives the
/// structured record of every retry, rejection and gate verdict.
/// With the quality policy disabled (the default) the behaviour --
/// and every produced number -- is identical to the unguarded pass,
/// and a degenerate regression aborts as before.
CalibratedModels calibrate(const Platform &P,
                           const CalibrationOptions &Options = {},
                           CalibrationReport *Report = nullptr);

/// Recalibrates a single algorithm's stage-2 system (alpha/beta) on
/// \p P, reusing an already-estimated \p Gamma instead of re-running
/// stage 1. With \p Attempt == 0 the experiments, their seeds, the
/// canonical assembly and the fit are exactly those the full
/// calibrate() pass runs for \p Alg, so the result is bit-identical
/// to a full pass under the same conditions -- this is the targeted
/// repair primitive of the drift sentinel (drift/Drift.h): one
/// algorithm's ~10 experiments instead of the full
/// (gamma + 6-algorithm) campaign. \p Attempt != 0 reseeds the whole
/// measurement stream and grows the repetition budget (the repair
/// retry/backoff), deterministically per attempt.
AlgorithmCalibration
calibrateSingleAlgorithm(const Platform &P, const CalibrationOptions &Options,
                         const GammaFunction &Gamma, BcastAlgorithm Alg,
                         unsigned Attempt = 0,
                         AlgorithmCalibrationReport *Report = nullptr);

} // namespace mpicsel

#endif // MPICSEL_MODEL_CALIBRATION_H
