//===- model/Selection.h - Selection evaluation harness ---------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the three decision procedures the paper compares in
/// Fig. 5 and Table 3 at one (P, m) point:
///
///  * the *best* algorithm (green): a-posteriori argmin over the
///    measured times of all six algorithms at the default segment
///    size;
///  * the *model-based* selection (red): the calibrated models'
///    argmin, then its measured time;
///  * the *Open MPI* fixed decision function (blue): the algorithm
///    and segment size Open MPI 3.1 would pick, then its measured
///    time.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_SELECTION_H
#define MPICSEL_MODEL_SELECTION_H

#include "cluster/Platform.h"
#include "coll/OmpiDecision.h"
#include "model/Calibration.h"

#include <array>
#include <cstdint>

namespace mpicsel {

/// The measured landscape and the three selections at one (P, m).
struct SelectionPoint {
  unsigned NumProcs = 0;
  std::uint64_t MessageBytes = 0;

  /// Mean measured time per algorithm at the default segment size.
  std::array<double, NumBcastAlgorithms> MeasuredTime{};

  /// A-posteriori best algorithm and its time.
  BcastAlgorithm Best = BcastAlgorithm::Binomial;
  double BestTime = 0.0;

  /// Model-based selection, its *measured* time and predicted time.
  BcastAlgorithm ModelChoice = BcastAlgorithm::Binomial;
  double ModelChoiceTime = 0.0;
  double ModelPredictedTime = 0.0;

  /// Open MPI decision (algorithm + its own segment size) and its
  /// measured time.
  BcastDecision OmpiChoice;
  double OmpiChoiceTime = 0.0;

  /// Performance degradation (T - T_best)/T_best of a selection.
  double modelDegradation() const {
    return BestTime > 0 ? (ModelChoiceTime - BestTime) / BestTime : 0.0;
  }
  double ompiDegradation() const {
    return BestTime > 0 ? (OmpiChoiceTime - BestTime) / BestTime : 0.0;
  }
};

/// Measures all six algorithms at the calibrated segment size,
/// evaluates both decision procedures and measures their choices.
/// perfbench/cpp/PaperWorkloads.cpp calls it by name.
SelectionPoint evaluateSelectionPoint(const Platform &P, unsigned NumProcs,
                                      std::uint64_t MessageBytes,
                                      const CalibratedModels &Models,
                                      const AdaptiveOptions &Options = {});

} // namespace mpicsel

#endif // MPICSEL_MODEL_SELECTION_H
