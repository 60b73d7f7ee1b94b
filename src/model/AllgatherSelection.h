//===- model/AllgatherSelection.h - Benchmark allgather names ---*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allgather names perfbench/cpp/PaperWorkloads.cpp calls. Each is
/// a one-line alias of the generic path (model/CollectiveModels.h)
/// and goes once the benchmark moves to the generic names.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLGATHERSELECTION_H
#define MPICSEL_MODEL_ALLGATHERSELECTION_H

#include "model/DecisionCache.h"

namespace mpicsel {

// Kept for the benchmark.
using AllgatherCalibrationOptions = CollectiveOptions<CollectiveOp::Allgather>;
// Kept for the benchmark.
using AllgatherModels = CollectiveModels<CollectiveOp::Allgather>;

// Kept for the benchmark.
inline AllgatherModels
calibrateAllgather(const Platform &P, const AllgatherCalibrationOptions &O) {
  return calibrateCollective<CollectiveOp::Allgather>(P, O);
}

// Kept for the benchmark.
inline AdaptiveResult measureAllgather(const Platform &P, unsigned NumProcs,
                                       const AllgatherConfig &Config,
                                       const AdaptiveOptions &Options = {}) {
  return measureCollective<CollectiveOp::Allgather>(P, NumProcs, Config,
                                                    Options);
}

// Kept for the benchmark.
inline DecisionTable
buildAllgatherDecisionTable(const AllgatherModels &Models,
                            std::vector<unsigned> Procs,
                            std::vector<std::uint64_t> MessageSizes) {
  return buildDecisionTable(Models, std::move(Procs), std::move(MessageSizes));
}

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLGATHERSELECTION_H
