//===- model/AllreduceSelection.h - Benchmark allreduce names ---*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allreduce names perfbench/cpp/PaperWorkloads.cpp calls. Each is
/// a one-line alias of the generic path (model/CollectiveModels.h)
/// and goes once the benchmark moves to the generic names.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_ALLREDUCESELECTION_H
#define MPICSEL_MODEL_ALLREDUCESELECTION_H

#include "model/DecisionCache.h"

namespace mpicsel {

// Kept for the benchmark.
using AllreduceCalibrationOptions = CollectiveOptions<CollectiveOp::Allreduce>;
// Kept for the benchmark.
using AllreduceModels = CollectiveModels<CollectiveOp::Allreduce>;

// Kept for the benchmark.
inline AllreduceModels
calibrateAllreduce(const Platform &P, const AllreduceCalibrationOptions &O) {
  return calibrateCollective<CollectiveOp::Allreduce>(P, O);
}

// Kept for the benchmark.
inline AdaptiveResult measureAllreduce(const Platform &P, unsigned NumProcs,
                                       const AllreduceConfig &Config,
                                       const AdaptiveOptions &Options = {}) {
  return measureCollective<CollectiveOp::Allreduce>(P, NumProcs, Config,
                                                    Options);
}

// Kept for the benchmark.
inline DecisionTable
buildAllreduceDecisionTable(const AllreduceModels &Models,
                            std::vector<unsigned> Procs,
                            std::vector<std::uint64_t> MessageSizes) {
  return buildDecisionTable(Models, std::move(Procs), std::move(MessageSizes));
}

} // namespace mpicsel

#endif // MPICSEL_MODEL_ALLREDUCESELECTION_H
