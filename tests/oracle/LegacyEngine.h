//===- tests/oracle/LegacyEngine.h - Reference interpreter ------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original heap-walking schedule interpreter, kept outside the
/// library as the differential-testing oracle for the compiled engine
/// (sim/Engine.h). It walks the builder IR (mpi/Schedule.h) op by op
/// with hash-map channels, a binary heap and freshly allocated working
/// state per run. Semantics and results are identical to runSchedule;
/// only the execution machinery differs. Linked by the tests and by
/// bench/micro_engine, never by the library or the tools.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_TESTS_ORACLE_LEGACYENGINE_H
#define MPICSEL_TESTS_ORACLE_LEGACYENGINE_H

#include "sim/Engine.h"

namespace mpicsel {

/// Executes \p S on \p P through the legacy interpreter. Same
/// contract as runSchedule: seed, fault resolution (null consults the
/// process-wide schedule) and the MPICSEL_VERIFY pre-flight
/// cross-check.
ExecutionResult runScheduleLegacy(const Schedule &S, const Platform &P,
                                  std::uint64_t Seed = 0,
                                  const FaultSchedule *Faults = nullptr);

} // namespace mpicsel

#endif // MPICSEL_TESTS_ORACLE_LEGACYENGINE_H
