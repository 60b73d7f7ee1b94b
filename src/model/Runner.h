//===- model/Runner.h - Measurement harness over the simulator -*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "MPI benchmark program" layer: composes collective schedules
/// into the communication experiments the paper runs and extracts the
/// timings it measures. Three experiments cover everything:
///
///  * a plain broadcast, timed to the last rank's exit (the quantity
///    plotted in Fig. 5 and minimised by the selection);
///  * the Sect. 4.2 calibration experiment -- modelled broadcast
///    followed by a linear gather without synchronisation -- timed on
///    the root;
///  * the Sect. 4.1 gamma experiment -- N successive linear
///    broadcasts separated by barriers -- timed on the root.
///
/// Every adaptive measurement -- measureBcast, measureBcastGather and
/// the other collectives' measureCollective and calibration
/// experiments through measureExperiment --
/// compiles its experiment once, without its source, and replays every
/// repetition on an engine of its own; both are freed when the
/// measurement ends. The paper's method finishes one (algorithm, P, m)
/// experiment before it starts the next, so a schedule is reused only
/// within its measurement: a cache across measurements would hold
/// memory without saving a build, and a long-lived engine would keep
/// the largest arena resident.
///
/// The single-shot runners of broadcast-family experiments
/// (runBcastOnce, runBcastGatherOnce, the trains and the ping-pong)
/// intern their schedules (mpi/ScheduleIntern.h) and replay on a
/// per-thread engine. Their callers invoke them once per repetition in
/// loops of their own, so there reuse across calls is the point.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_RUNNER_H
#define MPICSEL_MODEL_RUNNER_H

#include "cluster/Platform.h"
#include "coll/Bcast.h"
#include "coll/Gather.h"
#include "mpi/ScheduleIntern.h"
#include "stat/AdaptiveBenchmark.h"

#include <cstdint>

namespace mpicsel {

/// Finishes a Sect. 4.2 calibration experiment: appends a linear
/// gather without synchronisation of \p GatherBytes per rank to
/// \p Root after \p After, tagged at \p Tag + 8 (clear of the
/// measured collective's range), and returns the schedule timed on
/// the root's gather exit.
BuiltSchedule closeWithGather(ScheduleBuilder &B,
                              const std::vector<OpId> &After,
                              std::uint64_t GatherBytes, unsigned Root,
                              int Tag);

/// Runs the experiment \p Built once and returns its time: the latest
/// completion among its Exit ops. \p What names the experiment in the
/// deadlock diagnostic.
double runExperimentOnce(const Platform &P, BuiltSchedule Built,
                         std::uint64_t Seed, const char *What);

/// Adaptively repeats the experiment \p Built until the paper's
/// 95%/2.5% criterion is met. The schedule is compiled once, without
/// its source, and replayed on an engine of the measurement's own;
/// both live exactly as long as the measurement.
AdaptiveResult measureExperiment(const Platform &P, BuiltSchedule Built,
                                 const char *What,
                                 const AdaptiveOptions &Options);

/// Runs one broadcast over ranks 0..NumProcs-1 of \p P and returns
/// the collective's completion time: the latest exit over all ranks
/// (the usual definition of collective latency). Aborts on malformed
/// schedules -- those are programming errors.
double runBcastOnce(const Platform &P, unsigned NumProcs,
                    const BcastConfig &Config, std::uint64_t Seed);

/// Adaptively repeats the experiment of runBcastOnce until the paper's
/// 95%/2.5% criterion is met and returns the statistics. Compiled once
/// as measureExperiment does; like runBcastOnce, it feeds every
/// repetition to the installed drift sentinel.
AdaptiveResult measureBcast(const Platform &P, unsigned NumProcs,
                            const BcastConfig &Config,
                            const AdaptiveOptions &Options = {});

/// Runs one Sect. 4.2 calibration experiment: the modelled broadcast
/// immediately followed by a linear gather without synchronisation of
/// \p GatherBytes per rank. Returns the time measured on the root:
/// from experiment start to the root completing the gather.
double runBcastGatherOnce(const Platform &P, unsigned NumProcs,
                          const BcastConfig &Bcast, std::uint64_t GatherBytes,
                          std::uint64_t Seed);

/// Adaptive measurement of the experiment of runBcastGatherOnce,
/// through measureExperiment.
AdaptiveResult measureBcastGather(const Platform &P, unsigned NumProcs,
                                  const BcastConfig &Bcast,
                                  std::uint64_t GatherBytes,
                                  const AdaptiveOptions &Options = {});

/// Runs one Sect. 4.1 gamma experiment: \p Calls successive
/// non-blocking linear broadcasts of \p SegmentBytes over NumProcs
/// ranks, each followed by a dissemination barrier (the barrier makes
/// the root-side timer observe the delivery of every broadcast).
/// Returns T1 / Calls measured on the root, where T1 spans from the
/// start to the root's exit from the last barrier.
double runLinearBcastTrainOnce(const Platform &P, unsigned NumProcs,
                               std::uint64_t SegmentBytes, unsigned Calls,
                               std::uint64_t Seed);

/// Runs \p Calls back-to-back dissemination barriers and returns the
/// root's exit time divided by Calls. Subtracted from
/// runLinearBcastTrainOnce to isolate the broadcast cost (the paper's
/// description leaves the barrier correction implicit; without it the
/// barrier's ceil(log2 P) rounds would leak into gamma).
double runBarrierTrainOnce(const Platform &P, unsigned NumProcs,
                           unsigned Calls, std::uint64_t Seed);

/// Runs one ping-pong between ranks \p RankA and \p RankB and returns
/// the *one-way* time (round trip / 2) -- Hockney's measurement.
double runPingPongOnce(const Platform &P, unsigned RankA, unsigned RankB,
                       std::uint64_t Bytes, std::uint64_t Seed);

} // namespace mpicsel

#endif // MPICSEL_MODEL_RUNNER_H
