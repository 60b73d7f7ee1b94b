//===- perfbench/cpp/PaperWorkloads.cpp - Calibrate-select pipelines ------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The two workloads that run the paper's pipeline end to end, cold:
// calibrate, evaluate the selection against the measured best,
// flatten the models into decision tables, audit them and compile
// the served images.
//
//  * bcast_paper: paper Table 3 (Grisou P=90, Gros P=100) with quick
//    calibration on a 2-thread sweep pool. Selection replays through
//    the interned, warm-arena Runner path.
//  * allreduce_paper: allreduce and allgather calibration plus the
//    selection sweep on both clusters, serial. Its runners replay
//    through runSchedule, which compiles and warms a fresh arena per
//    repetition, so it moves when interning or lowering changes and
//    bcast_paper does not.
//
// An untraced run repeats the pipeline until the run's time is up,
// each time from an empty schedule intern cache; a traced run makes
// one pipeline, so its counters describe exactly one cold pipeline.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "audit/Audit.h"
#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Bcast.h"
#include "coll/OmpiDecision.h"
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
#include "model/Selection.h"
#include "mpi/ScheduleIntern.h"
#include "serve/TableImage.h"

#include <algorithm>
#include <cmath>

using namespace mpicsel;

namespace perfbench {
namespace {

/// The set-up takes about half a millisecond, so each run repeats it
/// often enough (about 0.1 s in all) for a steady median.
constexpr unsigned SetupRepeats = 200;

std::vector<std::uint64_t> allgatherBlocks() {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = 1024; Bytes <= 64 * 1024; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

/// The served grid: every power of two the cluster hosts, as the
/// library's own table publication uses.
std::vector<unsigned> tableProcs(const Platform &P) {
  std::vector<unsigned> Procs;
  for (unsigned N = 2; N <= P.maxProcs(); N *= 2)
    Procs.push_back(N);
  return Procs;
}

AdaptiveOptions quickAdaptive(std::uint64_t Seed) {
  AdaptiveOptions A;
  A.MinReps = 3;
  A.MaxReps = 8;
  A.BaseSeed = Seed;
  return A;
}

/// Model-vs-best summary over a pipeline's selection points.
struct Accuracy {
  unsigned Points = 0;
  unsigned NearOptimal = 0;
  double Worst = 0.0;

  void add(double Degradation) {
    ++Points;
    NearOptimal += Degradation <= 0.10 ? 1 : 0;
    Worst = std::max(Worst, Degradation);
  }
};

/// What one cold pipeline computed and what it cost.
struct Pipeline {
  std::vector<DecisionTable> Tables;
  Accuracy Acc;
  std::uint64_t Hash = 0;
  double Seconds = 0.0;
  double CpuSeconds = 0.0;
  CounterDelta Counters;
  std::uint64_t SelectReplays = 0;
  std::uint64_t SelectMeasurements = 0;
  std::uint64_t SelectObservations = 0;
  std::uint64_t AuditChecks = 0;
  std::uint64_t AuditViolations = 0;
};

/// Checks a measured time: every replay behind it completed (an
/// incomplete one ends the process in the library), so a time that is
/// not finite and positive is a failure of the measurement itself.
void checkTime(double Seconds, RunRecord &Rec) {
  ++Rec.Attempted;
  if (!(std::isfinite(Seconds) && Seconds > 0.0))
    Rec.fail(1, "measured time is not finite and positive");
}

void checkAudit(const AuditReport &Report, Pipeline &Out, RunRecord &Rec) {
  Rec.Attempted += Report.ChecksRun;
  Rec.fail(Report.violations(), "audit violation");
  Out.AuditChecks += Report.ChecksRun;
  Out.AuditViolations += Report.violations();
}

/// Compiles \p Table into a served image and checks that it loads and
/// carries the table's content hash.
void compileImage(const DecisionTable &Table, Pipeline &Out, RunRecord &Rec) {
  ScopedSpan Span(Rec.Spans, "serve.image_compile");
  const std::vector<unsigned char> Bytes =
      serve::compileDecisionTableImage(Table);
  serve::DecisionTableImage Image;
  ++Rec.Attempted;
  if (!Image.loadFromBytes(Bytes.data(), Bytes.size()) ||
      Image.contentHash() != serve::decisionTableContentHash(Table))
    Rec.fail(1, "compiled image does not load or hash as its table");
  Out.Hash = mixHash(Out.Hash, serve::decisionTableContentHash(Table));
}

/// Times one pipeline from an empty schedule intern cache: wall and CPU
/// time, and the obs counters (zero when untraced).
template <typename BodyFn>
Pipeline timePipeline(RunRecord &Rec, BodyFn &&Body) {
  Pipeline Out;
  ScheduleInternCache::global().clear();
  Out.Counters.Before = obs::snapshotMetrics();
  const double Cpu0 = processCpuSeconds();
  const std::uint64_t Start = nowNs();
  {
    ScopedSpan Solve(Rec.Spans, "solve");
    Body(Out);
  }
  Out.Seconds = secondsBetween(Start, nowNs());
  Out.CpuSeconds = processCpuSeconds() - Cpu0;
  Out.Counters.After = obs::snapshotMetrics();
  return Out;
}

/// Runs cold pipelines back to back until the run's time is up (one
/// when traced). Every repetition must compute what the first did.
template <typename PipelineFn>
Pipeline repeatPipelines(const RunOptions &Opts, RunRecord &Rec,
                         PipelineFn &&Run) {
  Pipeline First = Run();
  Rec.SolveSeconds.push_back(First.Seconds);
  double Total = First.Seconds;
  while (!Opts.Trace &&
         anotherUnit(Total, Rec.SolveSeconds.size(), Opts.Seconds)) {
    const Pipeline Again = Run();
    Rec.SolveSeconds.push_back(Again.Seconds);
    Total += Again.Seconds;
    ++Rec.Attempted;
    if (Again.Hash != First.Hash)
      Rec.fail(1, "a repeated pipeline computed different results");
  }
  Rec.ResultHash = First.Hash;
  Rec.layer("model_worst_deg_pct", First.Acc.Worst * 100.0);
  Rec.layer("model_near_opt_share",
            static_cast<double>(First.Acc.NearOptimal) /
                static_cast<double>(First.Acc.Points));
  return First;
}

/// The traced run's counters of its one pipeline.
void recordCounters(const Pipeline &P, unsigned PoolThreads, RunRecord &Rec) {
  using obs::Counter;
  const CounterDelta &D = P.Counters;
  Rec.layer("intern_builds", D(Counter::InternBuilds));
  Rec.layer("intern_hits", D(Counter::InternHits));
  Rec.layer("replays", D(Counter::EngineReplays));
  Rec.layer("events", D(Counter::EngineEvents));
  Rec.layer("arena_reuses", D(Counter::EngineArenaReuses));
  Rec.layer("arena_warmups", D(Counter::EngineArenaWarmups));
  Rec.layer("calib_retries", D(Counter::CalibRetries));
  Rec.layer("pool_tasks", D(Counter::PoolTasks));
  Rec.layer("pool_steals", D(Counter::PoolSteals));
  Rec.layer("gamma_fit_ns", D.phaseNs(obs::Phase::GammaFit));
  Rec.layer("select_replays", P.SelectReplays);
  Rec.layer("select_measurements", P.SelectMeasurements);
  Rec.layer("select_observations", P.SelectObservations);
  Rec.layer("audit_checks", P.AuditChecks);
  Rec.layer("audit_violations", P.AuditViolations);
  Rec.layer("cpu_s", P.CpuSeconds);
  Rec.layer("pool_threads", PoolThreads);
  Rec.layer("solve_s", P.Seconds);
}

/// Median wall time of \p Reps calls of \p Body, in nanoseconds.
template <typename Fn> double medianNs(unsigned Reps, Fn &&Body) {
  std::vector<double> Samples;
  for (unsigned I = 0; I != Reps; ++I) {
    const std::uint64_t Start = nowNs();
    Body();
    Samples.push_back(static_cast<double>(nowNs() - Start));
  }
  return median(std::move(Samples));
}

/// Set-up results need no check of their own.
constexpr auto NoCheck = [](const auto &) {};

//===----------------------------------------------------------------------===//
// bcast_paper
//===----------------------------------------------------------------------===//

struct BcastPanel {
  Platform Plat;
  unsigned SelectProcs = 0;
  CalibrationOptions Calib;
  AdaptiveOptions Select;
  std::vector<unsigned> Procs;
  /// Queries over the served table's grid, for its serving check.
  std::vector<Query> Queries;
};

struct BcastSetup {
  std::vector<BcastPanel> Panels;
};

constexpr unsigned BcastPoolThreads = 2;

BcastSetup setupBcast(std::uint64_t Seed) {
  BcastSetup S;
  S.Panels.push_back({makeGrisou(), 90, {}, {}, {}, {}});
  S.Panels.push_back({makeGros(), 100, {}, {}, {}, {}});
  for (std::size_t I = 0; I != S.Panels.size(); ++I) {
    BcastPanel &P = S.Panels[I];
    P.Calib.NumProcs = P.Plat.Name == "gros" ? 124u : 40u;
    P.Calib.Threads = BcastPoolThreads;
    P.Calib.Adaptive = quickAdaptive(deriveSeed(Seed, 10 + I));
    P.Calib.GammaOptions.Adaptive = quickAdaptive(deriveSeed(Seed, 20 + I));
    // Selection measures with the library's default stopping rules,
    // as the Table 3 reproduction does.
    P.Select.BaseSeed = deriveSeed(Seed, 30 + I);
    P.Procs = tableProcs(P.Plat);
    P.Queries = makeQueries(P.Procs, paperSizes(), TableQueries,
                            deriveSeed(Seed, 100 + I));
  }
  return S;
}

Pipeline bcastPipeline(const std::vector<BcastPanel> &Panels,
                       std::vector<CalibratedModels> &Models, RunRecord &Rec) {
  return timePipeline(Rec, [&](Pipeline &Out) {
    Models.clear();
    for (const BcastPanel &P : Panels) {
      {
        ScopedSpan Span(Rec.Spans, "model.calibrate");
        Models.push_back(calibrate(P.Plat, P.Calib));
        ++Rec.Attempted;
      }
      const CalibratedModels &M = Models.back();
      for (std::uint64_t Bytes : paperSizes()) {
        const std::uint64_t ReplaysBefore =
            obs::snapshotMetrics().counter(obs::Counter::EngineReplays);
        SelectionPoint Pt;
        {
          ScopedSpan Span(Rec.Spans, "model.select_point");
          Pt = evaluateSelectionPoint(P.Plat, P.SelectProcs, Bytes, M,
                                      P.Select);
        }
        Out.SelectReplays +=
            obs::snapshotMetrics().counter(obs::Counter::EngineReplays) -
            ReplaysBefore;
        // Six algorithms at the calibrated segment size, plus Open
        // MPI's choice when it runs at a segment size of its own.
        const BcastDecision Ompi = ompiBcastDecisionFixed(P.SelectProcs, Bytes);
        Out.SelectMeasurements +=
            NumBcastAlgorithms + ((Ompi.SegmentBytes == M.SegmentBytes ||
                                   Ompi.Algorithm == BcastAlgorithm::Linear)
                                      ? 0
                                      : 1);
        for (double T : Pt.MeasuredTime) {
          checkTime(T, Rec);
          Out.Hash = mixHash(Out.Hash, T);
        }
        Out.Hash =
            mixHash(Out.Hash, static_cast<std::uint64_t>(Pt.ModelChoice));
        Out.Acc.add(Pt.modelDegradation());
      }
      {
        ScopedSpan Span(Rec.Spans, "model.table_build");
        Out.Tables.push_back(buildDecisionTable(M, P.Procs, paperSizes()));
      }
      {
        ScopedSpan Span(Rec.Spans, "audit");
        AuditOptions AO;
        AO.Procs = P.Procs;
        checkAudit(auditModels(M, AO), Out, Rec);
        checkAudit(auditDecisionTable(Out.Tables.back(), M, AO), Out, Rec);
      }
      compileImage(Out.Tables.back(), Out, Rec);
    }
  });
}

} // namespace

void runBcastPaper(const RunOptions &Opts, RunRecord &Rec) {
  const BcastSetup S = repeatSetup(
      SetupRepeats, Rec, [&] { return setupBcast(Opts.Seed); }, NoCheck);
  std::vector<CalibratedModels> Models;
  const Pipeline First = repeatPipelines(
      Opts, Rec, [&] { return bcastPipeline(S.Panels, Models, Rec); });
  {
    ScopedSpan Span(Rec.Spans, "serve.check");
    std::vector<std::vector<Query>> Queries;
    for (const BcastPanel &P : S.Panels)
      Queries.push_back(P.Queries);
    checkServedTables(First.Tables, Queries, Rec);
  }
  if (!Opts.Trace)
    return;

  recordCounters(First, BcastPoolThreads, Rec);
  Rec.layer("table_build_ns", medianNs(21, [&] {
              (void)buildDecisionTable(Models.front(), S.Panels.front().Procs,
                                       paperSizes());
            }));
  // Layer timings over the selection grid: every algorithm at every
  // size at the selection P of both clusters.
  std::vector<GridCase> Cases;
  for (std::size_t I = 0; I != S.Panels.size(); ++I)
    for (BcastAlgorithm Alg : AllBcastAlgorithms)
      for (std::uint64_t Bytes : paperSizes()) {
        BcastConfig C;
        C.Algorithm = Alg;
        C.MessageBytes = Bytes;
        C.SegmentBytes =
            Alg == BcastAlgorithm::Linear ? 0 : Models[I].SegmentBytes;
        C.KChainFanout = Models[I].KChainFanout;
        const unsigned P = S.Panels[I].SelectProcs;
        Cases.push_back({&S.Panels[I].Plat, [C, P] {
                           ScheduleBuilder B(P);
                           appendBcast(B, C);
                           return B.take();
                         }});
      }
  ScopedSpan Span(Rec.Spans, "layers.schedule");
  timeScheduleLayers(Cases, Opts.Seed, Rec);
}

//===----------------------------------------------------------------------===//
// allreduce_paper
//===----------------------------------------------------------------------===//

namespace {

struct AllreducePanel {
  Platform Plat;
  unsigned SelectProcs = 0;
  AllreduceCalibrationOptions Allreduce;
  AllgatherCalibrationOptions Allgather;
  AdaptiveOptions Select;
  std::vector<unsigned> Procs;
  /// Queries over the allreduce and the allgather table grids, for
  /// their serving check.
  std::vector<Query> ReduceQueries, GatherQueries;
};

struct AllreduceSetup {
  std::vector<AllreducePanel> Panels;
};

AllreduceSetup setupAllreduce(std::uint64_t Seed) {
  AllreduceSetup S;
  S.Panels.push_back({makeGrisou(), 90, {}, {}, {}, {}, {}, {}});
  S.Panels.push_back({makeGros(), 100, {}, {}, {}, {}, {}, {}});
  for (std::size_t I = 0; I != S.Panels.size(); ++I) {
    AllreducePanel &P = S.Panels[I];
    const unsigned CalibProcs = P.Plat.Name == "gros" ? 124u : 40u;
    P.Allreduce.NumProcs = CalibProcs;
    P.Allreduce.Adaptive = quickAdaptive(deriveSeed(Seed, 40 + I));
    P.Allreduce.GammaOptions.Adaptive = quickAdaptive(deriveSeed(Seed, 50 + I));
    P.Allreduce.GammaOptions.Threads = 1;
    P.Allgather.NumProcs = CalibProcs;
    P.Allgather.Adaptive = quickAdaptive(deriveSeed(Seed, 60 + I));
    P.Allgather.GammaOptions.Adaptive = quickAdaptive(deriveSeed(Seed, 70 + I));
    P.Allgather.GammaOptions.Threads = 1;
    P.Select = quickAdaptive(deriveSeed(Seed, 80 + I));
    P.Procs = tableProcs(P.Plat);
    P.ReduceQueries = makeQueries(P.Procs, paperSizes(), TableQueries,
                                  deriveSeed(Seed, 110 + I));
    P.GatherQueries = makeQueries(P.Procs, allgatherBlocks(), TableQueries,
                                  deriveSeed(Seed, 120 + I));
  }
  return S;
}

/// Measures every algorithm of one op at one size and scores the
/// model's choice against the measured best.
template <typename Alg, std::size_t N, typename MeasureFn>
void selectPoint(const std::array<Alg, N> &Algorithms, Alg ModelChoice,
                 MeasureFn &&Measure, Pipeline &Out, RunRecord &Rec) {
  ScopedSpan Span(Rec.Spans, "model.select_point");
  double Best = 0.0, Model = 0.0;
  for (Alg A : Algorithms) {
    const AdaptiveResult R = Measure(A);
    const double Time = R.Stats.Mean;
    checkTime(Time, Rec);
    Out.Hash = mixHash(Out.Hash, Time);
    ++Out.SelectMeasurements;
    Out.SelectObservations += R.Observations.size();
    if (Best == 0.0 || Time < Best)
      Best = Time;
    if (A == ModelChoice)
      Model = Time;
  }
  Out.Acc.add(Model / Best - 1.0);
}

/// The audit's cost oracle for a table of algorithm ordinals of \p AlgT.
template <typename AlgT, typename ModelsT>
TableCostFn costOracle(const ModelsT &M) {
  return [&M](unsigned Choice, unsigned Procs, std::uint64_t Bytes) {
    return M.predict(static_cast<AlgT>(Choice), Procs, Bytes);
  };
}

Pipeline allreducePipeline(const std::vector<AllreducePanel> &Panels,
                           std::vector<AllreduceModels> &ReduceModels,
                           RunRecord &Rec) {
  return timePipeline(Rec, [&](Pipeline &Out) {
    ReduceModels.clear();
    for (const AllreducePanel &P : Panels) {
      AllreduceModels RM;
      {
        ScopedSpan Span(Rec.Spans, "model.calibrate");
        RM = calibrateAllreduce(P.Plat, P.Allreduce);
        ++Rec.Attempted;
      }
      for (std::uint64_t Bytes : paperSizes())
        selectPoint(
            AllAllreduceAlgorithms, RM.selectBest(P.SelectProcs, Bytes),
            [&](AllreduceAlgorithm A) {
              AllreduceConfig C;
              C.Algorithm = A;
              C.MessageBytes = Bytes;
              C.SegmentBytes = RM.SegmentBytes;
              return measureAllreduce(P.Plat, P.SelectProcs, C, P.Select);
            },
            Out, Rec);

      AllgatherModels GM;
      {
        ScopedSpan Span(Rec.Spans, "model.calibrate");
        GM = calibrateAllgather(P.Plat, P.Allgather);
        ++Rec.Attempted;
      }
      for (std::uint64_t Bytes : allgatherBlocks())
        selectPoint(
            AllAllgatherAlgorithms, GM.selectBest(P.SelectProcs, Bytes),
            [&](AllgatherAlgorithm A) {
              AllgatherConfig C;
              C.Algorithm = A;
              C.BlockBytes = Bytes;
              return measureAllgather(P.Plat, P.SelectProcs, C, P.Select);
            },
            Out, Rec);

      DecisionTable ReduceTable, GatherTable;
      {
        ScopedSpan Span(Rec.Spans, "model.table_build");
        ReduceTable = buildAllreduceDecisionTable(RM, P.Procs, paperSizes());
        GatherTable =
            buildAllgatherDecisionTable(GM, P.Procs, allgatherBlocks());
      }
      {
        ScopedSpan Span(Rec.Spans, "audit");
        AuditOptions AO;
        AO.Procs = P.Procs;
        checkAudit(auditDecisionTable(ReduceTable,
                                      costOracle<AllreduceAlgorithm>(RM), AO),
                   Out, Rec);
        checkAudit(auditDecisionTable(GatherTable,
                                      costOracle<AllgatherAlgorithm>(GM), AO),
                   Out, Rec);
      }
      compileImage(ReduceTable, Out, Rec);
      compileImage(GatherTable, Out, Rec);
      ReduceModels.push_back(RM);
      Out.Tables.push_back(std::move(ReduceTable));
      Out.Tables.push_back(std::move(GatherTable));
    }
  });
}

} // namespace

void runAllreducePaper(const RunOptions &Opts, RunRecord &Rec) {
  const AllreduceSetup S = repeatSetup(
      SetupRepeats, Rec, [&] { return setupAllreduce(Opts.Seed); }, NoCheck);
  std::vector<AllreduceModels> ReduceModels;
  const Pipeline First = repeatPipelines(Opts, Rec, [&] {
    return allreducePipeline(S.Panels, ReduceModels, Rec);
  });
  {
    ScopedSpan Span(Rec.Spans, "serve.check");
    std::vector<std::vector<Query>> Queries;
    for (const AllreducePanel &P : S.Panels) {
      Queries.push_back(P.ReduceQueries);
      Queries.push_back(P.GatherQueries);
    }
    checkServedTables(First.Tables, Queries, Rec);
  }
  if (!Opts.Trace)
    return;

  recordCounters(First, 1, Rec);
  Rec.layer("table_build_ns", medianNs(21, [&] {
              (void)buildAllreduceDecisionTable(
                  ReduceModels.front(), S.Panels.front().Procs, paperSizes());
            }));
  std::vector<GridCase> Cases;
  for (std::size_t I = 0; I != S.Panels.size(); ++I) {
    const Platform *Plat = &S.Panels[I].Plat;
    const unsigned P = S.Panels[I].SelectProcs;
    for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms)
      for (std::uint64_t Bytes : paperSizes()) {
        AllreduceConfig C;
        C.Algorithm = Alg;
        C.MessageBytes = Bytes;
        C.SegmentBytes = ReduceModels[I].SegmentBytes;
        C.ComputeSecondsPerByte = Plat->ReduceComputePerByte;
        Cases.push_back({Plat, [C, P] {
                           ScheduleBuilder B(P);
                           appendAllreduce(B, C);
                           return B.take();
                         }});
      }
    for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms)
      for (std::uint64_t Bytes : allgatherBlocks()) {
        AllgatherConfig C;
        C.Algorithm = Alg;
        C.BlockBytes = Bytes;
        Cases.push_back({Plat, [C, P] {
                           ScheduleBuilder B(P);
                           appendAllgather(B, C);
                           return B.take();
                         }});
      }
  }
  ScopedSpan Span(Rec.Spans, "layers.schedule");
  timeScheduleLayers(Cases, Opts.Seed, Rec);
}

} // namespace perfbench
