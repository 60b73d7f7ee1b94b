//===- perfbench/cpp/StreamWorkload.cpp - Streamed replay at P=100k -------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// stream_100k: warm StreamEngine replays of the five streamable
// broadcasts at P=100k. It is the only workload that runs
// coll/BcastStream, sim/StreamEngine and the sim/EventQueue calendar
// queue, next to the compiled engine's heap that the paper workloads
// use. The cold first replay of each plan sizes the engine and counts
// as set-up. The measured best algorithm per P becomes a decision
// table whose served answers the run checks at its end.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "coll/BcastStream.h"
#include "sim/Engine.h"
#include "sim/StreamEngine.h"

#include <algorithm>
#include <memory>

using namespace mpicsel;

namespace perfbench {
namespace {

constexpr unsigned SetupRepeats = 3;
constexpr unsigned ScaleProcs = 100000;
/// The rank count at which the materialised engine still serves as
/// the streamed engine's oracle.
constexpr unsigned OracleProcs = 4096;
constexpr std::uint64_t MessageBytes = 32 << 10;

BcastConfig streamConfig(BcastAlgorithm Alg) {
  BcastConfig C;
  C.Algorithm = Alg;
  C.MessageBytes = MessageBytes;
  C.SegmentBytes = Alg == BcastAlgorithm::Linear ? 0 : 8 << 10;
  return C;
}

std::vector<BcastAlgorithm> streamableAlgorithms() {
  std::vector<BcastAlgorithm> Algs;
  for (BcastAlgorithm Alg : AllBcastAlgorithms)
    if (bcastSupportsStreaming(streamConfig(Alg), ScaleProcs))
      Algs.push_back(Alg);
  return Algs;
}

/// The set-up: the platform, one plan per streamable algorithm, and a
/// fresh engine whose cold first replay of every plan sizes it.
struct StreamSetup {
  Platform Plat;
  std::vector<BcastAlgorithm> Algs;
  std::vector<BcastStreamPlan> Plans;
  std::vector<std::uint64_t> Seeds;
  std::vector<double> ColdMakespans;
  std::unique_ptr<StreamEngine> Engine;
  double ColdSeconds = 0.0;
  bool ColdCompleted = true;
  /// Queries over the measured table's grid, for its serving check.
  std::vector<Query> Queries;
};

StreamSetup setupStream(std::uint64_t Seed) {
  StreamSetup S{makeScalePlatform(ScaleProcs),
                streamableAlgorithms(),
                {},
                {},
                {},
                std::make_unique<StreamEngine>(),
                0.0,
                true,
                makeQueries({OracleProcs, ScaleProcs}, {MessageBytes},
                            TableQueries, deriveSeed(Seed, 130))};
  for (std::size_t I = 0; I != S.Algs.size(); ++I) {
    S.Plans.push_back(makeBcastStreamPlan(streamConfig(S.Algs[I]), ScaleProcs));
    S.Seeds.push_back(deriveSeed(Seed, 200 + I));
  }
  const std::uint64_t Start = nowNs();
  for (std::size_t I = 0; I != S.Plans.size(); ++I) {
    const ExecutionResult &R = S.Engine->run(S.Plans[I], S.Plat, S.Seeds[I]);
    S.ColdCompleted = S.ColdCompleted && R.Completed;
    S.ColdMakespans.push_back(R.Makespan);
  }
  S.ColdSeconds = secondsBetween(Start, nowNs());
  return S;
}

/// Bitwise comparison of two runs' timelines and byte counters.
bool identicalTimelines(const ExecutionResult &A, const ExecutionResult &B) {
  if (A.Completed != B.Completed || A.Makespan != B.Makespan ||
      A.Timings.size() != B.Timings.size())
    return false;
  for (std::size_t I = 0; I != A.Timings.size(); ++I) {
    const OpTiming &TA = A.Timings[I], &TB = B.Timings[I];
    if (TA.Done != TB.Done || TA.ReadyTime != TB.ReadyTime ||
        TA.StartTime != TB.StartTime || TA.DoneTime != TB.DoneTime)
      return false;
  }
  return A.BytesReceived == B.BytesReceived && A.BytesSent == B.BytesSent;
}

} // namespace

void runStream100k(const RunOptions &Opts, RunRecord &Rec) {
  std::vector<double> ColdSeconds;
  const StreamSetup S = repeatSetup(
      SetupRepeats, Rec, [&] { return setupStream(Opts.Seed); },
      [&](const StreamSetup &Fresh) {
        ColdSeconds.push_back(Fresh.ColdSeconds);
        Rec.Attempted += Fresh.Plans.size();
        Rec.fail(Fresh.ColdCompleted ? 0 : 1,
                 "cold streamed replay did not complete");
      });

  // Timed: whole passes over the five plans until the time is up. Every
  // warm replay must reproduce its cold replay's makespan exactly.
  std::uint64_t Disagreements = 0;
  std::uint64_t Events = 0;
  double Total = 0.0;
  {
    ScopedSpan Span(Rec.Spans, "stream.passes");
    const double Cpu0 = threadCpuSeconds();
    while (anotherUnit(Total, Rec.SolveSeconds.size(), Opts.Seconds)) {
      const std::uint64_t Start = nowNs();
      for (std::size_t I = 0; I != S.Plans.size(); ++I) {
        const ExecutionResult &R =
            S.Engine->run(S.Plans[I], S.Plat, S.Seeds[I]);
        Disagreements +=
            (R.Completed && R.Makespan == S.ColdMakespans[I]) ? 0 : 1;
        Events += S.Engine->eventsProcessed();
      }
      const double Pass = secondsBetween(Start, nowNs());
      Rec.SolveSeconds.push_back(Pass);
      Total += Pass;
    }
    Rec.layer("stream_cpu_seconds", threadCpuSeconds() - Cpu0);
  }
  Rec.Attempted += S.Plans.size() * Rec.SolveSeconds.size();
  Rec.fail(Disagreements, "warm streamed replay disagrees with the cold one");
  Rec.layer("stream_events", static_cast<double>(Events));
  Rec.layer("stream_seconds", Total);
  Rec.layer("stream_peak_events", static_cast<double>(S.Engine->peakEvents()));
  Rec.layer("stream_footprint_bytes",
            static_cast<double>(S.Engine->footprintBytes()));
  Rec.layer("stream_cold_replay_s", median(ColdSeconds));

  // Differential at P=4096: each streamed timeline is bit-identical to
  // the compiled engine replaying the materialised schedule.
  DecisionTable Measured;
  Measured.Collective = CollectiveOp::Bcast;
  Measured.Procs = {OracleProcs, ScaleProcs};
  Measured.MessageSizes = {MessageBytes};
  {
    ScopedSpan Span(Rec.Spans, "stream.differential");
    const Platform Plat = makeScalePlatform(OracleProcs);
    StreamEngine SE;
    Engine Oracle;
    StreamOptions Record;
    Record.RecordTimings = true;
    std::uint64_t Divergent = 0;
    double Best = 0.0;
    unsigned BestAlg = 0;
    for (std::size_t I = 0; I != S.Algs.size(); ++I) {
      const BcastConfig C = streamConfig(S.Algs[I]);
      const ExecutionResult Streamed =
          SE.run(makeBcastStreamPlan(C, OracleProcs), Plat, S.Seeds[I],
                 nullptr, Record);
      ScheduleBuilder B(OracleProcs);
      appendBcast(B, C);
      const CompiledSchedule CS = compileSchedule(B.take());
      Divergent +=
          identicalTimelines(Oracle.run(CS, Plat, S.Seeds[I]), Streamed) ? 0
                                                                         : 1;
      if (I == 0 || Streamed.Makespan < Best) {
        Best = Streamed.Makespan;
        BestAlg = static_cast<unsigned>(S.Algs[I]);
      }
      Rec.ResultHash = mixHash(Rec.ResultHash, Streamed.Makespan);
    }
    Rec.Attempted += S.Algs.size();
    Rec.fail(Divergent, "streamed timeline differs from the compiled oracle");
    Measured.Choice.push_back(BestAlg);
  }
  const auto Fastest =
      std::min_element(S.ColdMakespans.begin(), S.ColdMakespans.end());
  Measured.Choice.push_back(
      static_cast<unsigned>(S.Algs[Fastest - S.ColdMakespans.begin()]));
  for (double M : S.ColdMakespans)
    Rec.ResultHash = mixHash(Rec.ResultHash, M);

  ScopedSpan Span(Rec.Spans, "serve.check");
  checkServedTables({Measured}, {S.Queries}, Rec);
}

} // namespace perfbench
