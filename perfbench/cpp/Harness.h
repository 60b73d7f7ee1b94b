//===- perfbench/cpp/Harness.h - Shared benchmark harness -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// options, seed derivation, clocks, the in-memory span recorder of the
/// traced run, the raw-result record the binary prints, repeated
/// set-up timing, and the check that built tables are served as
/// built.
///
/// The benchmark measures the library from outside: spans wrap calls
/// into public functions, counters come from the obs registry
/// snapshot, and nothing here reaches into library internals.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_PERFBENCH_HARNESS_H
#define MPICSEL_PERFBENCH_HARNESS_H

#include "cluster/Platform.h"
#include "model/DecisionCache.h"
#include "mpi/Schedule.h"
#include "obs/Metrics.h"
#include "support/Json.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

/// Derives an independent 64-bit seed for stream \p Salt of the run
/// seed \p Seed (splitmix64 finaliser), so every consumer of the
/// workload seed draws from its own stream.
std::uint64_t deriveSeed(std::uint64_t Seed, std::uint64_t Salt);

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsBetween(std::uint64_t StartNs, std::uint64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e9;
}

/// Whether a timed phase that has spent \p Spent seconds on \p Units
/// units of work starts another: it does while that unit's expected
/// midpoint falls before \p Seconds, so a run times about \p Seconds
/// whether its units take milliseconds or a sixth of the run.
inline bool anotherUnit(double Spent, std::size_t Units, double Seconds) {
  return Units == 0 || Spent + Spent / static_cast<double>(Units) / 2 < Seconds;
}

/// CPU time of the process (all threads) and of the calling thread, in
/// seconds.
double processCpuSeconds();
double threadCpuSeconds();

/// Median of \p Values (the upper one of an even count); 0 when empty.
double median(std::vector<double> Values);

/// In-memory spans of the traced run: name, start, end and the index
/// of the enclosing span (-1 for a root). Spans are opened and closed
/// on the benchmark's main thread only and written out with the
/// result when the run ends. When disabled every call is a no-op.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : On(Enabled) {}

  int open(const char *Name);
  void close(int Id);

  /// The spans as JSON objects {name, start_ns, end_ns, parent}, with
  /// times relative to the first span's start.
  std::vector<mpicsel::JsonObject> render() const;

private:
  struct Span {
    std::string Name;
    std::uint64_t StartNs = 0;
    std::uint64_t EndNs = 0;
    int Parent = -1;
  };
  bool On;
  std::vector<Span> Spans;
  int Current = -1;
};

/// RAII span around one call into a library layer.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder &R, const char *Name)
      : Recorder(R), Id(R.open(Name)) {}
  ~ScopedSpan() { Recorder.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder &Recorder;
  int Id;
};

/// Difference of two obs registry snapshots, counter by counter.
struct CounterDelta {
  mpicsel::obs::MetricsSnapshot Before;
  mpicsel::obs::MetricsSnapshot After;

  std::uint64_t operator()(mpicsel::obs::Counter C) const {
    return After.counter(C) - Before.counter(C);
  }
  std::uint64_t phaseNs(mpicsel::obs::Phase P) const {
    return After.phaseNs(P) - Before.phaseNs(P);
  }
};

/// The raw record one workload run produces. run.py turns it into the
/// end-to-end and per-layer metrics; the binary only measures.
struct RunRecord {
  /// Operations the benchmark issued and checked, and how many failed.
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// One line per failure kind, for the log.
  std::vector<std::string> Failures;
  /// Set-up wall time of each repeated set-up, in seconds.
  std::vector<double> SetupSeconds;
  /// Wall time of each unit of timed work, in seconds.
  std::vector<double> SolveSeconds;
  /// Per-lookup latency of each timed block of served lookups (ns),
  /// the number of lookups timed and the wall time they took
  /// (serve_swap only).
  std::vector<double> LookupNs;
  std::uint64_t Lookups = 0;
  double LookupSeconds = 0.0;
  /// Content hash of the workload's computed results (decision
  /// tables, selections), for the traced-vs-untraced differential.
  std::uint64_t ResultHash = 0;
  /// The process's peak RSS when the workload returned, before the
  /// record itself is rendered.
  std::uint64_t PeakRssKiB = 0;
  /// Raw per-layer numbers by name (counts, totals, times).
  std::vector<std::pair<std::string, double>> Layers;
  SpanRecorder Spans{false};

  void fail(std::uint64_t Count, const std::string &What);
  void layer(const std::string &Name, double Value) {
    Layers.emplace_back(Name, Value);
  }
  /// Renders the record as the binary's one-line JSON output.
  std::string render() const;
};

/// FNV-1a style mixing of \p Value into \p Hash.
std::uint64_t mixHash(std::uint64_t Hash, std::uint64_t Value);
std::uint64_t mixHash(std::uint64_t Hash, double Value);

/// One served-lookup query.
struct Query {
  unsigned NumProcs = 0;
  std::uint64_t MessageBytes = 0;
};

/// Seeded mixed query stream over a (procs x sizes) grid: 3/4 exact
/// grid points, 1/4 off-grid (between rows and columns, past both
/// ends, below the grid).
std::vector<Query> makeQueries(const std::vector<unsigned> &Procs,
                               const std::vector<std::uint64_t> &Sizes,
                               std::size_t Count, std::uint64_t Seed);

/// Query-stream length per served table.
constexpr std::size_t TableQueries = 1 << 14;

/// The pre-serve client path: the largest grid point <= the query in
/// each dimension, clamped up from below. Every served answer is
/// compared against it.
unsigned scanLookup(const mpicsel::DecisionTable &T, unsigned NumProcs,
                    std::uint64_t MessageBytes);

/// The paper's broadcast message sizes: 8 KB .. 4 MB, doubling.
std::vector<std::uint64_t> paperSizes();

/// A table3-sized decision table from fixed models with the paper's
/// Table 1/2 magnitudes (procs 2..128 x the paper's 10 message sizes).
/// \p TreeAlphaScale slows the tree algorithms' start-up, which gives
/// a second table that answers differently.
mpicsel::DecisionTable deployedTable(double TreeAlphaScale = 1.0);

/// Checks that each table is served exactly as built: published
/// through its own DecisionService, every grid cell must be an exact
/// hit with the built choice and every query of \p Queries[i] must
/// match the scan oracle. Mismatches are failures.
void checkServedTables(const std::vector<mpicsel::DecisionTable> &Tables,
                       const std::vector<std::vector<Query>> &Queries,
                       RunRecord &Rec);

/// Runs \p Setup \p Repeats times, each timed into Rec.SetupSeconds,
/// hands each result to \p Check and returns the last one. A result
/// is released before the next set-up starts, so one is alive at a
/// time and the peak RSS counts one set-up, not two.
template <typename SetupFn, typename CheckFn>
auto repeatSetup(unsigned Repeats, RunRecord &Rec, SetupFn &&Setup,
                 CheckFn &&Check) -> decltype(Setup()) {
  std::optional<decltype(Setup())> Result;
  for (unsigned I = 0; I != Repeats; ++I) {
    Result.reset();
    const std::uint64_t Start = nowNs();
    Result.emplace(Setup());
    Rec.SetupSeconds.push_back(secondsBetween(Start, nowNs()));
    Check(*Result);
  }
  return std::move(*Result);
}

/// One (alg, P, m) point of a calibration workload's grid, for the
/// layer timings of the traced run.
struct GridCase {
  const mpicsel::Platform *Plat = nullptr;
  /// Builds the collective's schedule (the coll layer's generator).
  std::function<mpicsel::Schedule()> Build;
};

/// Times schedule build (coll), lowering (mpi) and warm replay (sim)
/// over \p Cases and records the raw totals in \p Rec.Layers:
/// coll_build_ns, ops, mpi_lower_ns, mpi_compiled_bytes, sim_warm_ns
/// and sim_warm_events. Replays that do not complete are failures.
/// Needs the obs registry on (traced runs) to count events.
void timeScheduleLayers(const std::vector<GridCase> &Cases,
                        std::uint64_t Seed, RunRecord &Rec);

/// The workloads. Each fills \p Rec; a failed check is recorded in it,
/// a library fatal error ends the process.
void runBcastPaper(const RunOptions &Opts, RunRecord &Rec);
void runAllreducePaper(const RunOptions &Opts, RunRecord &Rec);
void runServeSwap(const RunOptions &Opts, RunRecord &Rec);
void runStream100k(const RunOptions &Opts, RunRecord &Rec);

} // namespace perfbench

#endif // MPICSEL_PERFBENCH_HARNESS_H
