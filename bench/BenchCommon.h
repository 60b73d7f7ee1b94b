//===- bench/BenchCommon.h - Shared bench-harness helpers -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: the
/// paper's message-size sweep (10 sizes, 8 KB..4 MB, constant log
/// step), standard calibration setups for the two clusters, and small
/// printing conveniences.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_BENCH_BENCHCOMMON_H
#define MPICSEL_BENCH_BENCHCOMMON_H

#include "cluster/Platform.h"
#include "model/Calibration.h"
#include "model/DecisionCache.h"
#include "obs/Journal.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mpicsel {
namespace bench {

/// Process-wide heap-allocation counter. It only ticks in binaries
/// that replace the global allocation functions to route through
/// countAllocation() (bench/micro_engine.cpp does, to prove the
/// compiled engine's replay loop performs zero allocations after
/// warm-up); everywhere else it stays at zero.
inline std::atomic<std::uint64_t> AllocationTicks{0};

/// Called by a binary's replacement operator new.
inline void countAllocation() {
  AllocationTicks.fetch_add(1, std::memory_order_relaxed);
}

/// Number of heap allocations observed so far (see AllocationTicks).
inline std::uint64_t allocationCount() {
  return AllocationTicks.load(std::memory_order_relaxed);
}

/// Registers the shared `--metrics` flag. Call initObservability
/// with \p Storage after parsing: a non-empty value points the
/// obs/Journal.h run journal at a file (or "stderr") and overrides
/// MPICSEL_METRICS; empty leaves the environment setting in force.
inline void addMetricsFlag(CommandLine &Cli, std::string &Storage) {
  Cli.addFlag("metrics",
              "write a JSONL run journal to this path ('stderr' for the "
              "terminal; overrides MPICSEL_METRICS)",
              Storage);
}

/// The paper's broadcast message-size sweep (Sect. 5.2/5.3).
inline std::vector<std::uint64_t> paperMessageSizes() {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = 8 * 1024; Bytes <= 4 * 1024 * 1024; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

/// The number of processes the paper calibrates with on each cluster:
/// about half the ranks on Grisou (40 of 90), all 124 on Gros.
inline unsigned paperCalibrationProcs(const Platform &P) {
  return P.Name == "gros" ? 124u : 40u;
}

/// The process counts of the paper's selection experiments (Fig. 5).
inline std::vector<unsigned> paperSelectionProcs(const Platform &P) {
  if (P.Name == "gros")
    return {80, 100, 124};
  return {50, 80, 90};
}

/// The paper-setup calibration options. \p Quick trims the repetition
/// counts for fast smoke runs; \p Threads fans the calibration grid
/// over the sweep pool (0 = consult MPICSEL_THREADS) with
/// bit-identical results.
inline CalibrationOptions paperCalibrationOptions(const Platform &P,
                                                  bool Quick,
                                                  unsigned Threads = 0) {
  CalibrationOptions Options;
  Options.NumProcs = paperCalibrationProcs(P);
  Options.Threads = Threads;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  return Options;
}

/// One calibration as the bench binaries run it, with the wall-clock
/// and cache outcome captured for the --json record.
struct CalibrationRun {
  CalibratedModels Models;
  double WallSeconds = 0.0;
  bool FromCache = false;
};

/// Calibrates a cluster with the paper's setup, optionally threaded
/// and memoised through \p Cache (null bypasses the cache).
inline CalibrationRun calibratePaperSetupTimed(const Platform &P, bool Quick,
                                               unsigned Threads = 0,
                                               DecisionCache *Cache =
                                                   nullptr) {
  CalibrationOptions Options = paperCalibrationOptions(P, Quick, Threads);
  CalibrationRun Run;
  const auto Start = std::chrono::steady_clock::now();
  if (Cache) {
    const unsigned HitsBefore = Cache->stats().Hits;
    Run.Models = calibrateCached(P, Options, *Cache);
    Run.FromCache = Cache->stats().Hits > HitsBefore;
  } else {
    Run.Models = calibrate(P, Options);
  }
  Run.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Run;
}

/// Calibrates a cluster with the paper's setup. \p Quick trims the
/// repetition counts for fast smoke runs.
inline CalibratedModels calibratePaperSetup(const Platform &P, bool Quick) {
  return calibratePaperSetupTimed(P, Quick).Models;
}

/// One selection point of \p Op: every algorithm measured at one size,
/// the measured best, and the models' choice.
template <CollectiveOp Op> struct SelectPoint {
  using Algorithm = typename CollectiveDescriptor<Op>::Algorithm;
  std::array<double, CollectiveDescriptor<Op>::Algorithms.size()> Time{};
  Algorithm Best{};
  Algorithm Model{};

  double time(Algorithm A) const { return Time[static_cast<unsigned>(A)]; }
  /// (T(A) - T_best) / T_best.
  double degradation(Algorithm A) const {
    return time(A) / time(Best) - 1.0;
  }
};

/// Measures every algorithm of \p Op at \p Bytes on \p NumProcs ranks,
/// at the models' segment size, and scores the models' choice.
template <CollectiveOp Op>
SelectPoint<Op> measureSelectPoint(const Platform &P, unsigned NumProcs,
                                   std::uint64_t Bytes,
                                   const CollectiveModels<Op> &Models,
                                   const AdaptiveOptions &Measure = {}) {
  using Descriptor = CollectiveDescriptor<Op>;
  SelectPoint<Op> Point;
  Point.Model = Models.selectBest(NumProcs, Bytes);
  for (auto A : Descriptor::Algorithms) {
    const double Time =
        measureCollective<Op>(
            P, NumProcs,
            Descriptor::config(A, Models.query(A, NumProcs, Bytes)), Measure)
            .Stats.Mean;
    Point.Time[static_cast<unsigned>(A)] = Time;
    // Best starts at ordinal 0, the first algorithm measured.
    if (Time < Point.time(Point.Best))
      Point.Best = A;
  }
  return Point;
}

/// Prints a section banner.
inline void banner(const char *Title) {
  std::printf("\n===== %s =====\n\n", Title);
}

/// Accumulates the machine-readable record behind a bench binary's
/// `--json <file>` flag. `metric()` values are compared against the
/// committed BENCH_*.json baselines by scripts/bench_compare.py;
/// `timing()` values (wall-clocks, cache statistics) are recorded for
/// trend inspection but never gate CI -- they depend on the host.
class BenchReporter {
public:
  explicit BenchReporter(std::string BenchName)
      : Name(std::move(BenchName)) {}

  void info(const std::string &Key, const std::string &Value) {
    Info.set(Key, Value);
  }
  void metric(const std::string &Key, double Value) {
    Metrics.set(Key, Value);
  }
  void timing(const std::string &Key, double Value) {
    Timings.set(Key, Value);
  }

  /// Writes the record to \p Path; empty \p Path is a no-op (the flag
  /// was not given). Returns false on I/O failure.
  bool writeIfRequested(const std::string &Path) {
    if (Path.empty())
      return true;
    JsonObject Record;
    Record.set("bench", Name);
    Record.set("schema_version", static_cast<std::uint64_t>(1));
    Record.set("info", std::move(Info));
    Record.set("metrics", std::move(Metrics));
    Record.set("timings", std::move(Timings));
    const std::string Text = Record.render();
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    if (!File) {
      std::fprintf(stderr, "error: cannot write JSON record to '%s'\n",
                   Path.c_str());
      return false;
    }
    bool Ok =
        std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
    Ok = std::fclose(File) == 0 && Ok;
    if (Ok)
      std::fprintf(stderr, "wrote bench record: %s\n", Path.c_str());
    return Ok;
  }

private:
  std::string Name;
  JsonObject Info;
  JsonObject Metrics;
  JsonObject Timings;
};

} // namespace bench
} // namespace mpicsel

#endif // MPICSEL_BENCH_BENCHCOMMON_H
