//===- bench/extension_allreduce.cpp - Beyond MPI_Bcast: allreduce ---------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The journal version of the source paper (arXiv:2004.11062) extends
// the implementation-derived modelling to the symmetric collectives.
// This bench runs the full recipe -- gamma, per-algorithm (alpha,
// beta) from collective experiments, model argmin -- for
// MPI_Allreduce (recursive doubling / ring / reduce+bcast) and
// MPI_Allgather (ring / recursive doubling / neighbor exchange) on
// both simulated clusters, and compares the model-based selection AND
// Open MPI's fixed decision rules against the measured best algorithm
// at every size. The near-optimal counts and worst degradations land
// in the --json record, gated in CI against the committed
// bench/baselines/BENCH_extension_allreduce.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "coll/OmpiDecision.h"
#include "obs/Rss.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace mpicsel;
using namespace mpicsel::bench;

namespace {

/// Deterministic per-panel gate quantities (the degradations are
/// simulator outputs, bit-stable across hosts).
struct PanelSummary {
  unsigned ModelNearOptimal = 0;
  unsigned OmpiNearOptimal = 0;
  unsigned Points = 0;
  double WorstModel = 0.0;
  double WorstOmpi = 0.0;

  void add(double Best, double Model, double Ompi) {
    const double ModelDeg = Model / Best - 1.0;
    const double OmpiDeg = Ompi / Best - 1.0;
    ++Points;
    ModelNearOptimal += ModelDeg <= 0.10;
    OmpiNearOptimal += OmpiDeg <= 0.10;
    WorstModel = std::max(WorstModel, ModelDeg);
    WorstOmpi = std::max(WorstOmpi, OmpiDeg);
  }
};

AdaptiveOptions measureOptions(bool Quick) {
  AdaptiveOptions Options;
  if (Quick) {
    Options.MinReps = 3;
    Options.MaxReps = 8;
  }
  return Options;
}

/// Calibrates \p Op on \p Plat, then scores the model-based selection
/// and Open MPI's fixed rule (\p OmpiRule) against the measured best
/// at every size of \p Sizes.
template <CollectiveOp Op, typename OmpiRuleFn>
PanelSummary runPanel(const Platform &Plat, unsigned CalibProcs,
                      unsigned SelectProcs, bool Quick, bool Csv,
                      const char *Title, const char *SizeHeader,
                      const std::vector<std::uint64_t> &Sizes,
                      OmpiRuleFn OmpiRule) {
  CollectiveOptions<Op> Options;
  Options.NumProcs = CalibProcs;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  const CollectiveModels<Op> Models = calibrateCollective<Op>(Plat, Options);
  const AdaptiveOptions Measure = measureOptions(Quick);
  auto name = [](auto Alg) {
    return collectiveAlgorithmName(Op, static_cast<unsigned>(Alg));
  };

  Table T({SizeHeader, "best", "t(best)", "model (%)", "ompi (%)"});
  T.setTitle(strFormat("%s on %s, P = %u (calibrated at %u)", Title,
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t Bytes : Sizes) {
    const SelectPoint<Op> Point =
        measureSelectPoint(Plat, SelectProcs, Bytes, Models, Measure);
    const auto Ompi = OmpiRule(SelectProcs, Bytes);
    const double Best = Point.time(Point.Best);
    S.add(Best, Point.time(Point.Model), Point.time(Ompi));
    T.addRow({formatBytes(Bytes), name(Point.Best), formatSeconds(Best),
              strFormat("%s (%.0f)", name(Point.Model),
                        Point.degradation(Point.Model) * 100),
              strFormat("%s (%.0f)", name(Ompi),
                        Point.degradation(Ompi) * 100)});
  }
  if (Csv)
    std::fputs(T.renderCsv().c_str(), stdout);
  else
    T.print();
  std::printf("model-based near-optimal (<=10%%) at %u/%u sizes (worst "
              "%s); Open MPI at %u/%u (worst %s)\n\n",
              S.ModelNearOptimal, S.Points,
              formatPercent(S.WorstModel).c_str(), S.OmpiNearOptimal,
              S.Points, formatPercent(S.WorstOmpi).c_str());
  return S;
}

void reportPanel(BenchReporter &Report, const std::string &Key,
                 const PanelSummary &S) {
  Report.metric("model_near_optimal_" + Key, S.ModelNearOptimal);
  Report.metric("ompi_near_optimal_" + Key, S.OmpiNearOptimal);
  Report.metric("points_" + Key, S.Points);
  Report.metric("worst_model_deg_" + Key, S.WorstModel);
  Report.metric("worst_ompi_deg_" + Key, S.WorstOmpi);
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool Csv = false;
  std::string JsonPath;
  CommandLine Cli("Extension: the paper's selection method applied to "
                  "MPI_Allreduce and MPI_Allgather on both clusters, "
                  "with Open MPI's fixed rules as the baseline.");
  Cli.addFlag("quick", "fewer repetitions per measurement", Quick);
  Cli.addFlag("csv", "emit CSV instead of tables", Csv);
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);

  banner("Extension: model-based selection for MPI_Allreduce / "
         "MPI_Allgather vs Open MPI fixed rules");

  BenchReporter Report("extension_allreduce");
  Report.info("mode", Quick ? "quick" : "full");
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    const unsigned CalibProcs = paperCalibrationProcs(Plat);
    const unsigned SelectProcs = Plat.Name == "gros" ? 100 : 90;
    const std::string Key =
        strFormat("%s_p%u", Plat.Name.c_str(), SelectProcs);
    reportPanel(Report, "allreduce_" + Key,
                runPanel<CollectiveOp::Allreduce>(
                    Plat, CalibProcs, SelectProcs, Quick, Csv,
                    "MPI_Allreduce", "m", paperMessageSizes(),
                    ompiAllreduceDecisionFixed));
    reportPanel(Report, "allgather_" + Key,
                runPanel<CollectiveOp::Allgather>(
                    Plat, CalibProcs, SelectProcs, Quick, Csv,
                    "MPI_Allgather", "block", doublingSizes(1024, 64 * 1024),
                    ompiAllgatherDecisionFixed));
  }
  // Max-bounded by the baseline's budget: per-repetition recompiles or
  // interning these runners' large schedules would show up here.
  Report.metric("peak_rss_kib", static_cast<double>(obs::peakRssKiB()));

  std::printf("The paper's Sect. 6 follow-up, measured: the same gamma +\n"
              "collective-experiment calibration selects allreduce and\n"
              "allgather algorithms; the per-size gap to Open MPI's fixed\n"
              "rules above is the committed baseline.\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
