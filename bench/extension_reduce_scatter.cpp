//===- bench/extension_reduce_scatter.cpp - Beyond MPI_Bcast ---------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The paper's conclusion proposes extending the method to the other
// collective operations. This bench runs the full recipe -- gamma,
// per-algorithm (alpha, beta) from collective experiments, model
// argmin -- for MPI_Reduce (linear / chain / binomial) and
// MPI_Scatter (linear / binomial) on both simulated clusters, and
// reports the selection's degradation against the measured best
// algorithm at every size. The near-optimal counts and worst
// degradations land in the --json record, gated in CI against the
// committed bench/baselines/BENCH_extension_reduce_scatter.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

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
  unsigned NearOptimal = 0;
  unsigned Points = 0;
  double Worst = 0.0;

  /// Records one size; returns the model choice's degradation.
  double add(double Best, double Chosen) {
    const double Deg = Chosen / Best - 1.0;
    ++Points;
    NearOptimal += Deg <= 0.10;
    Worst = std::max(Worst, Deg);
    return Deg;
  }

  void print() const {
    std::printf("worst model-based degradation: %s; near-optimal (<=10%%) "
                "at %u/%u sizes\n\n",
                formatPercent(Worst).c_str(), NearOptimal, Points);
  }
};

/// Calibrates \p Op on \p Plat and scores the model-based selection
/// against the measured best at every size of \p Sizes.
template <CollectiveOp Op>
PanelSummary runPanel(const Platform &Plat, unsigned CalibProcs,
                      unsigned SelectProcs, const char *Title,
                      const char *SizeHeader,
                      const std::vector<std::uint64_t> &Sizes) {
  CollectiveOptions<Op> Options;
  Options.NumProcs = CalibProcs;
  const CollectiveModels<Op> Models = calibrateCollective<Op>(Plat, Options);
  auto name = [](auto Alg) {
    return collectiveAlgorithmName(Op, static_cast<unsigned>(Alg));
  };

  Table T({SizeHeader, "best", "t(best)", "model picks", "deg"});
  T.setTitle(strFormat("%s on %s, P = %u (calibrated at %u)", Title,
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t Bytes : Sizes) {
    const SelectPoint<Op> Point =
        measureSelectPoint(Plat, SelectProcs, Bytes, Models);
    const double Best = Point.time(Point.Best);
    const double Deg = S.add(Best, Point.time(Point.Model));
    T.addRow({formatBytes(Bytes), name(Point.Best), formatSeconds(Best),
              name(Point.Model), formatPercent(Deg)});
  }
  T.print();
  S.print();
  return S;
}

void reportPanel(BenchReporter &Report, const std::string &Key,
                 const PanelSummary &S) {
  Report.metric("model_near_optimal_" + Key, S.NearOptimal);
  Report.metric("points_" + Key, S.Points);
  Report.metric("worst_model_deg_" + Key, S.Worst);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  CommandLine Cli("Extension: the paper's selection method applied to "
                  "MPI_Reduce and MPI_Scatter on both clusters.");
  Cli.addFlag("json", "write a machine-readable record to this file",
              JsonPath);
  std::string MetricsPath;
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 1;
  obs::initObservability(MetricsPath);

  banner("Extension: model-based selection for MPI_Reduce / MPI_Scatter");
  BenchReporter Report("extension_reduce_scatter");
  for (const Platform &Plat : {makeGrisou(), makeGros()}) {
    unsigned CalibProcs = paperCalibrationProcs(Plat);
    unsigned SelectProcs = Plat.Name == "gros" ? 100 : 90;
    const std::string Key =
        strFormat("%s_p%u", Plat.Name.c_str(), SelectProcs);
    reportPanel(Report, "reduce_" + Key,
                runPanel<CollectiveOp::Reduce>(Plat, CalibProcs, SelectProcs,
                                               "MPI_Reduce", "m",
                                               paperMessageSizes()));
    reportPanel(Report, "scatter_" + Key,
                runPanel<CollectiveOp::Scatter>(
                    Plat, CalibProcs, SelectProcs, "MPI_Scatter", "block",
                    doublingSizes(1024, 128 * 1024)));
  }
  std::printf("This is the paper's Sect. 6 follow-up made concrete: the\n"
              "same gamma + collective-experiment calibration transfers to\n"
              "other collectives without new machinery.\n");
  return Report.writeIfRequested(JsonPath) ? 0 : 1;
}
