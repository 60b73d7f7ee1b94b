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
#include "model/AllgatherSelection.h"
#include "model/AllreduceSelection.h"
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

PanelSummary runAllreducePanel(const Platform &Plat, unsigned CalibProcs,
                               unsigned SelectProcs, bool Quick, bool Csv) {
  AllreduceCalibrationOptions Options;
  Options.NumProcs = CalibProcs;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  AllreduceModels Models = calibrateAllreduce(Plat, Options);
  const AdaptiveOptions Measure = measureOptions(Quick);

  Table T({"m", "best", "t(best)", "model (%)", "ompi (%)"});
  T.setTitle(strFormat("MPI_Allreduce on %s, P = %u (calibrated at %u)",
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t MessageBytes : paperMessageSizes()) {
    const AllreduceAlgorithm ModelChoice =
        Models.selectBest(SelectProcs, MessageBytes);
    const AllreduceAlgorithm OmpiChoice =
        ompiAllreduceDecisionFixed(SelectProcs, MessageBytes);
    double Best = 0, Model = 0, Ompi = 0;
    AllreduceAlgorithm BestAlg = AllreduceAlgorithm::RecursiveDoubling;
    for (AllreduceAlgorithm Alg : AllAllreduceAlgorithms) {
      AllreduceConfig Config;
      Config.Algorithm = Alg;
      Config.MessageBytes = MessageBytes;
      Config.SegmentBytes = Models.SegmentBytes;
      const double Time =
          measureAllreduce(Plat, SelectProcs, Config, Measure).Stats.Mean;
      if (Best == 0 || Time < Best) {
        Best = Time;
        BestAlg = Alg;
      }
      if (Alg == ModelChoice)
        Model = Time;
      if (Alg == OmpiChoice)
        Ompi = Time;
    }
    S.add(Best, Model, Ompi);
    T.addRow({formatBytes(MessageBytes), allreduceAlgorithmName(BestAlg),
              formatSeconds(Best),
              strFormat("%s (%.0f)", allreduceAlgorithmName(ModelChoice),
                        (Model / Best - 1.0) * 100),
              strFormat("%s (%.0f)", allreduceAlgorithmName(OmpiChoice),
                        (Ompi / Best - 1.0) * 100)});
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

PanelSummary runAllgatherPanel(const Platform &Plat, unsigned CalibProcs,
                               unsigned SelectProcs, bool Quick, bool Csv) {
  AllgatherCalibrationOptions Options;
  Options.NumProcs = CalibProcs;
  if (Quick) {
    Options.Adaptive.MinReps = 3;
    Options.Adaptive.MaxReps = 8;
    Options.GammaOptions.Adaptive.MinReps = 3;
    Options.GammaOptions.Adaptive.MaxReps = 8;
  }
  AllgatherModels Models = calibrateAllgather(Plat, Options);
  const AdaptiveOptions Measure = measureOptions(Quick);

  Table T({"block", "best", "t(best)", "model (%)", "ompi (%)"});
  T.setTitle(strFormat("MPI_Allgather on %s, P = %u (calibrated at %u)",
                       Plat.Name.c_str(), SelectProcs, CalibProcs));
  PanelSummary S;
  for (std::uint64_t BlockBytes = 1024; BlockBytes <= 64 * 1024;
       BlockBytes *= 2) {
    const AllgatherAlgorithm ModelChoice =
        Models.selectBest(SelectProcs, BlockBytes);
    const AllgatherAlgorithm OmpiChoice =
        ompiAllgatherDecisionFixed(SelectProcs, BlockBytes);
    double Best = 0, Model = 0, Ompi = 0;
    AllgatherAlgorithm BestAlg = AllgatherAlgorithm::Ring;
    for (AllgatherAlgorithm Alg : AllAllgatherAlgorithms) {
      AllgatherConfig Config;
      Config.Algorithm = Alg;
      Config.BlockBytes = BlockBytes;
      const double Time =
          measureAllgather(Plat, SelectProcs, Config, Measure).Stats.Mean;
      if (Best == 0 || Time < Best) {
        Best = Time;
        BestAlg = Alg;
      }
      if (Alg == ModelChoice)
        Model = Time;
      if (Alg == OmpiChoice)
        Ompi = Time;
    }
    S.add(Best, Model, Ompi);
    T.addRow({formatBytes(BlockBytes), allgatherAlgorithmName(BestAlg),
              formatSeconds(Best),
              strFormat("%s (%.0f)", allgatherAlgorithmName(ModelChoice),
                        (Model / Best - 1.0) * 100),
              strFormat("%s (%.0f)", allgatherAlgorithmName(OmpiChoice),
                        (Ompi / Best - 1.0) * 100)});
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
                runAllreducePanel(Plat, CalibProcs, SelectProcs, Quick, Csv));
    reportPanel(Report, "allgather_" + Key,
                runAllgatherPanel(Plat, CalibProcs, SelectProcs, Quick, Csv));
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
