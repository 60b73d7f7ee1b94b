//===- audit/Audit.cpp - Static analysis of calibrated models --------------===//

#include "audit/Audit.h"

#include "coll/Guidelines.h"
#include "coll/Scatter.h"
#include "model/CostModels.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "stat/ParallelSweep.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace mpicsel;

//===----------------------------------------------------------------------===//
// Names and rendering
//===----------------------------------------------------------------------===//

const char *mpicsel::auditCheckName(AuditCheck Check) {
  switch (Check) {
  case AuditCheck::ParamFinite:
    return "param-finite";
  case AuditCheck::ParamRange:
    return "param-range";
  case AuditCheck::GammaShape:
    return "gamma-shape";
  case AuditCheck::CostPositive:
    return "cost-positive";
  case AuditCheck::MonotoneMessage:
    return "monotone-message";
  case AuditCheck::MonotoneProcs:
    return "monotone-procs";
  case AuditCheck::Guideline:
    return "guideline";
  case AuditCheck::TableShape:
    return "table-shape";
  case AuditCheck::TableConsistency:
    return "table-consistency";
  case AuditCheck::TableIsland:
    return "table-island";
  }
  MPICSEL_UNREACHABLE("unknown audit check");
}

const char *mpicsel::auditSeverityName(AuditSeverity Sev) {
  return Sev == AuditSeverity::Violation ? "violation" : "warning";
}

std::string AuditFinding::str() const {
  std::string Anchor;
  if (NumProcs != 0) {
    Anchor = strFormat(" @ P=%u", NumProcs);
    if (MessageBytes != 0)
      Anchor += strFormat(" m=%llu",
                          static_cast<unsigned long long>(MessageBytes));
  }
  return strFormat("%s[%s] %s%s: %s", auditSeverityName(Sev),
                   auditCheckName(Check), Where.c_str(), Anchor.c_str(),
                   Detail.c_str());
}

unsigned AuditReport::violations() const {
  unsigned Count = 0;
  for (const AuditFinding &F : Findings)
    Count += F.Sev == AuditSeverity::Violation ? 1 : 0;
  return Count;
}

unsigned AuditReport::warnings() const {
  return static_cast<unsigned>(Findings.size()) - violations();
}

void AuditReport::merge(const AuditReport &Other) {
  Findings.insert(Findings.end(), Other.Findings.begin(),
                  Other.Findings.end());
  ChecksRun += Other.ChecksRun;
}

std::string AuditReport::str() const {
  std::string Out = strFormat("audit: %u check(s), %u violation(s), "
                              "%u warning(s)\n",
                              ChecksRun, violations(), warnings());
  for (const AuditFinding &F : Findings) {
    Out += "  ";
    Out += F.str();
    Out += '\n';
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Grids and pricing
//===----------------------------------------------------------------------===//

namespace {

std::vector<unsigned> defaultProcsGrid(unsigned MaxProcs) {
  std::vector<unsigned> Grid;
  for (unsigned P : {2u, 4u, 8u, 16u, 32u, 64u, 96u, 128u})
    if (MaxProcs == 0 || P <= MaxProcs)
      Grid.push_back(P);
  if (Grid.empty())
    Grid.push_back(2);
  return Grid;
}

std::vector<std::uint64_t> defaultMessageGrid() {
  // The paper's calibrated sweep: inside it the models interpolate;
  // beyond it they extrapolate, which is not a calibration defect.
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = 8 * 1024; Bytes <= 4 * 1024 * 1024; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

/// The scatter + ring-allgather emulation of an m-byte broadcast,
/// priced with the linear algorithm's calibrated (alpha, beta): a
/// linear scatter of m/P-byte blocks, then P-1 ring steps each
/// forwarding one block. NaN when the linear model is unusable.
double compositionCost(const CalibratedModels &Models, unsigned NumProcs,
                       std::uint64_t MessageBytes) {
  const AlgorithmCalibration &Linear = Models.of(BcastAlgorithm::Linear);
  if (!std::isfinite(Linear.Alpha) || !std::isfinite(Linear.Beta))
    return std::numeric_limits<double>::quiet_NaN();
  const std::uint64_t Block = std::max<std::uint64_t>(
      1, (MessageBytes + NumProcs - 1) / NumProcs);
  CostCoefficients Scatter =
      scatterCostCoefficients(ScatterAlgorithm::Linear, NumProcs, Block,
                              Models.Gamma);
  // Ring allgather: P-1 rounds of one neighbour exchange per rank.
  CostCoefficients Ring{static_cast<double>(NumProcs - 1),
                        static_cast<double>(NumProcs - 1) *
                            static_cast<double>(Block)};
  return (Scatter + Ring).evaluate(Linear.Alpha, Linear.Beta);
}

void addFinding(AuditReport &R, AuditCheck Check, AuditSeverity Sev,
                std::string Where, unsigned NumProcs,
                std::uint64_t MessageBytes, std::string Detail) {
  AuditFinding F;
  F.Check = Check;
  F.Sev = Sev;
  F.Where = std::move(Where);
  F.NumProcs = NumProcs;
  F.MessageBytes = MessageBytes;
  F.Detail = std::move(Detail);
  R.Findings.push_back(std::move(F));
}

/// A relative dip beyond \p Tolerance between two values that should
/// be non-decreasing.
bool dips(double Prev, double Next, double Tolerance) {
  return Next < Prev * (1.0 - Tolerance);
}

//===----------------------------------------------------------------------===//
// Model-level checks (parameters, gamma)
//===----------------------------------------------------------------------===//

void checkParameters(const CalibratedModels &Models, AuditReport &R) {
  for (const AlgorithmCalibration &A : Models.Algorithms) {
    const char *Name = bcastAlgorithmName(A.Algorithm);
    ++R.ChecksRun;
    if (!std::isfinite(A.Alpha) || !std::isfinite(A.Beta)) {
      addFinding(R, AuditCheck::ParamFinite, AuditSeverity::Violation, Name,
                 0, 0,
                 strFormat("alpha=%g beta=%g (must be finite)", A.Alpha,
                           A.Beta));
      continue; // Range checks on non-finite values are meaningless.
    }
    ++R.ChecksRun;
    if (A.Beta < 0)
      addFinding(R, AuditCheck::ParamRange, AuditSeverity::Violation, Name, 0,
                 0,
                 strFormat("beta=%g s/B is negative: more bytes would cost "
                           "less time",
                           A.Beta));
    ++R.ChecksRun;
    if (A.Alpha < 0)
      addFinding(R, AuditCheck::ParamRange, AuditSeverity::Warning, Name, 0,
                 0,
                 strFormat("alpha=%g s is negative (fit extrapolating "
                           "below the calibrated range)",
                           A.Alpha));
    ++R.ChecksRun;
    if (A.Fit.Valid &&
        (!std::isfinite(A.Fit.Intercept) || !std::isfinite(A.Fit.Slope) ||
         !std::isfinite(A.Fit.Rmse) || !std::isfinite(A.Fit.R2)))
      addFinding(R, AuditCheck::ParamFinite, AuditSeverity::Violation, Name,
                 0, 0, "canonical fit marked valid but holds non-finite "
                       "coefficients");
  }
  ++R.ChecksRun;
  if (Models.SegmentBytes == 0)
    addFinding(R, AuditCheck::ParamRange, AuditSeverity::Violation, "models",
               0, 0, "segment size is zero: segmented models divide by it");
  ++R.ChecksRun;
  if (Models.KChainFanout == 0)
    addFinding(R, AuditCheck::ParamRange, AuditSeverity::Violation, "models",
               0, 0, "K-chain fanout is zero");
}

void checkGamma(const CalibratedModels &Models,
                const std::vector<unsigned> &Procs, double MonotoneTolerance,
                AuditReport &R) {
  const GammaFunction &Gamma = Models.Gamma;
  // Measured region, pairwise at full resolution.
  double Prev = Gamma(2);
  for (unsigned P = 2; P <= Gamma.measuredMax(); ++P) {
    const double Value = Gamma(P);
    ++R.ChecksRun;
    if (!std::isfinite(Value)) {
      addFinding(R, AuditCheck::ParamFinite, AuditSeverity::Violation,
                 "gamma", P, 0, strFormat("gamma(%u)=%g", P, Value));
      continue;
    }
    ++R.ChecksRun;
    if (Value < 1.0 - 1e-9)
      addFinding(R, AuditCheck::GammaShape, AuditSeverity::Violation, "gamma",
                 P, 0,
                 strFormat("gamma(%u)=%.4f below the definitional lower "
                           "bound 1",
                           P, Value));
    ++R.ChecksRun;
    if (P > 2 && dips(Prev, Value, MonotoneTolerance))
      addFinding(R, AuditCheck::GammaShape, AuditSeverity::Violation, "gamma",
                 P, 0,
                 strFormat("gamma(%u)=%.4f < gamma(%u)=%.4f beyond the "
                           "%.0f%% tolerance: serialisation cannot shrink "
                           "as fanout grows",
                           P, Value, P - 1, Prev, MonotoneTolerance * 100));
    Prev = Value;
  }
  // Extrapolated region: the linear fit governs; a negative slope
  // makes gamma shrink with P for every extrapolated query.
  ++R.ChecksRun;
  if (Gamma.fit().Valid && Gamma.fit().Slope < 0)
    addFinding(R, AuditCheck::GammaShape, AuditSeverity::Warning, "gamma", 0,
               0,
               strFormat("extrapolation fit slope %.4g is negative",
                         Gamma.fit().Slope));
  // And the grid points actually used must stay sane.
  for (unsigned P : Procs) {
    const double Value = Gamma(P);
    ++R.ChecksRun;
    if (!std::isfinite(Value) || Value < 1.0 - 1e-9)
      addFinding(R, AuditCheck::GammaShape, AuditSeverity::Violation, "gamma",
                 P, 0, strFormat("gamma(%u)=%g outside [1, inf)", P, Value));
  }
}

//===----------------------------------------------------------------------===//
// Grid checks (cost positivity, monotonicity, guidelines)
//===----------------------------------------------------------------------===//

/// All checks local to one communicator size: cost sanity, cost
/// monotone in m, and every applicable guideline. Pure over Models,
/// so columns fan over the sweep pool with an identical merged
/// report for any thread count.
AuditReport auditProcsColumn(const CalibratedModels &Models, unsigned P,
                             const std::vector<std::uint64_t> &Sizes,
                             const AuditOptions &Options) {
  AuditReport R;
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const char *Name = bcastAlgorithmName(Alg);
    double PrevCost = 0.0;
    for (std::size_t I = 0; I != Sizes.size(); ++I) {
      const std::uint64_t M = Sizes[I];
      const double Cost = Models.predict(Alg, P, M);
      ++R.ChecksRun;
      if (!std::isfinite(Cost) || Cost <= 0) {
        addFinding(R, AuditCheck::CostPositive, AuditSeverity::Violation,
                   Name, P, M,
                   strFormat("predicted cost %g s must be positive and "
                             "finite",
                             Cost));
        PrevCost = 0.0;
        continue;
      }
      ++R.ChecksRun;
      if (I > 0 && PrevCost > 0 &&
          dips(PrevCost, Cost, Options.MonotoneTolerance))
        addFinding(R, AuditCheck::MonotoneMessage, AuditSeverity::Violation,
                   Name, P, M,
                   strFormat("cost %.4e s at m=%llu drops below %.4e s at "
                             "m=%llu: larger broadcasts cannot be cheaper",
                             Cost, static_cast<unsigned long long>(M),
                             PrevCost,
                             static_cast<unsigned long long>(Sizes[I - 1])));
      PrevCost = Cost;
    }
  }
  for (std::uint64_t M : Sizes) {
    GuidelinePoint Point;
    Point.NumProcs = P;
    Point.MessageBytes = M;
    for (BcastAlgorithm Alg : AllBcastAlgorithms)
      Point.BcastCost[static_cast<unsigned>(Alg)] = Models.predict(Alg, P, M);
    Point.CompositionCost = compositionCost(Models, P, M);
    for (const PerformanceGuideline &G : bcastGuidelines()) {
      if (!G.applies(P, M))
        continue;
      ++R.ChecksRun;
      std::string Detail = G.Check(Point, Options.GuidelineSlack);
      if (!Detail.empty())
        addFinding(R, AuditCheck::Guideline, AuditSeverity::Violation, G.Name,
                   P, M, std::move(Detail));
    }
  }
  return R;
}

void checkMonotoneProcs(const CalibratedModels &Models,
                        const std::vector<unsigned> &Procs,
                        const std::vector<std::uint64_t> &Sizes,
                        double Tolerance, AuditReport &R) {
  for (BcastAlgorithm Alg : AllBcastAlgorithms) {
    const char *Name = bcastAlgorithmName(Alg);
    for (std::uint64_t M : Sizes) {
      double PrevCost = 0.0;
      unsigned PrevP = 0;
      for (unsigned P : Procs) {
        // P=2 is structurally degenerate for the tree algorithms --
        // split-binary in particular funnels one half through the
        // pipelined tree and the other through the final pairwise
        // exchange, which costs *more* than the genuinely split P=4
        // shape. Chain the monotonicity check from P>=3 only.
        if (P < 3)
          continue;
        const double Cost = Models.predict(Alg, P, M);
        if (!std::isfinite(Cost) || Cost <= 0) {
          PrevCost = 0.0; // Reported by the column's CostPositive pass.
          continue;
        }
        ++R.ChecksRun;
        if (PrevCost > 0 && dips(PrevCost, Cost, Tolerance))
          addFinding(R, AuditCheck::MonotoneProcs, AuditSeverity::Violation,
                     Name, P, M,
                     strFormat("cost %.4e s at P=%u drops below %.4e s at "
                               "P=%u: more ranks cannot broadcast faster",
                               Cost, P, PrevCost, PrevP));
        PrevCost = Cost;
        PrevP = P;
      }
    }
  }
}

} // namespace

AuditReport mpicsel::auditModels(const CalibratedModels &Models,
                                 const AuditOptions &Options) {
  const std::vector<unsigned> Procs =
      Options.Procs.empty() ? defaultProcsGrid(0) : Options.Procs;
  const std::vector<std::uint64_t> Sizes =
      Options.MessageSizes.empty() ? defaultMessageGrid()
                                   : Options.MessageSizes;
  AuditReport R;
  checkParameters(Models, R);
  checkGamma(Models, Procs, Options.GammaMonotoneTolerance, R);
  // One sweep task per communicator size; merged in grid order, so
  // the report is identical for any thread count.
  const unsigned Threads = resolveSweepThreads(Options.Threads);
  std::vector<AuditReport> Columns = sweepIndexed<AuditReport>(
      Threads, Procs.size(), [&](std::size_t Index) {
        return auditProcsColumn(Models, Procs[Index], Sizes, Options);
      });
  for (const AuditReport &Column : Columns)
    R.merge(Column);
  checkMonotoneProcs(Models, Procs, Sizes, Options.MonotoneTolerance, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Decision-table checks
//===----------------------------------------------------------------------===//

AuditReport mpicsel::auditDecisionTable(const DecisionTable &T,
                                        const CalibratedModels &Models,
                                        const AuditOptions &Options) {
  // The model set here is the bcast one, so a table of any other
  // collective is a category error, not a near-miss.
  if (T.Collective != CollectiveOp::Bcast) {
    AuditReport R;
    ++R.ChecksRun;
    addFinding(R, AuditCheck::TableConsistency, AuditSeverity::Violation,
               "table", 0, 0,
               strFormat("table serves %s but is audited against the "
                         "bcast model set",
                         collectiveOpName(T.Collective)));
    return R;
  }
  return auditDecisionTable(
      T,
      [&Models](unsigned Choice, unsigned P, std::uint64_t M) {
        return Models.predict(static_cast<BcastAlgorithm>(Choice), P, M);
      },
      Options);
}

AuditReport mpicsel::auditDecisionTable(const DecisionTable &T,
                                        const TableCostFn &Predict,
                                        const AuditOptions &Options) {
  AuditReport R;
  ++R.ChecksRun;
  if (T.Procs.empty() || T.MessageSizes.empty()) {
    addFinding(R, AuditCheck::TableShape, AuditSeverity::Violation, "table",
               0, 0, "empty communicator or message grid");
    return R;
  }
  ++R.ChecksRun;
  if (!std::is_sorted(T.Procs.begin(), T.Procs.end()) ||
      std::adjacent_find(T.Procs.begin(), T.Procs.end()) != T.Procs.end())
    addFinding(R, AuditCheck::TableShape, AuditSeverity::Violation, "table",
               0, 0, "communicator grid is not strictly increasing");
  ++R.ChecksRun;
  if (!std::is_sorted(T.MessageSizes.begin(), T.MessageSizes.end()) ||
      std::adjacent_find(T.MessageSizes.begin(), T.MessageSizes.end()) !=
          T.MessageSizes.end())
    addFinding(R, AuditCheck::TableShape, AuditSeverity::Violation, "table",
               0, 0, "message grid is not strictly increasing");
  ++R.ChecksRun;
  if (T.Choice.size() != T.Procs.size() * T.MessageSizes.size()) {
    addFinding(R, AuditCheck::TableShape, AuditSeverity::Violation, "table",
               0, 0,
               strFormat("%zu choices for a %zu x %zu grid", T.Choice.size(),
                         T.Procs.size(), T.MessageSizes.size()));
    return R; // Cell-level checks would index out of bounds.
  }
  const unsigned AlgCount = collectiveAlgorithmCount(T.Collective);
  for (unsigned A : T.Choice) {
    ++R.ChecksRun;
    if (A >= AlgCount) {
      addFinding(R, AuditCheck::TableShape, AuditSeverity::Violation, "table",
                 0, 0,
                 strFormat("choice value %u outside the %s algorithm "
                           "registry",
                           A, collectiveOpName(T.Collective)));
      return R;
    }
  }

  // Every chosen algorithm must be the models' argmin (within
  // tolerance): a swapped row, a stale table or a hand-edited entry
  // shows up as a cell whose choice is measurably beaten.
  for (std::size_t PI = 0; PI != T.Procs.size(); ++PI) {
    const unsigned P = T.Procs[PI];
    for (std::size_t MI = 0; MI != T.MessageSizes.size(); ++MI) {
      const std::uint64_t M = T.MessageSizes[MI];
      const unsigned Chosen = T.at(PI, MI);
      const double ChosenCost = Predict(Chosen, P, M);
      unsigned Best = 0;
      double BestCost = Predict(0, P, M);
      for (unsigned A = 1; A != AlgCount; ++A) {
        const double Cost = Predict(A, P, M);
        if (Cost < BestCost) {
          Best = A;
          BestCost = Cost;
        }
      }
      ++R.ChecksRun;
      if (!(ChosenCost <=
            BestCost * (1.0 + Options.ConsistencyTolerance)) ||
          !std::isfinite(ChosenCost))
        addFinding(R, AuditCheck::TableConsistency,
                   AuditSeverity::Violation, "table", P, M,
                   strFormat("table picks %s (%.4e s) but the models' "
                             "argmin is %s (%.4e s)",
                             collectiveAlgorithmName(T.Collective, Chosen),
                             ChosenCost,
                             collectiveAlgorithmName(T.Collective, Best),
                             BestCost));
    }
  }

  // Crossover islands: a run of algorithm X along the m axis narrower
  // than MinIslandWidth, flanked on both sides by the same other
  // algorithm Y. Genuine crossovers produce wide contiguous bands; a
  // one-cell blip inside a band is the signature of a noisy
  // calibration point.
  if (Options.MinIslandWidth > 1) {
    for (std::size_t PI = 0; PI != T.Procs.size(); ++PI) {
      const unsigned P = T.Procs[PI];
      std::size_t RunStart = 0;
      while (RunStart < T.MessageSizes.size()) {
        std::size_t RunEnd = RunStart;
        while (RunEnd + 1 < T.MessageSizes.size() &&
               T.at(PI, RunEnd + 1) == T.at(PI, RunStart))
          ++RunEnd;
        const std::size_t Width = RunEnd - RunStart + 1;
        ++R.ChecksRun;
        if (RunStart > 0 && RunEnd + 1 < T.MessageSizes.size() &&
            Width < Options.MinIslandWidth &&
            T.at(PI, RunStart - 1) == T.at(PI, RunEnd + 1))
          addFinding(R, AuditCheck::TableIsland, AuditSeverity::Warning,
                     "table", P, T.MessageSizes[RunStart],
                     strFormat("%zu-cell island of %s inside a %s band "
                               "(narrower than %u)",
                               Width, T.nameAt(PI, RunStart),
                               T.nameAt(PI, RunStart - 1),
                               Options.MinIslandWidth));
        RunStart = RunEnd + 1;
      }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Decision-table diffing
//===----------------------------------------------------------------------===//

TableDiff mpicsel::diffDecisionTables(const DecisionTable &Before,
                                      const DecisionTable &After) {
  TableDiff D;
  D.Collective = Before.Collective;
  if (Before.Collective != After.Collective) {
    D.GridMismatch =
        strFormat("tables serve different collectives (%s vs %s)",
                  collectiveOpName(Before.Collective),
                  collectiveOpName(After.Collective));
    return D;
  }
  if (Before.Procs != After.Procs) {
    D.GridMismatch = strFormat("communicator grids differ (%zu vs %zu "
                               "entries)",
                               Before.Procs.size(), After.Procs.size());
    return D;
  }
  if (Before.MessageSizes != After.MessageSizes) {
    D.GridMismatch =
        strFormat("message grids differ (%zu vs %zu entries)",
                  Before.MessageSizes.size(), After.MessageSizes.size());
    return D;
  }
  if (Before.Choice.size() != After.Choice.size() ||
      Before.Choice.size() !=
          Before.Procs.size() * Before.MessageSizes.size()) {
    D.GridMismatch = strFormat("choice payloads differ or are truncated "
                               "(%zu vs %zu)",
                               Before.Choice.size(), After.Choice.size());
    return D;
  }
  D.Comparable = true;
  D.CellCount = static_cast<unsigned>(Before.Choice.size());
  for (std::size_t PI = 0; PI != Before.Procs.size(); ++PI)
    for (std::size_t MI = 0; MI != Before.MessageSizes.size(); ++MI)
      if (Before.at(PI, MI) != After.at(PI, MI))
        D.Changed.push_back({Before.Procs[PI], Before.MessageSizes[MI],
                             Before.at(PI, MI), After.at(PI, MI)});
  return D;
}

std::string TableDiff::str() const {
  if (!Comparable)
    return strFormat("tables are not comparable: %s\n",
                     GridMismatch.c_str());
  std::string Out =
      strFormat("table diff: %zu of %u cell(s) changed\n", Changed.size(),
                CellCount);
  for (const TableCellDiff &C : Changed)
    Out += strFormat("  P=%u m=%llu: %s -> %s\n", C.NumProcs,
                     static_cast<unsigned long long>(C.MessageBytes),
                     collectiveAlgorithmName(Collective, C.Before),
                     collectiveAlgorithmName(Collective, C.After));
  return Out;
}

//===----------------------------------------------------------------------===//
// Journal and the post-calibration hook
//===----------------------------------------------------------------------===//

AuditMode mpicsel::auditModeFromEnv() {
  const char *Env = std::getenv("MPICSEL_AUDIT");
  if (!Env || !*Env)
    return AuditMode::Warn;
  const std::string Value(Env);
  if (Value == "warn")
    return AuditMode::Warn;
  if (Value == "off" || Value == "0")
    return AuditMode::Off;
  if (Value == "strict")
    return AuditMode::Strict;
  fatalError(strFormat("MPICSEL_AUDIT must be 'off', 'warn' or 'strict', "
                       "got '%s'",
                       Value.c_str()));
}

void mpicsel::journalAuditReport(const AuditReport &Report,
                                 const std::string &Subject) {
  obs::bump(obs::Counter::AuditChecks, Report.ChecksRun);
  obs::bump(obs::Counter::AuditViolations, Report.violations());
  obs::Journal &J = obs::Journal::global();
  if (!J.enabled())
    return;
  for (const AuditFinding &F : Report.Findings) {
    JsonObject Event = J.line("audit");
    Event.set("subject", Subject);
    Event.set("check", auditCheckName(F.Check));
    Event.set("severity", auditSeverityName(F.Sev));
    Event.set("where", F.Where);
    if (F.NumProcs != 0)
      Event.set("p", F.NumProcs);
    if (F.MessageBytes != 0)
      Event.set("m", F.MessageBytes);
    Event.set("detail", F.Detail);
    J.write(Event);
  }
  JsonObject Summary = J.line("audit_summary");
  Summary.set("subject", Subject);
  Summary.set("checks", Report.ChecksRun);
  Summary.set("violations", Report.violations());
  Summary.set("warnings", Report.warnings());
  J.write(Summary);
}

AuditReport mpicsel::postCalibrationAudit(const CalibratedModels &Models,
                                          const std::string &Context,
                                          unsigned MaxProcs) {
  const AuditMode Mode = auditModeFromEnv();
  if (Mode == AuditMode::Off)
    return {};
  AuditOptions Options;
  Options.Procs = defaultProcsGrid(MaxProcs);
  AuditReport Report = auditModels(Models, Options);
  journalAuditReport(Report, Context);
  if (Report.violations() == 0)
    return Report;
  if (Mode == AuditMode::Strict)
    fatalError(strFormat("MPICSEL_AUDIT=strict: calibrated models for '%s' "
                         "violate performance guidelines\n%s",
                         Context.c_str(), Report.str().c_str()));
  std::fprintf(stderr,
               "warning: calibrated models for '%s' fail the performance "
               "audit (set MPICSEL_AUDIT=strict to make this fatal, =off "
               "to silence)\n%s",
               Context.c_str(), Report.str().c_str());
  return Report;
}
