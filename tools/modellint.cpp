//===- tools/modellint.cpp - Static lint of calibrated models -------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
//
// The performance counterpart of schedlint: audits a calibrated model
// set and its derived decision table against the audit/Audit.h check
// catalogue -- parameter sanity, gamma shape, cost positivity,
// monotonicity in m and P, the Hunold-style cross-algorithm
// guidelines, and decision-table consistency -- over a configurable
// (P, m) grid, without running the simulator.
//
// Models come from either a fresh (optionally cached) calibration of
// a named platform or a `--models` cache-entry file; `--table` audits
// an explicit table file against them, and `--diff-old/--diff-new`
// structurally compares two table files instead. Table files may be
// the cache's text format or a binary DecisionTableImage (detected by
// magic), so audited text and served binary tables are provably the
// same table: `--diff-old table.txt --diff-new table.img` with zero
// changed cells is the equivalence certificate. A clean audit prints
// one summary line and exits 0; any violation lists its finding and
// makes the exit status 1 (warnings are listed but do not gate), so
// the tool can guard CI. Usage errors exit 2.
//
// --jobs N fans the per-P grid columns over a work-stealing pool
// (stat/ParallelSweep.h) with results merged in grid order, so the
// report and exit status are identical for any job count.
//
//===----------------------------------------------------------------------===//

#include "audit/Audit.h"
#include "bench/BenchCommon.h"
#include "cluster/Platform.h"
#include "coll/Collective.h"
#include "model/DecisionCache.h"
#include "obs/Journal.h"
#include "serve/TableImage.h"
#include "stat/ParallelSweep.h"
#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using namespace mpicsel;

namespace {

bool parseProcsList(const std::string &Flag, std::vector<unsigned> &Out) {
  for (std::size_t Pos = 0; Pos <= Flag.size();) {
    std::size_t Comma = Flag.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Flag.size();
    std::string Token = Flag.substr(Pos, Comma - Pos);
    unsigned P = 0;
    for (char C : Token) {
      if (C < '0' || C > '9') {
        P = 0;
        break;
      }
      P = P * 10 + static_cast<unsigned>(C - '0');
    }
    if (Token.empty() || P < 2)
      return false;
    Out.push_back(P);
    Pos = Comma + 1;
  }
  return true;
}

JsonObject findingToJson(const AuditFinding &F) {
  JsonObject O;
  O.set("check", auditCheckName(F.Check));
  O.set("severity", auditSeverityName(F.Sev));
  O.set("where", F.Where);
  if (F.NumProcs != 0)
    O.set("p", F.NumProcs);
  if (F.MessageBytes != 0)
    O.set("m", F.MessageBytes);
  O.set("detail", F.Detail);
  return O;
}

bool writeReportJson(const std::string &Path, const std::string &Subject,
                     const AuditReport &Report, const TableDiff *Diff) {
  JsonObject Record;
  Record.set("tool", "modellint");
  Record.set("schema_version", static_cast<std::uint64_t>(1));
  Record.set("subject", Subject);
  Record.set("checks", Report.ChecksRun);
  Record.set("violations", Report.violations());
  Record.set("warnings", Report.warnings());
  std::vector<JsonObject> Findings;
  for (const AuditFinding &F : Report.Findings)
    Findings.push_back(findingToJson(F));
  Record.set("findings", Findings);
  if (Diff) {
    JsonObject D;
    D.set("comparable", Diff->Comparable);
    if (!Diff->Comparable)
      D.set("mismatch", Diff->GridMismatch);
    D.set("cells", Diff->CellCount);
    std::vector<JsonObject> Changed;
    for (const TableCellDiff &C : Diff->Changed) {
      JsonObject Cell;
      Cell.set("p", C.NumProcs);
      Cell.set("m", C.MessageBytes);
      Cell.set("before", collectiveAlgorithmName(Diff->Collective, C.Before));
      Cell.set("after", collectiveAlgorithmName(Diff->Collective, C.After));
      Changed.push_back(std::move(Cell));
    }
    D.set("changed", Changed);
    Record.set("diff", std::move(D));
  }
  const std::string Text = Record.render();
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File) {
    std::fprintf(stderr, "error: cannot write JSON report to '%s'\n",
                 Path.c_str());
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), File) == Text.size();
  Ok = std::fclose(File) == 0 && Ok;
  if (Ok)
    std::fprintf(stderr, "wrote audit report: %s\n", Path.c_str());
  return Ok;
}

/// Calibrates \p Op on \p P afresh and flattens the models into the
/// tagged decision table over the audit grid, paired with the models'
/// predictions as the audit's cost oracle.
template <CollectiveOp Op>
std::pair<DecisionTable, TableCostFn>
calibratedTable(const Platform &P, bool Quick, const AuditOptions &Options) {
  CollectiveOptions<Op> CalOptions;
  if (Quick) {
    CalOptions.Adaptive.MinReps = 3;
    CalOptions.Adaptive.MaxReps = 8;
    CalOptions.GammaOptions.Adaptive.MinReps = 3;
    CalOptions.GammaOptions.Adaptive.MaxReps = 8;
  }
  const CollectiveModels<Op> Models = calibrateCollective<Op>(P, CalOptions);
  DecisionTable Table =
      buildDecisionTable(Models, Options.Procs, Options.MessageSizes);
  TableCostFn Predict = [Models](unsigned Choice, unsigned NumProcs,
                                 std::uint64_t Bytes) {
    using Algorithm = typename CollectiveModels<Op>::Algorithm;
    return Models.predict(static_cast<Algorithm>(Choice), NumProcs, Bytes);
  };
  return {std::move(Table), std::move(Predict)};
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PlatformName = "grisou";
  std::string CollectiveFlag = "bcast";
  bool Quick = false;
  bool UseCache = false;
  std::string ModelsFile;
  std::string TableFile;
  std::string DumpTable;
  std::string EmitImage;
  std::string DiffOld;
  std::string DiffNew;
  std::string ProcsFlag;
  std::uint64_t MaxBytes = 4 * 1024 * 1024;
  double Slack = 1.25;
  double MonotoneTolerance = 0.02;
  std::int64_t MinIsland = 2;
  std::string JsonPath;
  std::int64_t Jobs = 1;
  std::string MetricsPath;

  CommandLine Cli("Statically audit calibrated models and decision tables "
                  "(parameter sanity, monotonicity, performance "
                  "guidelines, table consistency); exit 1 on violations.");
  Cli.addFlag("platform", "platform to calibrate: grisou or gros",
              PlatformName);
  Cli.addFlag("collective",
              "collective to audit, spelled as in coll/Collective.h: "
              "bcast (default; the full model + table audit) or "
              "allgather/allreduce (calibrate the platform's models "
              "and audit the tagged decision table)",
              CollectiveFlag);
  Cli.addFlag("quick", "fewer repetitions per calibration measurement",
              Quick);
  Cli.addFlag("cache",
              "memoise the calibration in the decision cache "
              "(MPICSEL_CACHE_DIR)",
              UseCache);
  Cli.addFlag("models",
              "audit this calibration cache-entry file instead of "
              "calibrating a platform",
              ModelsFile);
  Cli.addFlag("table",
              "also audit this decision-table file against the models",
              TableFile);
  Cli.addFlag("dump-table",
              "write the decision table built over the audit grid to "
              "this file",
              DumpTable);
  Cli.addFlag("emit-image",
              "write the same table as a binary decision-table image "
              "(the serving format) to this file",
              EmitImage);
  Cli.addFlag("diff-old",
              "structural table diff: the 'before' file (text or "
              "binary image)",
              DiffOld);
  Cli.addFlag("diff-new",
              "structural table diff: the 'after' file (text or "
              "binary image)",
              DiffNew);
  Cli.addFlag("procs",
              "comma-separated communicator sizes of the audit grid "
              "(default: powers of two up to the platform size)",
              ProcsFlag);
  Cli.addByteSizeFlag("max-bytes",
                      "largest message size of the audit grid", MaxBytes);
  Cli.addFlag("slack", "multiplicative guideline slack", Slack);
  Cli.addFlag("monotone-tolerance",
              "relative dip tolerated by the monotonicity checks",
              MonotoneTolerance);
  Cli.addFlag("min-island",
              "flag crossover islands narrower than this (1 disables)",
              MinIsland);
  Cli.addFlag("json", "write a machine-readable report to this file",
              JsonPath);
  Cli.addFlag("jobs",
              "worker threads sweeping the grid (0 = MPICSEL_THREADS); "
              "output is identical for any job count",
              Jobs);
  bench::addMetricsFlag(Cli, MetricsPath);
  if (!Cli.parse(Argc, Argv))
    return Cli.helpRequested() ? 0 : 2;
  obs::initObservability(MetricsPath);

  // Table-diff mode: compare two table files and stop.
  if (!DiffOld.empty() || !DiffNew.empty()) {
    if (DiffOld.empty() || DiffNew.empty()) {
      std::fprintf(stderr,
                   "error: --diff-old and --diff-new must be given "
                   "together\n");
      return 2;
    }
    DecisionTable Old, New;
    if (!serve::readDecisionTableAnyFormat(DiffOld, Old)) {
      std::fprintf(stderr, "error: cannot read table file '%s'\n",
                   DiffOld.c_str());
      return 2;
    }
    if (!serve::readDecisionTableAnyFormat(DiffNew, New)) {
      std::fprintf(stderr, "error: cannot read table file '%s'\n",
                   DiffNew.c_str());
      return 2;
    }
    TableDiff Diff = diffDecisionTables(Old, New);
    std::fputs(Diff.str().c_str(), stdout);
    AuditReport Empty;
    if (!JsonPath.empty() &&
        !writeReportJson(JsonPath, DiffOld + " vs " + DiffNew, Empty, &Diff))
      return 2;
    // Incomparable grids gate (a recalibration must not change the
    // deployment grid); changed cells are reported, not failed.
    return Diff.Comparable ? 0 : 1;
  }

  if (MinIsland < 1 || Jobs < 0) {
    std::fprintf(stderr, "error: --min-island must be >= 1 and --jobs >= 0\n");
    return 2;
  }

  AuditOptions Options;
  Options.GuidelineSlack = Slack;
  Options.MonotoneTolerance = MonotoneTolerance;
  Options.MinIslandWidth = static_cast<unsigned>(MinIsland);
  Options.Threads = static_cast<unsigned>(Jobs);
  for (std::uint64_t Bytes = 8 * 1024; Bytes <= MaxBytes; Bytes *= 2)
    Options.MessageSizes.push_back(Bytes);
  if (Options.MessageSizes.empty()) {
    std::fprintf(stderr, "error: --max-bytes must be at least 8K\n");
    return 2;
  }
  if (!ProcsFlag.empty() && !parseProcsList(ProcsFlag, Options.Procs)) {
    std::fprintf(stderr,
                 "error: --procs expects comma-separated counts >= 2, "
                 "got '%s'\n",
                 ProcsFlag.c_str());
    return 2;
  }

  // Collective-sweep mode: like the diff mode, its own self-contained
  // path. Calibrate the named symmetric collective's models on the
  // platform and audit the tagged decision table they flatten to (the
  // op-generic shape/argmin/island checks of audit/Audit.h); bcast
  // falls through to the full model + table audit below.
  const std::optional<CollectiveOp> Collective =
      parseCollectiveOp(CollectiveFlag);
  if (!Collective) {
    std::fprintf(stderr,
                 "error: --collective: unknown collective '%s' (accepted "
                 "spellings: coll/Collective.h)\n",
                 CollectiveFlag.c_str());
    return 2;
  }
  if (*Collective != CollectiveOp::Bcast) {
    if (*Collective != CollectiveOp::Allgather &&
        *Collective != CollectiveOp::Allreduce) {
      std::fprintf(stderr,
                   "error: --collective %s is not audited by modellint "
                   "(supported: bcast, allgather, allreduce)\n",
                   collectiveOpName(*Collective));
      return 2;
    }
    if (!ModelsFile.empty() || !TableFile.empty() || UseCache) {
      std::fprintf(stderr,
                   "error: --collective %s calibrates the platform "
                   "afresh; --models, --table and --cache apply to the "
                   "bcast audit only\n",
                   collectiveOpName(*Collective));
      return 2;
    }
    if (PlatformName != "grisou" && PlatformName != "gros") {
      std::fprintf(stderr,
                   "error: unknown platform '%s' (expected 'grisou' or "
                   "'gros')\n",
                   PlatformName.c_str());
      return 2;
    }
    // This tool *is* the audit; silence the calibrateCached hook.
    setenv("MPICSEL_AUDIT", "off", /*overwrite=*/1);
    const Platform P = platformByName(PlatformName);
    if (Options.Procs.empty())
      for (unsigned Procs = 2; Procs <= P.maxProcs(); Procs *= 2)
        Options.Procs.push_back(Procs);
    const auto SweepStart = std::chrono::steady_clock::now();
    const auto [Built, Predict] =
        *Collective == CollectiveOp::Allgather
            ? calibratedTable<CollectiveOp::Allgather>(P, Quick, Options)
            : calibratedTable<CollectiveOp::Allreduce>(P, Quick, Options);
    AuditReport Report = auditDecisionTable(Built, Predict, Options);
    if (!DumpTable.empty() && !writeDecisionTableFile(DumpTable, Built)) {
      std::fprintf(stderr, "error: cannot write table to '%s'\n",
                   DumpTable.c_str());
      return 2;
    }
    if (!EmitImage.empty() &&
        !serve::writeDecisionTableImageFile(EmitImage, Built)) {
      std::fprintf(stderr, "error: cannot write table image to '%s'\n",
                   EmitImage.c_str());
      return 2;
    }
    const double Elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - SweepStart)
                               .count();
    const std::string Subject =
        PlatformName + ":" + collectiveOpName(*Collective);
    journalAuditReport(Report, Subject);
    obs::Journal &J = obs::Journal::global();
    if (J.enabled()) {
      JsonObject Event = J.line("modellint");
      Event.set("subject", Subject);
      Event.set("checks", Report.ChecksRun);
      Event.set("violations", Report.violations());
      Event.set("warnings", Report.warnings());
      Event.set("jobs", resolveSweepThreads(Options.Threads));
      Event.set("seconds", Elapsed);
      J.write(Event);
    }
    for (const AuditFinding &F : Report.Findings)
      std::printf("%s\n", F.str().c_str());
    std::printf("modellint: %s: %u check(s), %u violation(s), "
                "%u warning(s), %.2fs\n",
                Subject.c_str(), Report.ChecksRun, Report.violations(),
                Report.warnings(), Elapsed);
    if (!JsonPath.empty() &&
        !writeReportJson(JsonPath, Subject, Report, nullptr))
      return 2;
    return Report.violations() == 0 ? 0 : 1;
  }

  // Obtain the models: an explicit entry file, or a (possibly cached)
  // calibration of the named platform.
  CalibratedModels Models;
  std::string Subject;
  const auto Start = std::chrono::steady_clock::now();
  if (!ModelsFile.empty()) {
    if (!readCalibratedModelsFile(ModelsFile, Models)) {
      std::fprintf(stderr, "error: cannot parse models file '%s'\n",
                   ModelsFile.c_str());
      return 2;
    }
    Subject = ModelsFile;
  } else {
    if (PlatformName != "grisou" && PlatformName != "gros") {
      std::fprintf(stderr,
                   "error: unknown platform '%s' (expected 'grisou' or "
                   "'gros')\n",
                   PlatformName.c_str());
      return 2;
    }
    // This tool *is* the audit; silence the calibrateCached hook so
    // findings are reported once, by us, with the configured grid.
    setenv("MPICSEL_AUDIT", "off", /*overwrite=*/1);
    Platform P = platformByName(PlatformName);
    CalibrationOptions CalOptions = bench::paperCalibrationOptions(
        P, Quick, Options.Threads);
    if (UseCache) {
      DecisionCache Cache;
      Models = calibrateCached(P, CalOptions, Cache);
    } else {
      Models = calibrate(P, CalOptions);
    }
    Subject = PlatformName;
    if (Options.Procs.empty())
      for (unsigned Procs = 2; Procs <= P.maxProcs(); Procs *= 2)
        Options.Procs.push_back(Procs);
  }

  AuditReport Report = auditModels(Models, Options);

  // The derived decision table over the same grid: audited for
  // argmin consistency and crossover islands, optionally dumped, and
  // an explicit --table file is checked against the same models.
  DecisionTable Built = buildDecisionTable(
      Models, Options.Procs.empty() ? std::vector<unsigned>{2, 4, 8, 16, 32}
                                    : Options.Procs,
      Options.MessageSizes);
  Report.merge(auditDecisionTable(Built, Models, Options));
  if (!DumpTable.empty() && !writeDecisionTableFile(DumpTable, Built)) {
    std::fprintf(stderr, "error: cannot write table to '%s'\n",
                 DumpTable.c_str());
    return 2;
  }
  if (!EmitImage.empty() &&
      !serve::writeDecisionTableImageFile(EmitImage, Built)) {
    std::fprintf(stderr, "error: cannot write table image to '%s'\n",
                 EmitImage.c_str());
    return 2;
  }
  if (!TableFile.empty()) {
    DecisionTable T;
    if (!serve::readDecisionTableAnyFormat(TableFile, T)) {
      std::fprintf(stderr, "error: cannot parse table file '%s'\n",
                   TableFile.c_str());
      return 2;
    }
    Report.merge(auditDecisionTable(T, Models, Options));
  }
  const double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  journalAuditReport(Report, Subject);
  {
    obs::Journal &J = obs::Journal::global();
    if (J.enabled()) {
      JsonObject Event = J.line("modellint");
      Event.set("subject", Subject);
      Event.set("checks", Report.ChecksRun);
      Event.set("violations", Report.violations());
      Event.set("warnings", Report.warnings());
      Event.set("jobs", resolveSweepThreads(Options.Threads));
      Event.set("seconds", Elapsed);
      J.write(Event);
    }
  }

  for (const AuditFinding &F : Report.Findings)
    std::printf("%s\n", F.str().c_str());
  std::printf("modellint: %s: %u check(s), %u violation(s), %u warning(s), "
              "%.2fs\n",
              Subject.c_str(), Report.ChecksRun, Report.violations(),
              Report.warnings(), Elapsed);
  if (!JsonPath.empty() &&
      !writeReportJson(JsonPath, Subject, Report, nullptr))
    return 2;
  return Report.violations() == 0 ? 0 : 1;
}
