//===- perfbench/cpp/main.cpp - Benchmark workload runner -----------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// Runs one workload of the repository benchmark and prints its raw
// record as one JSON line. perfbench/run.py builds this binary, runs
// it and derives the reported metrics; see perfbench/NOTES.md.
//
//   perfbench <workload> --seed N --seconds S --trace 0|1
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Metrics.h"
#include "obs/Rss.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench bcast_paper|allreduce_paper|serve_swap|"
               "stream_100k --seed N --seconds S --trace 0|1\n");
  return 2;
}

bool parseUnsigned(const char *Text, std::uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno != 0 || End == Text || *End != '\0' || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  RunOptions Opts;
  Opts.Workload = Argv[1];
  for (int I = 2; I < Argc; I += 2) {
    if (I + 1 >= Argc)
      return usage();
    const std::string Flag = Argv[I];
    std::uint64_t Value = 0;
    if (!parseUnsigned(Argv[I + 1], Value))
      return usage();
    if (Flag == "--seed")
      Opts.Seed = Value;
    else if (Flag == "--seconds" && Value >= 1 && Value <= 600)
      Opts.Seconds = static_cast<double>(Value);
    else if (Flag == "--trace" && Value <= 1)
      Opts.Trace = Value == 1;
    else
      return usage();
  }

  // The traced run turns the obs registry on; the untraced run leaves
  // it off, as a production process without MPICSEL_METRICS does.
  mpicsel::obs::setMetricsEnabled(Opts.Trace);
  RunRecord Rec;
  Rec.Spans = SpanRecorder(Opts.Trace);
  if (Opts.Workload == "bcast_paper")
    runBcastPaper(Opts, Rec);
  else if (Opts.Workload == "allreduce_paper")
    runAllreducePaper(Opts, Rec);
  else if (Opts.Workload == "serve_swap")
    runServeSwap(Opts, Rec);
  else if (Opts.Workload == "stream_100k")
    runStream100k(Opts, Rec);
  else
    return usage();
  Rec.PeakRssKiB = mpicsel::obs::peakRssKiB();
  std::printf("%s\n", Rec.render().c_str());
  return 0;
}
