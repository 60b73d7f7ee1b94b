//===- perfbench/cpp/ServeWorkload.cpp - Served lookups under swaps -------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// serve_swap: a DecisionService serving a table3-sized image (7 procs
// x 10 sizes, built from fixed models) to two reader threads in a
// closed loop -- each issues its next lookup when the previous one
// returns -- while one swapper thread publishes two different tables
// alternately on a fixed period (an open loop). No simulator runs, so
// every cycle is spent in the serving layer, and the readers and the
// publisher contend on it together.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "serve/DecisionService.h"
#include "serve/TableImage.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <thread>

using namespace mpicsel;

namespace perfbench {
namespace {

/// The set-up takes a few milliseconds, so each run repeats it often
/// enough (about 0.3 s in all) for a steady median.
constexpr unsigned SetupRepeats = 100;
constexpr unsigned Readers = 2;
constexpr std::size_t BlockLookups = 4096;
/// Lookups each reader serves per timed round.
constexpr std::size_t RoundBlocks = 128;
/// Single-reader blocks measured just before the multi-reader rounds.
constexpr std::size_t SingleBlocks = 1024;
constexpr std::size_t QueryCount = 1 << 16;
/// The swapper's period: one publication per millisecond.
constexpr std::chrono::microseconds SwapPeriod{1000};

/// Everything the timed phase needs, built by the set-up.
struct ServeSetup {
  DecisionTable Tables[2];
  std::vector<unsigned char> Images[2];
  std::vector<Query> Queries;
  std::vector<unsigned> Expected[2];
  double CompileSeconds = 0.0;
  /// Serves the first table from the end of the set-up on.
  std::unique_ptr<serve::DecisionService> Service;
  bool Published = false;
};

ServeSetup setupServe(std::uint64_t Seed) {
  ServeSetup S;
  S.Tables[0] = deployedTable(1.0);
  S.Tables[1] = deployedTable(8.0);
  const std::uint64_t Start = nowNs();
  for (unsigned T = 0; T != 2; ++T)
    S.Images[T] = serve::compileDecisionTableImage(S.Tables[T]);
  S.CompileSeconds = secondsBetween(Start, nowNs());
  S.Queries = makeQueries(S.Tables[0].Procs, S.Tables[0].MessageSizes,
                          QueryCount, deriveSeed(Seed, 300));
  for (unsigned T = 0; T != 2; ++T) {
    S.Expected[T].reserve(S.Queries.size());
    for (const Query &Q : S.Queries)
      S.Expected[T].push_back(scanLookup(S.Tables[T], Q.NumProcs,
                                         Q.MessageBytes));
  }
  S.Service = std::make_unique<serve::DecisionService>();
  serve::DecisionTableImage First;
  S.Published = First.loadFromBytes(S.Images[0].data(), S.Images[0].size()) &&
                S.Service->publishImage(std::move(First), "perfbench");
  return S;
}

} // namespace

void runServeSwap(const RunOptions &Opts, RunRecord &Rec) {
  std::vector<double> CompileSeconds;
  const ServeSetup S = repeatSetup(
      SetupRepeats, Rec, [&] { return setupServe(Opts.Seed); },
      [&](const ServeSetup &Fresh) {
        CompileSeconds.push_back(Fresh.CompileSeconds);
        ++Rec.Attempted;
        if (!Fresh.Published)
          Rec.fail(1, "set-up image refused by the service");
      });
  serve::DecisionService &Service = *S.Service;
  ++Rec.Attempted;
  if (S.Tables[0].Choice == S.Tables[1].Choice)
    Rec.fail(1, "the two swapped tables are identical");
  for (const DecisionTable &T : S.Tables)
    Rec.ResultHash =
        mixHash(Rec.ResultHash, serve::decisionTableContentHash(T));

  // One reader, no swapper: the base of the multi-reader ratio,
  // measured in this process just before the contended rounds.
  std::vector<double> SingleNs;
  {
    ScopedSpan Span(Rec.Spans, "serve.single");
    std::uint64_t Bad = 0;
    std::size_t Pos = 0;
    for (std::size_t Block = 0; Block != SingleBlocks; ++Block) {
      const std::uint64_t Start = nowNs();
      for (std::size_t I = 0; I != BlockLookups; ++I) {
        const Query &Q = S.Queries[Pos];
        Bad += Service.lookup(Q.NumProcs, Q.MessageBytes).Choice !=
                       S.Expected[0][Pos]
                   ? 1
                   : 0;
        if (++Pos == S.Queries.size())
          Pos = 0;
      }
      SingleNs.push_back(static_cast<double>(nowNs() - Start) /
                         static_cast<double>(BlockLookups));
    }
    Rec.Attempted += SingleBlocks * BlockLookups;
    Rec.fail(Bad, "single-reader lookup differs from the scan oracle");
  }

  std::barrier<> Sync(Readers + 1);
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Neither{0};
  std::vector<std::vector<double>> ReaderNs(Readers);
  std::vector<std::thread> Threads;
  for (unsigned R = 0; R != Readers; ++R)
    Threads.emplace_back([&, R] {
      std::vector<double> &Samples = ReaderNs[R];
      Samples.reserve(static_cast<std::size_t>(Opts.Seconds * 2e4));
      std::size_t Pos = (R * S.Queries.size()) / Readers;
      // Warm-up: register this thread's epoch slot before timing.
      (void)Service.lookup(S.Queries[Pos].NumProcs,
                           S.Queries[Pos].MessageBytes);
      std::uint64_t Bad = 0;
      for (;;) {
        Sync.arrive_and_wait();
        if (Stop.load(std::memory_order_acquire))
          break;
        for (std::size_t Block = 0; Block != RoundBlocks; ++Block) {
          const std::uint64_t Start = nowNs();
          for (std::size_t I = 0; I != BlockLookups; ++I) {
            const Query &Q = S.Queries[Pos];
            const unsigned Choice =
                Service.lookup(Q.NumProcs, Q.MessageBytes).Choice;
            Bad += (Choice != S.Expected[0][Pos] &&
                    Choice != S.Expected[1][Pos])
                       ? 1
                       : 0;
            if (++Pos == S.Queries.size())
              Pos = 0;
          }
          Samples.push_back(static_cast<double>(nowNs() - Start) /
                            static_cast<double>(BlockLookups));
        }
        Sync.arrive_and_wait();
      }
      Neither.fetch_add(Bad, std::memory_order_relaxed);
    });

  // The swapper publishes on a fixed schedule whatever the readers do;
  // each publication is timed from when it was due.
  std::atomic<bool> StopSwapper{false};
  std::vector<double> PublishUs, LateUs;
  std::size_t RetiredMax = 0;
  std::uint64_t PublishFailures = 0;
  const std::uint64_t SwapsBefore = Service.swapCount();
  std::thread Swapper([&] {
    auto Due = std::chrono::steady_clock::now();
    unsigned Next = 1;
    while (!StopSwapper.load(std::memory_order_acquire)) {
      const auto Begin = std::chrono::steady_clock::now();
      LateUs.push_back(
          std::chrono::duration<double, std::micro>(Begin - Due).count());
      serve::DecisionTableImage Image;
      const bool Ok =
          Image.loadFromBytes(S.Images[Next].data(), S.Images[Next].size()) &&
          Service.publishImage(std::move(Image), "perfbench_swap");
      PublishUs.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - Begin)
                              .count());
      PublishFailures += Ok ? 0 : 1;
      RetiredMax = std::max(RetiredMax, Service.retiredCount());
      Next ^= 1;
      Due += SwapPeriod;
      std::this_thread::sleep_until(Due);
    }
  });

  double Total = 0.0;
  {
    ScopedSpan Span(Rec.Spans, "serve.multi");
    while (anotherUnit(Total, Rec.SolveSeconds.size(), Opts.Seconds)) {
      const std::uint64_t Start = nowNs();
      Sync.arrive_and_wait();
      Sync.arrive_and_wait();
      const double Round = secondsBetween(Start, nowNs());
      Rec.SolveSeconds.push_back(Round);
      Total += Round;
    }
  }
  Stop.store(true, std::memory_order_release);
  Sync.arrive_and_wait();
  for (std::thread &T : Threads)
    T.join();
  StopSwapper.store(true, std::memory_order_release);
  Swapper.join();

  const std::uint64_t Swaps = Service.swapCount() - SwapsBefore;
  for (const std::vector<double> &Samples : ReaderNs)
    Rec.LookupNs.insert(Rec.LookupNs.end(), Samples.begin(), Samples.end());
  Rec.Lookups = static_cast<std::uint64_t>(Rec.SolveSeconds.size()) *
                Readers * RoundBlocks * BlockLookups;
  Rec.LookupSeconds = Total;
  Rec.Attempted += Rec.Lookups + PublishUs.size() + 1;
  Rec.fail(Neither.load(), "served answer matches neither published table");
  Rec.fail(PublishFailures, "swap publication refused");
  Rec.fail(Swaps == 0 ? 1 : 0, "no swap happened during the rounds");

  Rec.layer("image_compile_us", median(CompileSeconds) * 1e6);
  Rec.layer("single_p50_ns", median(SingleNs));
  Rec.layer("publish_p50_us", median(PublishUs));
  Rec.layer("swap_late_p50_us", median(LateUs));
  Rec.layer("swaps", static_cast<double>(Swaps));
  Rec.layer("retired_max", static_cast<double>(RetiredMax));
}

} // namespace perfbench
