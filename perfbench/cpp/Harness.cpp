//===- perfbench/cpp/Harness.cpp - Shared benchmark harness ---------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "mpi/CompiledSchedule.h"
#include "serve/DecisionService.h"
#include "sim/Engine.h"

#include <algorithm>
#include <cstring>
#include <ctime>

using namespace mpicsel;

namespace perfbench {

std::uint64_t deriveSeed(std::uint64_t Seed, std::uint64_t Salt) {
  std::uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

namespace {
double cpuClockSeconds(clockid_t Clock) {
  timespec Ts{};
  clock_gettime(Clock, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) / 1e9;
}
} // namespace

double processCpuSeconds() { return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double threadCpuSeconds() { return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  return Values[Values.size() / 2];
}

int SpanRecorder::open(const char *Name) {
  if (!On)
    return -1;
  Spans.push_back({Name, nowNs(), 0, Current});
  Current = static_cast<int>(Spans.size()) - 1;
  return Current;
}

void SpanRecorder::close(int Id) {
  if (!On || Id < 0)
    return;
  Spans[Id].EndNs = nowNs();
  Current = Spans[Id].Parent;
}

std::vector<JsonObject> SpanRecorder::render() const {
  std::vector<JsonObject> Out;
  const std::uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans) {
    JsonObject O;
    O.set("name", S.Name);
    O.set("start_ns", S.StartNs - Origin);
    O.set("end_ns", S.EndNs - Origin);
    O.set("parent", static_cast<std::int64_t>(S.Parent));
    Out.push_back(std::move(O));
  }
  return Out;
}

void RunRecord::fail(std::uint64_t Count, const std::string &What) {
  if (Count == 0)
    return;
  Failed += Count;
  Failures.push_back(std::to_string(Count) + " x " + What);
}

std::string RunRecord::render() const {
  JsonObject O;
  O.set("attempted", Attempted);
  O.set("failed", Failed);
  std::string Joined;
  for (const std::string &F : Failures)
    Joined += (Joined.empty() ? "" : "; ") + F;
  O.set("failures", Joined);
  O.set("setup_s", SetupSeconds);
  O.set("solve_s", SolveSeconds);
  O.set("lookup_ns", LookupNs);
  O.set("lookups", Lookups);
  O.set("lookup_seconds", LookupSeconds);
  O.set("peak_rss_kib", PeakRssKiB);
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(ResultHash));
  O.set("result_hash", std::string(Hex));
  JsonObject L;
  for (const auto &[Name, Value] : Layers)
    L.set(Name, Value);
  O.set("layers", std::move(L));
  O.set("spans", Spans.render());
  return O.renderCompact();
}

std::uint64_t mixHash(std::uint64_t Hash, std::uint64_t Value) {
  for (int I = 0; I != 8; ++I) {
    Hash ^= (Value >> (8 * I)) & 0xff;
    Hash *= 0x100000001B3ull;
  }
  return Hash;
}

std::uint64_t mixHash(std::uint64_t Hash, double Value) {
  std::uint64_t Bits = 0;
  std::memcpy(&Bits, &Value, sizeof(Bits));
  return mixHash(Hash, Bits);
}

std::vector<Query> makeQueries(const std::vector<unsigned> &Procs,
                               const std::vector<std::uint64_t> &Sizes,
                               std::size_t Count, std::uint64_t Seed) {
  std::vector<Query> Queries;
  Queries.reserve(Count);
  std::uint64_t Lcg = Seed | 1;
  for (std::size_t I = 0; I != Count; ++I) {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t R = Lcg >> 11;
    unsigned P = Procs[R % Procs.size()];
    std::uint64_t M = Sizes[(R / 7) % Sizes.size()];
    if ((R & 3) == 0) {
      P += static_cast<unsigned>((R >> 3) % 5);       // between rows / past end
      M += (M / 3) * ((R >> 5) % 2) + ((R >> 6) % 7); // within / next octave
      if ((R >> 8) % 16 == 0) {
        P = 1;  // below the proc grid
        M = 17; // below the size grid
      }
    }
    Queries.push_back({P, M});
  }
  return Queries;
}

unsigned scanLookup(const DecisionTable &T, unsigned NumProcs,
                    std::uint64_t MessageBytes) {
  std::size_t Row = 0;
  for (std::size_t I = 1; I < T.Procs.size(); ++I)
    if (T.Procs[I] <= NumProcs)
      Row = I;
  std::size_t Col = 0;
  for (std::size_t J = 1; J < T.MessageSizes.size(); ++J)
    if (T.MessageSizes[J] <= MessageBytes)
      Col = J;
  return T.at(Row, Col);
}

std::vector<std::uint64_t> paperSizes() {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = 8 * 1024; Bytes <= 4 * 1024 * 1024; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

DecisionTable deployedTable(double TreeAlphaScale) {
  CalibratedModels M;
  M.Gamma = GammaFunction({1.0, 1.114, 1.219, 1.283, 1.451, 1.540});
  const double Alphas[] = {2.2e-6, 2.2e-5, 6.0e-6, 4.9e-6, 6.7e-6, 4.7e-6};
  const double Betas[] = {5.3e-9, 1.0e-10, 1.8e-9, 2.2e-9, 1.5e-9, 2.3e-9};
  for (unsigned I = 0; I != NumBcastAlgorithms; ++I) {
    M.Algorithms[I].Algorithm = static_cast<BcastAlgorithm>(I);
    const bool Tree = I >= static_cast<unsigned>(BcastAlgorithm::Binary);
    M.Algorithms[I].Alpha = Alphas[I] * (Tree ? TreeAlphaScale : 1.0);
    M.Algorithms[I].Beta = Betas[I];
  }
  return buildDecisionTable(M, {2, 4, 8, 16, 32, 64, 128}, paperSizes());
}

void checkServedTables(const std::vector<DecisionTable> &Tables,
                       const std::vector<std::vector<Query>> &Queries,
                       RunRecord &Rec) {
  for (std::size_t Index = 0; Index != Tables.size(); ++Index) {
    const DecisionTable &T = Tables[Index];
    serve::DecisionService Service;
    ++Rec.Attempted;
    if (!Service.publishTable(T, "perfbench")) {
      Rec.fail(1, "decision table refused by the service");
      continue;
    }
    std::uint64_t Mismatches = 0;
    for (std::size_t I = 0; I != T.Procs.size(); ++I)
      for (std::size_t J = 0; J != T.MessageSizes.size(); ++J) {
        const serve::TableLookup L =
            Service.lookup(T.Procs[I], T.MessageSizes[J]);
        Mismatches += (L.Choice != T.at(I, J) || !L.Exact) ? 1 : 0;
      }
    for (const Query &Q : Queries[Index])
      Mismatches += Service.lookup(Q.NumProcs, Q.MessageBytes).Choice !=
                            scanLookup(T, Q.NumProcs, Q.MessageBytes)
                        ? 1
                        : 0;
    Rec.Attempted += T.Choice.size() + Queries[Index].size();
    Rec.fail(Mismatches, "served lookup differs from its table");
  }
}

namespace {

template <typename T> std::uint64_t heapBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

/// Heap bytes a compiled schedule holds, from its public arrays,
/// including the retained source schedule.
std::uint64_t compiledBytes(const CompiledSchedule &CS) {
  std::uint64_t Bytes = heapBytes(CS.Kind) + heapBytes(CS.OpRank) +
                        heapBytes(CS.OpPeer) + heapBytes(CS.OpBytes) +
                        heapBytes(CS.OpTag) + heapBytes(CS.OpDuration) +
                        heapBytes(CS.DepOffsets) + heapBytes(CS.DepList) +
                        heapBytes(CS.SuccOffsets) + heapBytes(CS.SuccList) +
                        heapBytes(CS.InDegree) + heapBytes(CS.Roots) +
                        heapBytes(CS.RankOpOffsets) + heapBytes(CS.RankOps) +
                        heapBytes(CS.ChannelOf) +
                        heapBytes(CS.ChannelSendOffsets) +
                        heapBytes(CS.ChannelRecvOffsets) + heapBytes(CS.Hot) +
                        heapBytes(CS.Source.Ops);
  for (const Op &O : CS.Source.Ops)
    Bytes += heapBytes(O.Deps);
  return Bytes;
}

} // namespace

void timeScheduleLayers(const std::vector<GridCase> &Cases,
                        std::uint64_t Seed, RunRecord &Rec) {
  // One case at a time, so only one compiled schedule is alive; one
  // engine replays them all, each timed replay right after a warm-up
  // replay of the same schedule.
  constexpr unsigned TimedReplays = 2;
  Engine E;
  std::uint64_t Ops = 0, BuildNs = 0, LowerNs = 0, Bytes = 0, ReplayNs = 0,
                Events = 0, Incomplete = 0;
  for (std::size_t I = 0; I != Cases.size(); ++I) {
    std::uint64_t Start = nowNs();
    Schedule S = Cases[I].Build();
    BuildNs += nowNs() - Start;
    Ops += S.Ops.size();

    Start = nowNs();
    const CompiledSchedule CS = compileSchedule(std::move(S));
    LowerNs += nowNs() - Start;
    Bytes += compiledBytes(CS);

    const std::uint64_t ReplaySeed = deriveSeed(Seed, 1000 + I);
    Incomplete += E.run(CS, *Cases[I].Plat, ReplaySeed).Completed ? 0 : 1;
    const obs::MetricsSnapshot Before = obs::snapshotMetrics();
    Start = nowNs();
    for (unsigned R = 0; R != TimedReplays; ++R)
      Incomplete += E.run(CS, *Cases[I].Plat, ReplaySeed).Completed ? 0 : 1;
    ReplayNs += nowNs() - Start;
    Events += obs::snapshotMetrics().counter(obs::Counter::EngineEvents) -
              Before.counter(obs::Counter::EngineEvents);
  }
  Rec.layer("ops", static_cast<double>(Ops));
  Rec.layer("coll_build_ns", static_cast<double>(BuildNs));
  Rec.layer("mpi_lower_ns", static_cast<double>(LowerNs));
  Rec.layer("mpi_compiled_bytes", static_cast<double>(Bytes));
  Rec.layer("sim_warm_ns", static_cast<double>(ReplayNs));
  Rec.layer("sim_warm_events", static_cast<double>(Events));
  Rec.Attempted += Cases.size() * (TimedReplays + 1);
  Rec.fail(Incomplete, "warm replay did not complete");
}

} // namespace perfbench
