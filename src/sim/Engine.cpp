//===- sim/Engine.cpp - Discrete-event network simulator ------------------===//

#include "sim/Engine.h"

#include "obs/Metrics.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Random.h"
#include "verify/Verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

using namespace mpicsel;

namespace {

bool envRequestsVerification() {
  const char *Value = std::getenv("MPICSEL_VERIFY");
  if (!Value)
    return false;
  std::string V(Value);
  return V == "1" || V == "on" || V == "true" || V == "yes";
}

std::atomic<bool> &preflightFlag() {
  static std::atomic<bool> Flag{envRequestsVerification()};
  return Flag;
}

} // namespace

void mpicsel::setPreflightVerification(bool Enabled) {
  preflightFlag().store(Enabled, std::memory_order_relaxed);
}

bool mpicsel::preflightVerificationEnabled() {
  return preflightFlag().load(std::memory_order_relaxed);
}

namespace {

/// Resolves the effective fault schedule: an explicit argument wins,
/// otherwise the process-wide one (MPICSEL_FAULTS or
/// ScopedFaultInjection). An empty schedule degenerates to null so
/// the fault-free fast path stays bit-identical.
const FaultSchedule *resolveFaultSchedule(const FaultSchedule *Faults) {
  if (!Faults)
    Faults = globalFaultSchedule();
  if (Faults && Faults->empty())
    Faults = nullptr;
  return Faults;
}

/// Cross-checks the static pre-flight verdict against what actually
/// happened. The static analysis is exact for this IR (sends are
/// buffered), so any disagreement is a bug in the engine or the
/// verifier.
void crossCheckPreflight(ExecutionResult &Result, const VerifyReport &Report) {
  if (Result.Completed && Report.deadlocks())
    fatalError(strFormat("schedule completed but the static verifier "
                         "predicted deadlock:\n%s",
                         Report.str().c_str()));
  if (!Result.Completed) {
    if (Report.deadlocks())
      Result.Diagnostic +=
          strFormat("\nstatic verifier agrees:\n%s", Report.str().c_str());
    else
      Result.Diagnostic += "\nstatic verifier did NOT predict this "
                           "deadlock (analyzer gap)";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Compiled replay
//===----------------------------------------------------------------------===//

namespace {

/// Heap events. Dependency releases are handled inline (they occur at
/// the same timestamp as the completion that triggered them); only
/// future effects live on the heap. Channels are acquired at the
/// moment the contender physically reaches them -- the injection
/// channel when the CPU hands the message over, the drain channel
/// when the first byte arrives -- so FIFO order matches physical
/// arrival order rather than event-processing order.
enum class EventKind : std::uint8_t {
  /// A send's CPU work is done; contend for the injection channel.
  TxAcquire,
  /// A message's first byte reaches the destination node; contend for
  /// the drain channel.
  MsgArrival,
  /// A message has fully drained and can match a posted receive.
  MsgAvailable,
  /// An operation finishes (Send injection done, Compute done, Recv
  /// completion overhead paid).
  OpDone,
};

/// A compiled-replay heap event, packed to 16 bytes:
/// Key = Seq << 34 | Kind << 32 | Id. The creation sequence occupies
/// the top bits, so ordering equal-Time events by Key reproduces the
/// (Time, Seq) tiebreak of the legacy oracle (tests/oracle) with a
/// single integer compare.
struct ReplayEvent {
  double Time;
  std::uint64_t Key;

  static std::uint64_t packKey(std::uint64_t Seq, EventKind Kind, OpId Id) {
    static_assert(static_cast<unsigned>(EventKind::OpDone) < 4 &&
                      static_cast<unsigned>(EventKind::MsgAvailable) < 4,
                  "event kind must fit in two bits");
    assert(Seq < (std::uint64_t{1} << 30) && "event sequence overflow");
    return (Seq << 34) | (static_cast<std::uint64_t>(Kind) << 32) | Id;
  }
  EventKind kind() const {
    return static_cast<EventKind>((Key >> 32) & 3);
  }
  OpId id() const { return static_cast<OpId>(Key); }
};
static_assert(sizeof(ReplayEvent) == 16, "heap events must stay packed");

} // namespace

/// All per-run mutable state of the compiled replay. Every container
/// is sized by assign()/resize(), which reuse capacity: after the
/// first run of a given schedule shape nothing here touches the heap
/// again (the event heap is reserved to its worst case up front, see
/// CompiledExecutor::run).
struct Engine::RunState {
  std::vector<ReplayEvent> Heap;
  std::vector<std::uint32_t> PendingDeps;

  // Resources: free-at times.
  std::vector<double> CpuFree;   // per rank
  std::vector<double> NicTxFree; // per node
  std::vector<double> NicRxFree; // per node
  std::vector<double> MemTxFree; // per node
  std::vector<double> MemRxFree; // per node

  /// Platform::nodeOf per rank, computed once per run so the per-
  /// message hot path reads a table instead of dividing.
  std::vector<std::uint32_t> NodeOfRank;

  std::vector<double> LastByteArrival; // per op

  // Bump-pointer match queues. Channel C's messages live in slots
  // [ChannelSendOffsets[C], ChannelSendOffsets[C+1]) of the arenas,
  // its posted receives in the ChannelRecvOffsets row; Head/Tail are
  // counts relative to the row base. Each send enqueues at most one
  // message and each receive posts at most once, so the rows never
  // overflow and never need to wrap.
  std::vector<double> MsgAvail;
  std::vector<OpId> MsgSender;
  std::vector<OpId> PostedRecvQ;
  std::vector<std::uint32_t> MsgHead;
  std::vector<std::uint32_t> MsgTail;
  std::vector<std::uint32_t> RecvHead;
  std::vector<std::uint32_t> RecvTail;

  // Per-channel monotonic clocks for the non-overtaking clamps: first-
  // byte arrival on every run, availability under faults only.
  std::vector<double> ChanLastArrival;
  std::vector<double> ChanLastAvail;

  ExecutionResult Result;
};

namespace {

/// The compiled replay: the legacy oracle's event semantics and
/// noise-draw order (tests/oracle/LegacyEngine.cpp) over the flat IR,
/// with all mutable state borrowed
/// from a reusable Engine::RunState. Readiness is decrement-indegree
/// over the CSR successor rows; the event queue is a 4-ary min-heap
/// over the same (time, sequence) key -- that key is a strict total
/// order (sequence numbers are unique), so any min-heap pops events in
/// exactly the order the legacy binary heap did.
class CompiledExecutor {
public:
  CompiledExecutor(Engine::RunState &State, const CompiledSchedule &Compiled,
                   const Platform &Plat, std::uint64_t Seed,
                   const FaultSchedule *FaultSched)
      : RS(State), CS(Compiled), P(Plat), Rng(Seed), RunSeed(Seed),
        Faults(FaultSched) {}

  void run();

private:
  static constexpr std::size_t HeapArity = 4;

  static bool earlier(const ReplayEvent &A, const ReplayEvent &B) {
    if (A.Time != B.Time)
      return A.Time < B.Time;
    return A.Key < B.Key;
  }

  double noise(double Now) {
    double Sigma = P.NoiseSigma;
    if (Faults)
      Sigma *= Faults->sigmaMultiplier(Now);
    return Rng.nextLogNormalFactor(Sigma);
  }

  double cpuFactor(unsigned Rank, double Now) const {
    return Faults ? Faults->cpuMultiplier(Rank, Now) : 1.0;
  }

  void pushEvent(double Time, EventKind Kind, OpId Id) {
    std::vector<ReplayEvent> &H = RS.Heap;
    const ReplayEvent E{Time, ReplayEvent::packKey(NextSeq++, Kind, Id)};
    assert(H.size() < H.capacity() && "event heap outgrew its bound");
    std::size_t I = H.size();
    H.push_back(E);
    while (I != 0) {
      const std::size_t Parent = (I - 1) / HeapArity;
      if (!earlier(E, H[Parent]))
        break;
      H[I] = H[Parent];
      I = Parent;
    }
    H[I] = E;
  }

  ReplayEvent popEvent() {
    std::vector<ReplayEvent> &H = RS.Heap;
    const ReplayEvent Top = H[0];
    const ReplayEvent Last = H.back();
    H.pop_back();
    if (const std::size_t N = H.size()) {
      std::size_t I = 0;
      for (;;) {
        const std::size_t First = HeapArity * I + 1;
        if (First >= N)
          break;
        std::size_t Best = First;
        const std::size_t End = std::min(First + HeapArity, N);
        for (std::size_t C = First + 1; C != End; ++C)
          if (earlier(H[C], H[Best]))
            Best = C;
        if (!earlier(H[Best], Last))
          break;
        H[I] = H[Best];
        I = Best;
      }
      H[I] = Last;
    }
    return Top;
  }

  void activateOp(OpId Id, double Now) {
    RS.Result.Timings[Id].ReadyTime = Now;
    const CompiledOp &O = CS.Hot[Id];
    switch (O.Kind) {
    case OpKind::Send:
      startSend(Id, O, Now);
      return;
    case OpKind::Compute:
      startCompute(Id, O, Now);
      return;
    case OpKind::Recv:
      postRecv(Id, O, Now);
      return;
    }
  }

  void startSend(OpId Id, const CompiledOp &O, double Now) {
    double CpuStart = std::max(Now, RS.CpuFree[O.Rank]);
    double CpuDone = CpuStart + P.SendOverhead * noise(CpuStart) *
                                    cpuFactor(O.Rank, CpuStart);
    RS.CpuFree[O.Rank] = CpuDone;
    RS.Result.Timings[Id].StartTime = CpuStart;
    pushEvent(CpuDone, EventKind::TxAcquire, Id);
  }

  void onTxAcquire(OpId Id, double Now) {
    const CompiledOp &O = CS.Hot[Id];
    const unsigned SrcNode = RS.NodeOfRank[O.Rank];
    const bool Intra = SrcNode == RS.NodeOfRank[O.Peer];
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &TxFree =
        Intra ? RS.MemTxFree[SrcNode] : RS.NicTxFree[SrcNode];
    double TxStart = std::max(Now, TxFree);
    double TxOccupancy = Link.txOccupancy(O.Bytes) * noise(TxStart);
    if (Faults && !Intra)
      TxOccupancy *= Faults->txGapMultiplier(SrcNode, TxStart);
    double TxDone = TxStart + TxOccupancy;
    TxFree = TxDone;

    pushEvent(TxDone, EventKind::OpDone, Id);
    RS.Result.BytesSent[O.Rank] += O.Bytes;

    double Latency = Link.Latency * noise(TxStart);
    if (Faults && !Intra) {
      unsigned DstNode = RS.NodeOfRank[O.Peer];
      Latency *= Faults->latencyMultiplier(SrcNode, DstNode, TxStart);
      Latency += Faults->messageDelay(RunSeed, Id, TxStart);
      double &Prev = RS.ChanLastArrival[O.Channel];
      double Arrival = std::max(TxStart + Latency, Prev);
      Prev = Arrival;
      RS.LastByteArrival[Id] = Arrival + (TxDone - TxStart);
      pushEvent(Arrival, EventKind::MsgArrival, Id);
      return;
    }
    // Latency noise alone can invert same-channel first-byte order: a
    // short message injected right behind a long one may draw a smaller
    // latency and overtake it, which the strict arrival-order matcher
    // would pair with the wrong receive. Enforce non-overtaking here
    // too; the non-inverting case keeps the exact pre-clamp arithmetic
    // so unaffected runs stay bit-identical.
    const double Arrival = TxStart + Latency;
    double &Prev = RS.ChanLastArrival[O.Channel];
    if (Arrival >= Prev) {
      Prev = Arrival;
      RS.LastByteArrival[Id] = TxDone + Latency;
      pushEvent(Arrival, EventKind::MsgArrival, Id);
      return;
    }
    RS.LastByteArrival[Id] = Prev + (TxDone - TxStart);
    pushEvent(Prev, EventKind::MsgArrival, Id);
  }

  void onMsgArrival(OpId Id, double Now) {
    const CompiledOp &O = CS.Hot[Id];
    const unsigned DstNode = RS.NodeOfRank[O.Peer];
    const bool Intra = RS.NodeOfRank[O.Rank] == DstNode;
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &RxFree =
        Intra ? RS.MemRxFree[DstNode] : RS.NicRxFree[DstNode];
    double RxStart = std::max(Now, RxFree);
    double RxOccupancy = Link.rxOccupancy(O.Bytes) * noise(RxStart);
    if (Faults && !Intra)
      RxOccupancy *= Faults->rxGapMultiplier(DstNode, RxStart);
    double RxDone = std::max(RxStart + RxOccupancy, RS.LastByteArrival[Id]);
    RxFree = RxDone;
    if (Faults) {
      double &Prev = RS.ChanLastAvail[O.Channel];
      RxDone = std::max(RxDone, Prev);
      Prev = RxDone;
    }
    pushEvent(RxDone, EventKind::MsgAvailable, Id);
  }

  void startCompute(OpId Id, const CompiledOp &O, double Now) {
    double CpuStart = std::max(Now, RS.CpuFree[O.Rank]);
    double CpuDone = CpuStart + O.Duration * cpuFactor(O.Rank, CpuStart);
    RS.CpuFree[O.Rank] = CpuDone;
    RS.Result.Timings[Id].StartTime = CpuStart;
    if (CpuDone == Now) {
      // Zero-length join: finish inline to avoid flooding the heap.
      finishOp(Id, Now);
      return;
    }
    pushEvent(CpuDone, EventKind::OpDone, Id);
  }

  void postRecv(OpId Id, const CompiledOp &O, double Now) {
    const std::uint32_t C = O.Channel;
    if (RS.MsgHead[C] != RS.MsgTail[C]) {
      const std::uint32_t Slot = CS.ChannelSendOffsets[C] + RS.MsgHead[C]++;
      assert(RS.MsgAvail[Slot] <= Now && "message matched before it arrived");
      completeRecv(Id, Now, CS.Hot[RS.MsgSender[Slot]].Bytes);
      return;
    }
    RS.PostedRecvQ[CS.ChannelRecvOffsets[C] + RS.RecvTail[C]++] = Id;
  }

  void completeRecv(OpId RecvId, double Now, std::uint64_t Bytes) {
    assert(CS.Hot[RecvId].Bytes == Bytes && "matched message size mismatch");
    const unsigned Rank = CS.Hot[RecvId].Rank;
    double CpuStart = std::max(Now, RS.CpuFree[Rank]);
    double CpuDone =
        CpuStart + P.RecvOverhead * noise(CpuStart) * cpuFactor(Rank, CpuStart);
    RS.CpuFree[Rank] = CpuDone;
    RS.Result.Timings[RecvId].StartTime = CpuStart;
    RS.Result.BytesReceived[Rank] += Bytes;
    pushEvent(CpuDone, EventKind::OpDone, RecvId);
  }

  void finishOp(OpId Id, double Now) {
    OpTiming &T = RS.Result.Timings[Id];
    assert(!T.Done && "op finished twice");
    T.Done = true;
    T.DoneTime = Now;
    RS.Result.Makespan = std::max(RS.Result.Makespan, Now);
    ++DoneCount;
    for (OpId Dep : CS.succsOf(Id)) {
      assert(RS.PendingDeps[Dep] > 0 && "dependent already released");
      if (--RS.PendingDeps[Dep] == 0)
        activateOp(Dep, Now);
    }
  }

  Engine::RunState &RS;
  const CompiledSchedule &CS;
  const Platform &P;
  Xoshiro256 Rng;
  const std::uint64_t RunSeed;
  const FaultSchedule *Faults;
  std::uint64_t NextSeq = 0;
  std::uint32_t DoneCount = 0;
};

void CompiledExecutor::run() {
  const std::uint32_t NumOps = CS.numOps();
  ExecutionResult &Result = RS.Result;

  Result.Completed = false;
  Result.Timings.assign(NumOps, OpTiming());
  Result.Makespan = 0.0;
  Result.BytesReceived.assign(CS.RankCount, 0);
  Result.BytesSent.assign(CS.RankCount, 0);
  Result.Diagnostic.clear();
  Result.FaultWindows.clear();
  Result.FaultScenario.clear();

  RS.PendingDeps.assign(CS.InDegree.begin(), CS.InDegree.end());
  RS.CpuFree.assign(CS.RankCount, 0.0);
  RS.NicTxFree.assign(P.NodeCount, 0.0);
  RS.NicRxFree.assign(P.NodeCount, 0.0);
  RS.MemTxFree.assign(P.NodeCount, 0.0);
  RS.MemRxFree.assign(P.NodeCount, 0.0);
  RS.NodeOfRank.resize(CS.RankCount);
  for (unsigned Rank = 0; Rank != CS.RankCount; ++Rank)
    RS.NodeOfRank[Rank] = P.nodeOf(Rank);
  RS.LastByteArrival.assign(NumOps, 0.0);

  RS.Heap.clear();
  // Worst-case live events: every op can hold one completion event,
  // and every send one additional in-flight message event. Reserving
  // the bound (rather than warming up to an observed size) keeps
  // replay allocation-free across *seeds* -- noise shifts how full
  // the heap actually gets from run to run.
  if (obs::metricsEnabled())
    obs::bump(RS.Heap.capacity() >= NumOps + CS.NumSends
                  ? obs::Counter::EngineArenaReuses
                  : obs::Counter::EngineArenaWarmups);
  RS.Heap.reserve(NumOps + CS.NumSends);

  RS.MsgAvail.resize(CS.NumSends);
  RS.MsgSender.resize(CS.NumSends);
  RS.PostedRecvQ.resize(CS.NumRecvs);
  RS.MsgHead.assign(CS.NumChannels, 0);
  RS.MsgTail.assign(CS.NumChannels, 0);
  RS.RecvHead.assign(CS.NumChannels, 0);
  RS.RecvTail.assign(CS.NumChannels, 0);
  RS.ChanLastArrival.assign(CS.NumChannels, 0.0);
  RS.ChanLastAvail.assign(CS.NumChannels, 0.0);

  // Activate the roots of the DAG at t = 0, in op-id order. Roots are
  // the *statically* dependency-free ops: a zero-duration root
  // finishing inline during this loop already releases (and
  // activates) its dependents, whose live counters then read zero.
  for (OpId Id : CS.Roots)
    activateOp(Id, 0.0);

  std::uint64_t EventsPopped = 0;
  while (!RS.Heap.empty()) {
    const ReplayEvent E = popEvent();
    ++EventsPopped;
    const OpId Id = E.id();
    switch (E.kind()) {
    case EventKind::TxAcquire:
      onTxAcquire(Id, E.Time);
      break;
    case EventKind::MsgArrival:
      onMsgArrival(Id, E.Time);
      break;
    case EventKind::OpDone:
      finishOp(Id, E.Time);
      break;
    case EventKind::MsgAvailable: {
      const std::uint32_t C = CS.Hot[Id].Channel;
      if (RS.RecvHead[C] != RS.RecvTail[C]) {
        OpId RecvId =
            RS.PostedRecvQ[CS.ChannelRecvOffsets[C] + RS.RecvHead[C]++];
        completeRecv(RecvId, E.Time, CS.Hot[Id].Bytes);
      } else {
        const std::uint32_t Slot = CS.ChannelSendOffsets[C] + RS.MsgTail[C]++;
        RS.MsgAvail[Slot] = E.Time;
        RS.MsgSender[Slot] = Id;
      }
      break;
    }
    }
  }

  // Counters are credited once per replay (never per event) so the
  // hot loop stays free of atomics; a local tally costs one register
  // increment per event.
  obs::bump(obs::Counter::EngineReplays);
  obs::bump(obs::Counter::EngineEvents, EventsPopped);

  Result.Completed = DoneCount == NumOps;
  if (Faults) {
    Result.FaultWindows = Faults->windows(Result.Makespan);
    Result.FaultScenario = Faults->name();
  }
  if (!Result.Completed) {
    // List every never-completed operation (capped), not just the
    // first: the shape of the stuck set is usually what identifies
    // the bug (one stuck rank vs. a cross-rank wait cycle).
    constexpr unsigned MaxListed = 8;
    unsigned Stuck = 0;
    std::string Detail;
    for (OpId Id = 0; Id != NumOps; ++Id) {
      if (Result.Timings[Id].Done)
        continue;
      if (Stuck++ < MaxListed)
        Detail += strFormat(
            "\n  op %u on rank %u (%s peer=%u tag=%d bytes=%llu)", Id,
            CS.OpRank[Id],
            CS.Kind[Id] == OpKind::Send
                ? "send"
                : (CS.Kind[Id] == OpKind::Recv ? "recv" : "compute"),
            CS.OpPeer[Id], CS.OpTag[Id],
            static_cast<unsigned long long>(CS.OpBytes[Id]));
    }
    if (Stuck > MaxListed)
      Detail += strFormat("\n  ... and %u more", Stuck - MaxListed);
    Result.Diagnostic =
        strFormat("deadlock: %u of %u ops never completed:%s", Stuck,
                  static_cast<unsigned>(NumOps), Detail.c_str());
  }
}

} // namespace

Engine::Engine() : State(std::make_unique<RunState>()) {}
Engine::~Engine() = default;

const ExecutionResult &Engine::run(const CompiledSchedule &CS,
                                   const Platform &P, std::uint64_t Seed,
                                   const FaultSchedule *Faults) {
  assert(CS.RankCount <= P.maxProcs() &&
         "schedule does not fit on the platform");

  Faults = resolveFaultSchedule(Faults);

  // The pre-flight analyses the same CSR arrays the replay below
  // executes (see the CompiledSchedule verifySchedule overload).
  const bool Preflight = preflightVerificationEnabled();
  VerifyReport Report;
  if (Preflight)
    Report = verifySchedule(CS);

  CompiledExecutor Exec(*State, CS, P, Seed, Faults);
  Exec.run();

  if (Preflight)
    crossCheckPreflight(State->Result, Report);
  return State->Result;
}

ExecutionResult mpicsel::runSchedule(const Schedule &S, const Platform &P,
                                     std::uint64_t Seed,
                                     const FaultSchedule *Faults) {
  // One-shot compile + replay on a fresh engine. No library code calls
  // it any more: the model runners compile once per measurement or
  // intern (model/Runner.h) and replay on a warm per-thread Engine.
  // Its callers are the tests (the runners' per-repetition oracle
  // among them), examples/trace_broadcast and
  // bench/micro_selection_overhead.
  Engine E;
  return E.run(compileSchedule(S), P, Seed, Faults);
}
