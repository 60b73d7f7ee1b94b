//===- sim/StreamEngine.cpp - O(active) streaming replay -------------------===//

#include "sim/StreamEngine.h"

#include "obs/Metrics.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>

using namespace mpicsel;

namespace {

/// Same numbering as sim/Engine.cpp's EventKind; packed into the low
/// two bits of StreamEvent::Key so (Time, Key) reproduces the legacy
/// (Time, Seq) tiebreak.
enum class EventKind : std::uint8_t {
  TxAcquire,
  MsgArrival,
  MsgAvailable,
  OpDone,
};

/// What a block-local op index means for a given role.
struct OpRef {
  enum Type : std::uint8_t { Send, Recv, Join } Kind = Join;
  std::uint64_t Seg = 0;
  std::uint64_t Child = 0; // send only: which child
};

OpRef decodeLocal(const BcastRankPlan &RP, std::uint64_t NumSegments,
                  std::uint64_t Local) {
  const std::uint64_t C = RP.NumChildren;
  OpRef Ref;
  switch (RP.Role) {
  case StreamRole::Trivial:
    assert(Local == 0);
    return Ref; // the lone join
  case StreamRole::Root: {
    Ref.Seg = Local / (C + 1);
    const std::uint64_t Rem = Local % (C + 1);
    if (Rem < C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Rem;
    }
    return Ref;
  }
  case StreamRole::Interior: {
    Ref.Seg = Local / (C + 2);
    const std::uint64_t Rem = Local % (C + 2);
    if (Rem == 0)
      Ref.Kind = OpRef::Recv;
    else if (Rem <= C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Rem - 1;
    }
    return Ref;
  }
  case StreamRole::Leaf:
    if (Local < NumSegments) {
      Ref.Kind = OpRef::Recv;
      Ref.Seg = Local;
    }
    return Ref;
  case StreamRole::LinearRoot:
    if (Local < C) {
      Ref.Kind = OpRef::Send;
      Ref.Child = Local;
    }
    return Ref;
  case StreamRole::LinearLeaf:
    assert(Local == 0);
    Ref.Kind = OpRef::Recv;
    return Ref;
  }
  return Ref;
}

/// Block-local index of receive number \p Seg for a receiving role.
std::uint64_t recvLocalOf(const BcastRankPlan &RP, std::uint64_t Seg) {
  switch (RP.Role) {
  case StreamRole::Leaf:
    return Seg;
  case StreamRole::Interior:
    return Seg * (RP.NumChildren + 2);
  case StreamRole::LinearLeaf:
    assert(Seg == 0);
    return 0;
  default:
    assert(false && "role does not receive");
    return 0;
  }
}

/// Mirrors resolveFaultSchedule in Engine.cpp: explicit argument wins,
/// else the process-wide schedule; empty degenerates to null so the
/// fault-free fast path stays bit-identical.
const FaultSchedule *resolveFaults(const FaultSchedule *Faults) {
  if (!Faults)
    Faults = globalFaultSchedule();
  if (Faults && Faults->empty())
    Faults = nullptr;
  return Faults;
}

} // namespace

namespace mpicsel {

/// The per-run executor, borrowing all arenas from a StreamEngine.
/// Handler bodies transcribe sim/Engine.cpp's CompiledExecutor line
/// for line (same noise-draw sites, same event creation order, same
/// clamp order); only op lookup differs -- closed-form arithmetic on
/// (rank, local) instead of the compiled op table.
class StreamExecutor {
public:
  StreamExecutor(StreamEngine &Eng, const BcastStreamPlan &StreamPlan,
                 const Platform &Plat, std::uint64_t Seed,
                 const FaultSchedule *FaultSched, const StreamOptions &Options)
      : E(Eng), Plan(StreamPlan), P(Plat), Rng(Seed), RunSeed(Seed),
        Faults(FaultSched), Opts(Options) {}

  void run();

private:
  double noise(double Now) {
    double Sigma = P.NoiseSigma;
    if (Faults)
      Sigma *= Faults->sigmaMultiplier(Now);
    return Rng.nextLogNormalFactor(Sigma);
  }

  double cpuFactor(unsigned Rank, double Now) const {
    return Faults ? Faults->cpuMultiplier(Rank, Now) : 1.0;
  }

  void pushEvent(double Time, EventKind Kind, unsigned Rank,
                 std::uint64_t Local, double Payload = 0.0) {
    StreamEvent Ev;
    Ev.Time = Time;
    Ev.Key = (NextSeq++ << 2) | static_cast<std::uint64_t>(Kind);
    Ev.Rank = Rank;
    Ev.Local = static_cast<std::uint32_t>(Local);
    Ev.Payload = Payload;
    assert(Local <= 0xffffffffu && "rank block outgrew the event encoding");
    E.Events.push(Ev);
  }

  /// Global op id of (rank, local); only meaningful when OpBases was
  /// filled (faults or timing recording).
  std::uint64_t globalId(unsigned Rank, std::uint64_t Local) const {
    return E.OpBases[Rank] + Local;
  }

  void recordReady(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings)
      E.Result.Timings[globalId(Rank, Local)].ReadyTime = Now;
  }
  void recordStart(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings)
      E.Result.Timings[globalId(Rank, Local)].StartTime = Now;
  }

  void activateSend(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    StreamEngine::RankState &St = E.Ranks[Rank];
    double CpuStart = std::max(Now, St.CpuFree);
    double CpuDone = CpuStart + P.SendOverhead * noise(CpuStart) *
                                    cpuFactor(Rank, CpuStart);
    St.CpuFree = CpuDone;
    recordStart(Rank, Local, CpuStart);
    pushEvent(CpuDone, EventKind::TxAcquire, Rank, Local);
  }

  void onTxAcquire(unsigned Rank, std::uint64_t Local, double Now) {
    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const OpRef Ref = decodeLocal(RP, Plan.NumSegments, Local);
    assert(Ref.Kind == OpRef::Send);
    const unsigned Peer =
        Plan.childOf(Rank, static_cast<unsigned>(Ref.Child));
    const std::uint64_t Bytes = Plan.segmentBytes(Ref.Seg);
    const unsigned SrcNode = P.nodeOf(Rank);
    const bool Intra = SrcNode == P.nodeOf(Peer);
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &TxFree = Intra ? E.MemTxFree[SrcNode] : E.NicTxFree[SrcNode];
    double TxStart = std::max(Now, TxFree);
    double TxOccupancy = Link.txOccupancy(Bytes) * noise(TxStart);
    if (Faults && !Intra)
      TxOccupancy *= Faults->txGapMultiplier(SrcNode, TxStart);
    double TxDone = TxStart + TxOccupancy;
    TxFree = TxDone;

    pushEvent(TxDone, EventKind::OpDone, Rank, Local);
    E.Result.BytesSent[Rank] += Bytes;

    double Latency = Link.Latency * noise(TxStart);
    if (Faults && !Intra) {
      unsigned DstNode = P.nodeOf(Peer);
      Latency *= Faults->latencyMultiplier(SrcNode, DstNode, TxStart);
      Latency += Faults->messageDelay(
          RunSeed, static_cast<OpId>(globalId(Rank, Local)), TxStart);
      double &Prev = E.ChanLastArrival[Peer];
      double Arrival = std::max(TxStart + Latency, Prev);
      Prev = Arrival;
      pushEvent(Arrival, EventKind::MsgArrival, Rank, Local,
                Arrival + (TxDone - TxStart));
      return;
    }
    // Latency noise alone can let a segment overtake the previous one
    // on its channel; clamp exactly as the compiled engine does
    // (sim/Engine.cpp), keeping the pre-clamp arithmetic when no
    // inversion happens.
    const double Arrival = TxStart + Latency;
    double &Prev = E.ChanLastArrival[Peer];
    if (Arrival >= Prev) {
      Prev = Arrival;
      pushEvent(Arrival, EventKind::MsgArrival, Rank, Local,
                TxDone + Latency);
      return;
    }
    pushEvent(Prev, EventKind::MsgArrival, Rank, Local,
              Prev + (TxDone - TxStart));
  }

  void onMsgArrival(unsigned Rank, std::uint64_t Local, double Now,
                    double LastByteArrival) {
    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const OpRef Ref = decodeLocal(RP, Plan.NumSegments, Local);
    assert(Ref.Kind == OpRef::Send);
    const unsigned Peer =
        Plan.childOf(Rank, static_cast<unsigned>(Ref.Child));
    const std::uint64_t Bytes = Plan.segmentBytes(Ref.Seg);
    const unsigned DstNode = P.nodeOf(Peer);
    const bool Intra = P.nodeOf(Rank) == DstNode;
    const LinkParams &Link = Intra ? P.IntraNode : P.InterNode;

    double &RxFree = Intra ? E.MemRxFree[DstNode] : E.NicRxFree[DstNode];
    double RxStart = std::max(Now, RxFree);
    double RxOccupancy = Link.rxOccupancy(Bytes) * noise(RxStart);
    if (Faults && !Intra)
      RxOccupancy *= Faults->rxGapMultiplier(DstNode, RxStart);
    double RxDone = std::max(RxStart + RxOccupancy, LastByteArrival);
    RxFree = RxDone;
    if (Faults) {
      double &Prev = E.ChanLastAvail[Peer];
      RxDone = std::max(RxDone, Prev);
      Prev = RxDone;
    }
    pushEvent(RxDone, EventKind::MsgAvailable, Rank, Local);
  }

  /// MsgAvailable of send (\p Rank, \p Local): FIFO-match against the
  /// destination's posted receives, or park the message.
  void onMsgAvailable(unsigned Rank, std::uint64_t Local, double Now) {
    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const OpRef Ref = decodeLocal(RP, Plan.NumSegments, Local);
    assert(Ref.Kind == OpRef::Send);
    const unsigned Dst =
        Plan.childOf(Rank, static_cast<unsigned>(Ref.Child));
    const std::uint64_t Bytes = Plan.segmentBytes(Ref.Seg);
    StreamEngine::RankState &St = E.Ranks[Dst];
    if (St.PostedExcess > 0) {
      // The oldest posted receive is match number MatchedMsgs; posts
      // happen in segment order, so its local index is closed-form.
      --St.PostedExcess;
      const std::uint64_t RecvLocal =
          recvLocalOf(Plan.rankPlan(Dst), St.MatchedMsgs);
      ++St.MatchedMsgs;
      completeRecv(Dst, RecvLocal, Now, Bytes);
      return;
    }
    enqueueArrival(St, Bytes);
  }

  void postRecv(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    StreamEngine::RankState &St = E.Ranks[Rank];
    if (St.QueueHead != StreamEngine::NoSlot) {
      // A message is already waiting; the posting receive is
      // necessarily the oldest unmatched one.
      assert(St.PostedExcess == 0);
      const std::uint64_t Bytes = dequeueArrival(St);
      assert(recvLocalOf(Plan.rankPlan(Rank), St.MatchedMsgs) == Local &&
             "receive posted out of segment order");
      ++St.MatchedMsgs;
      completeRecv(Rank, Local, Now, Bytes);
      return;
    }
    ++St.PostedExcess;
  }

  void completeRecv(unsigned Rank, std::uint64_t RecvLocal, double Now,
                    std::uint64_t Bytes) {
    StreamEngine::RankState &St = E.Ranks[Rank];
    double CpuStart = std::max(Now, St.CpuFree);
    double CpuDone = CpuStart + P.RecvOverhead * noise(CpuStart) *
                                    cpuFactor(Rank, CpuStart);
    St.CpuFree = CpuDone;
    recordStart(Rank, RecvLocal, CpuStart);
    E.Result.BytesReceived[Rank] += Bytes;
    pushEvent(CpuDone, EventKind::OpDone, Rank, RecvLocal);
  }

  void activateJoin(unsigned Rank, std::uint64_t Local, double Now) {
    recordReady(Rank, Local, Now);
    StreamEngine::RankState &St = E.Ranks[Rank];
    double CpuStart = std::max(Now, St.CpuFree);
    // Joins have zero duration; the multiply keeps the arithmetic
    // bit-identical to startCompute's CpuStart + 0.0 * factor.
    double CpuDone = CpuStart + 0.0 * cpuFactor(Rank, CpuStart);
    St.CpuFree = CpuDone;
    recordStart(Rank, Local, CpuStart);
    if (CpuDone == Now) {
      finishOp(Rank, Local, Now);
      return;
    }
    pushEvent(CpuDone, EventKind::OpDone, Rank, Local);
  }

  /// OpDone: record completion and run the role's release rules in
  /// ascending block-local order -- exactly the order decrement-
  /// indegree over the materialized successor rows would release.
  void finishOp(unsigned Rank, std::uint64_t Local, double Now) {
    if (Opts.RecordTimings) {
      OpTiming &T = E.Result.Timings[globalId(Rank, Local)];
      assert(!T.Done && "op finished twice");
      T.Done = true;
      T.DoneTime = Now;
    }
    E.Result.Makespan = std::max(E.Result.Makespan, Now);
    ++DoneCount;

    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const OpRef Ref = decodeLocal(RP, Plan.NumSegments, Local);
    const std::uint64_t S = Plan.NumSegments;
    const std::uint64_t C = RP.NumChildren;
    StreamEngine::RankState &St = E.Ranks[Rank];

    switch (Ref.Kind) {
    case OpRef::Send:
      assert(Ref.Seg == St.JoinsDone && "send outside the open group");
      if (++St.SendsDone == C) {
        // The group's join: last local index of the segment (for the
        // linear root, the block's final op).
        const std::uint64_t JoinLocal =
            RP.Role == StreamRole::Root   ? Ref.Seg * (C + 1) + C
            : RP.Role == StreamRole::Interior ? Ref.Seg * (C + 2) + C + 1
                                              : C;
        activateJoin(Rank, JoinLocal, Now);
      }
      return;

    case OpRef::Recv:
      ++St.RecvsDone;
      if (RP.Role == StreamRole::Leaf) {
        if (Ref.Seg + 2 < S)
          postRecv(Rank, Ref.Seg + 2, Now);
        if (St.RecvsDone == S)
          activateJoin(Rank, S, Now);
        return;
      }
      if (RP.Role == StreamRole::Interior) {
        // The segment's forwarding sends also need the previous
        // segment's join (their second dependency).
        if (Ref.Seg == 0 || St.JoinsDone >= Ref.Seg)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, Ref.Seg * (C + 2) + 1 + K, Now);
        return;
      }
      // LinearLeaf: the block is done.
      return;

    case OpRef::Join:
      St.JoinsDone = static_cast<std::uint32_t>(Ref.Seg) + 1;
      St.SendsDone = 0;
      if (RP.Role == StreamRole::Root) {
        if (Ref.Seg + 1 < S)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, (Ref.Seg + 1) * (C + 1) + K, Now);
        return;
      }
      if (RP.Role == StreamRole::Interior) {
        if (Ref.Seg + 1 < S && St.RecvsDone >= Ref.Seg + 2)
          for (std::uint64_t K = 0; K != C; ++K)
            activateSend(Rank, (Ref.Seg + 1) * (C + 2) + 1 + K, Now);
        if (Ref.Seg + 2 < S)
          postRecv(Rank, (Ref.Seg + 2) * (C + 2), Now);
        return;
      }
      // Root-of-one-segment leaves nothing; Leaf/Trivial/LinearRoot
      // joins are terminal.
      return;
    }
  }

  void enqueueArrival(StreamEngine::RankState &St, std::uint64_t Bytes) {
    std::uint32_t Slot;
    if (E.PoolFreeHead != StreamEngine::NoSlot) {
      Slot = E.PoolFreeHead;
      E.PoolFreeHead = E.Pool[Slot].Next;
    } else {
      Slot = static_cast<std::uint32_t>(E.Pool.size());
      E.Pool.emplace_back();
    }
    E.Pool[Slot].Bytes = Bytes;
    E.Pool[Slot].Next = StreamEngine::NoSlot;
    if (St.QueueTail == StreamEngine::NoSlot)
      St.QueueHead = Slot;
    else
      E.Pool[St.QueueTail].Next = Slot;
    St.QueueTail = Slot;
  }

  std::uint64_t dequeueArrival(StreamEngine::RankState &St) {
    const std::uint32_t Slot = St.QueueHead;
    assert(Slot != StreamEngine::NoSlot);
    const std::uint64_t Bytes = E.Pool[Slot].Bytes;
    St.QueueHead = E.Pool[Slot].Next;
    if (St.QueueHead == StreamEngine::NoSlot)
      St.QueueTail = StreamEngine::NoSlot;
    E.Pool[Slot].Next = E.PoolFreeHead;
    E.PoolFreeHead = Slot;
    return Bytes;
  }

  StreamEngine &E;
  const BcastStreamPlan &Plan;
  const Platform &P;
  Xoshiro256 Rng;
  const std::uint64_t RunSeed;
  const FaultSchedule *Faults;
  const StreamOptions Opts;
  std::uint64_t NextSeq = 0;
  std::uint64_t DoneCount = 0;
  std::uint64_t EventsPopped = 0;
};

} // namespace mpicsel

void StreamExecutor::run() {
  const unsigned RankCount = Plan.RankCount;
  const std::uint64_t TotalOps = Plan.totalOps();
  ExecutionResult &Result = E.Result;

  Result.Completed = false;
  Result.Timings.assign(Opts.RecordTimings ? TotalOps : 0, OpTiming());
  Result.Makespan = 0.0;
  Result.BytesReceived.assign(RankCount, 0);
  Result.BytesSent.assign(RankCount, 0);
  Result.Diagnostic.clear();
  Result.FaultWindows.clear();
  Result.FaultScenario.clear();

  E.Ranks.assign(RankCount, StreamEngine::RankState());
  E.NicTxFree.assign(P.NodeCount, 0.0);
  E.NicRxFree.assign(P.NodeCount, 0.0);
  E.MemTxFree.assign(P.NodeCount, 0.0);
  E.MemRxFree.assign(P.NodeCount, 0.0);
  E.Pool.clear();
  E.PoolFreeHead = StreamEngine::NoSlot;
  E.Events.reset();

  E.ChanLastArrival.assign(RankCount, 0.0);
  if (Faults)
    E.ChanLastAvail.assign(RankCount, 0.0);
  if (Faults || Opts.RecordTimings) {
    assert(TotalOps <= 0xffffffffu &&
           "op ids overflow OpId; run without faults/timings at this scale");
    Plan.rankOpBases(E.OpBases);
  }

  // Activate the statically dependency-free ops at t = 0 in global
  // op-id order: block by block (rank order for trees, root block
  // first for linear), ascending local index within a block.
  for (unsigned Block = 0; Block != RankCount; ++Block) {
    const unsigned Rank = Plan.blockRank(Block);
    const BcastRankPlan RP = Plan.rankPlan(Rank);
    const std::uint64_t C = RP.NumChildren;
    switch (RP.Role) {
    case StreamRole::Trivial:
      activateJoin(Rank, 0, 0.0);
      break;
    case StreamRole::Root:
    case StreamRole::LinearRoot:
      for (std::uint64_t K = 0; K != C; ++K)
        activateSend(Rank, K, 0.0);
      break;
    case StreamRole::Leaf:
    case StreamRole::Interior:
      // Double-buffered receives: segments 0 and 1 post up front.
      postRecv(Rank, 0, 0.0);
      if (Plan.NumSegments >= 2)
        postRecv(Rank, recvLocalOf(RP, 1), 0.0);
      break;
    case StreamRole::LinearLeaf:
      postRecv(Rank, 0, 0.0);
      break;
    }
  }

  while (!E.Events.empty()) {
    const StreamEvent Ev = E.Events.pop();
    ++EventsPopped;
    switch (static_cast<EventKind>(Ev.Key & 3)) {
    case EventKind::TxAcquire:
      onTxAcquire(Ev.Rank, Ev.Local, Ev.Time);
      break;
    case EventKind::MsgArrival:
      onMsgArrival(Ev.Rank, Ev.Local, Ev.Time, Ev.Payload);
      break;
    case EventKind::MsgAvailable:
      onMsgAvailable(Ev.Rank, Ev.Local, Ev.Time);
      break;
    case EventKind::OpDone:
      finishOp(Ev.Rank, Ev.Local, Ev.Time);
      break;
    }
  }

  // Credited once per replay, never per event (same contract as the
  // compiled engine's counters).
  obs::bump(obs::Counter::StreamReplays);
  obs::bump(obs::Counter::StreamEvents, EventsPopped);
  E.LastEvents = EventsPopped;

  Result.Completed = DoneCount == TotalOps;
  if (Faults) {
    Result.FaultWindows = Faults->windows(Result.Makespan);
    Result.FaultScenario = Faults->name();
  }
  if (!Result.Completed)
    // Streamed plans are deadlock-free by construction, so a shortfall
    // is an engine bug, not a schedule bug; the differential suite is
    // the place to localize it.
    Result.Diagnostic = strFormat(
        "streaming replay stalled: %llu of %llu ops never completed",
        static_cast<unsigned long long>(TotalOps - DoneCount),
        static_cast<unsigned long long>(TotalOps));
}

const ExecutionResult &StreamEngine::run(const BcastStreamPlan &Plan,
                                         const Platform &P,
                                         std::uint64_t Seed,
                                         const FaultSchedule *Faults,
                                         const StreamOptions &Opts) {
  assert(Plan.RankCount <= P.maxProcs() &&
         "plan does not fit on the platform");
  StreamExecutor Exec(*this, Plan, P, Seed, resolveFaults(Faults), Opts);
  Exec.run();
  return Result;
}

std::size_t StreamEngine::footprintBytes() const {
  std::size_t Bytes = Events.footprintBytes();
  Bytes += Ranks.capacity() * sizeof(RankState);
  Bytes += (NicTxFree.capacity() + NicRxFree.capacity() +
            MemTxFree.capacity() + MemRxFree.capacity()) *
           sizeof(double);
  Bytes += Pool.capacity() * sizeof(ArrivalSlot);
  Bytes += (ChanLastArrival.capacity() + ChanLastAvail.capacity()) *
           sizeof(double);
  Bytes += OpBases.capacity() * sizeof(std::uint64_t);
  Bytes += Result.Timings.capacity() * sizeof(OpTiming);
  Bytes += (Result.BytesReceived.capacity() + Result.BytesSent.capacity()) *
           sizeof(std::uint64_t);
  return Bytes;
}
