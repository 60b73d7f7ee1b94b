//===- mpi/CompiledSchedule.h - Flat schedule IR ----------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Schedule lowered into flat, cache-friendly arrays for execution.
/// The builder-facing IR (mpi/Schedule.h) optimises for readability --
/// one Op struct per operation, each with its own Deps vector -- which
/// scatters the engine's hot loop across the heap. Compilation packs
/// the same DAG into struct-of-arrays op fields plus CSR
/// (compressed-sparse-row) dependency, successor and per-rank index
/// arrays, and pre-resolves the (source, destination, tag) match
/// channels into dense indices with exact per-channel queue capacities.
/// The engine (sim/Engine.h) then replays a compiled schedule without
/// touching the heap at all, and the static verifier reads the same
/// CSR arrays, so the verified artifact is the executed artifact.
///
/// Compilation only *re-lays-out* the schedule: op order, dependency
/// order and successor order are preserved exactly, which is what keeps
/// compiled execution bit-identical to the legacy interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MPI_COMPILEDSCHEDULE_H
#define MPICSEL_MPI_COMPILEDSCHEDULE_H

#include "mpi/Schedule.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mpicsel {

/// The per-op fields the replay loop needs to activate one op, packed
/// into a single 32-byte row: processing an op costs one cache fetch
/// instead of one read per SoA column. Redundant with the columns in
/// CompiledSchedule (the verifier and tools read those).
struct CompiledOp {
  std::uint64_t Bytes = 0;
  double Duration = 0.0;
  std::uint32_t Rank = 0;
  std::uint32_t Peer = 0;
  /// Dense match-channel index; CompiledSchedule::NoChannel for
  /// Compute ops.
  std::uint32_t Channel = 0;
  OpKind Kind = OpKind::Compute;
  std::uint8_t Pad[3] = {0, 0, 0};
};
static_assert(sizeof(CompiledOp) == 32, "hot row must stay one half-line");

/// A Schedule in execution-ready form. Immutable after compilation;
/// safe to share across threads (and shared process-wide by the
/// interning cache, see mpi/ScheduleIntern.h).
struct CompiledSchedule {
  /// Channel index of a Compute op (no message channel).
  static constexpr std::uint32_t NoChannel = ~0u;

  unsigned RankCount = 0;

  /// \name Struct-of-arrays op fields, indexed by OpId.
  /// @{
  std::vector<OpKind> Kind;
  std::vector<std::uint32_t> OpRank;
  std::vector<std::uint32_t> OpPeer;
  std::vector<std::uint64_t> OpBytes;
  std::vector<std::int32_t> OpTag;
  std::vector<double> OpDuration;
  /// @}

  /// \name CSR dependency edges (op -> the same-rank ops it waits on).
  /// DepList[DepOffsets[Id] .. DepOffsets[Id+1]) preserves the order of
  /// Op::Deps exactly.
  /// @{
  std::vector<std::uint32_t> DepOffsets;
  std::vector<OpId> DepList;
  /// @}

  /// \name CSR successor edges (op -> the ops waiting on it).
  /// Successor order equals the legacy engine's release order: for
  /// each op in ascending id, its deps in list order -- finishing an
  /// op must release its dependents in exactly this sequence for the
  /// event tiebreak (and hence every timestamp) to match.
  /// @{
  std::vector<std::uint32_t> SuccOffsets;
  std::vector<OpId> SuccList;
  /// @}

  /// Static dependency count per op (the initial value of the
  /// engine's decrement-indegree counters).
  std::vector<std::uint32_t> InDegree;

  /// Ops with no static dependencies, in ascending id order: the DAG
  /// roots the engine activates at t = 0.
  std::vector<OpId> Roots;

  /// \name Per-rank op index (CSR): RankOps[RankOpOffsets[R] ..
  /// RankOpOffsets[R+1]) lists rank R's ops in ascending id order.
  /// @{
  std::vector<std::uint32_t> RankOpOffsets;
  std::vector<OpId> RankOps;
  /// @}

  /// \name Match channels.
  /// Every Send/Recv resolves to a dense channel index for its
  /// (source, destination, tag) FIFO -- the send direction, so a send
  /// and its matching receive share the index. Indices are assigned by
  /// first appearance in ascending op id order (deterministic).
  /// ChannelSendOffsets/ChannelRecvOffsets are prefix sums of the
  /// per-channel send/recv counts: exact capacities for the engine's
  /// bump-pointer message and posted-receive queues.
  /// @{
  std::vector<std::uint32_t> ChannelOf;
  std::uint32_t NumChannels = 0;
  std::vector<std::uint32_t> ChannelSendOffsets;
  std::vector<std::uint32_t> ChannelRecvOffsets;
  /// @}

  /// Total number of Send / Recv ops.
  std::uint32_t NumSends = 0;
  std::uint32_t NumRecvs = 0;

  /// Hot per-op rows (same information as the SoA columns plus the
  /// channel index), indexed by OpId -- what the engine's replay loop
  /// actually reads.
  std::vector<CompiledOp> Hot;

  /// The schedule this was compiled from, as compileSchedule returns
  /// it, for diagnostics, the legacy oracle in the tests and
  /// re-compilation checks. Nothing in replay or verification reads
  /// it, and interned entries (mpi/ScheduleIntern.h) leave it empty.
  Schedule Source;

  std::uint32_t numOps() const {
    return static_cast<std::uint32_t>(Kind.size());
  }

  /// Dependencies of \p Id, in Op::Deps order.
  std::span<const OpId> depsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {DepList.data() + DepOffsets[Id],
            DepOffsets[Id + 1] - DepOffsets[Id]};
  }

  /// Ops depending on \p Id, in release order.
  std::span<const OpId> succsOf(OpId Id) const {
    assert(Id < numOps() && "op id out of range");
    return {SuccList.data() + SuccOffsets[Id],
            SuccOffsets[Id + 1] - SuccOffsets[Id]};
  }

  /// Heap bytes held by every array, the source schedule included.
  std::size_t heapBytes() const;

  /// Ops of \p Rank in ascending id order.
  std::span<const OpId> opsOfRank(unsigned Rank) const {
    assert(Rank < RankCount && "rank out of range");
    return {RankOps.data() + RankOpOffsets[Rank],
            RankOpOffsets[Rank + 1] - RankOpOffsets[Rank]};
  }
};

/// Lowers \p S into flat arrays. Asserts the same structural
/// invariants ScheduleBuilder establishes (deps are same-rank
/// back-references); run validateSchedule first for untrusted input.
CompiledSchedule compileSchedule(Schedule S);

} // namespace mpicsel

#endif // MPICSEL_MPI_COMPILEDSCHEDULE_H
