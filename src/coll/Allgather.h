//===- coll/Allgather.h - Allgather algorithm schedules ---------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MPI_Allgather algorithms, mirroring Open MPI's `coll/base`
/// implementations. The journal version of the source paper
/// (arXiv:2004.11062) extends the implementation-derived modelling to
/// allgather; this module (with model/CollectiveModels.h) is that
/// extension for this codebase.
///
///  * ring (`allgather_intra_ring`): P-1 rounds; each round every
///    rank forwards the block it received in the previous round to
///    its right neighbour while receiving a new one from the left.
///  * recursive doubling (`allgather_intra_recursivedoubling`):
///    log2(P) rounds exchanging doubling bundles with the rank at
///    XOR-distance 2^k. Power-of-two communicators only, exactly as
///    in Open MPI; other sizes fall back to the ring.
///  * neighbor exchange (`allgather_intra_neighborexchange`): a first
///    single-block exchange with one neighbour, then P/2 - 1 rounds
///    of two-block exchanges alternating between the left and right
///    neighbour. Even communicators only (Open MPI's restriction);
///    odd sizes fall back to the ring.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_ALLGATHER_H
#define MPICSEL_COLL_ALLGATHER_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpicsel {

/// The allgather algorithms implemented here.
enum class AllgatherAlgorithm : unsigned {
  Ring = 0,
  RecursiveDoubling,
  NeighborExchange,
};

inline constexpr unsigned NumAllgatherAlgorithms = 3;

inline constexpr std::array<AllgatherAlgorithm, NumAllgatherAlgorithms>
    AllAllgatherAlgorithms = {AllgatherAlgorithm::Ring,
                              AllgatherAlgorithm::RecursiveDoubling,
                              AllgatherAlgorithm::NeighborExchange};

/// Short stable name ("ring", "recursive_doubling",
/// "neighbor_exchange"); the accepted spellings are listed in
/// coll/Collective.h.
const char *allgatherAlgorithmName(AllgatherAlgorithm Alg);

/// Inverse of allgatherAlgorithmName. Exact match only: trailing
/// garbage is rejected.
std::optional<AllgatherAlgorithm>
parseAllgatherAlgorithm(const std::string &Name);

/// Parameters of one allgather invocation.
struct AllgatherConfig {
  AllgatherAlgorithm Algorithm = AllgatherAlgorithm::Ring;
  /// Bytes contributed by each rank (every rank ends up holding all
  /// P blocks).
  std::uint64_t BlockBytes = 1;
  int Tag = 0;
};

/// True when \p Algorithm actually runs on a \p RankCount-rank
/// communicator; recursive doubling and neighbor exchange fall back
/// to the ring otherwise (non-power-of-two / odd sizes), exactly as
/// Open MPI does.
bool allgatherAlgorithmApplies(AllgatherAlgorithm Algorithm,
                               unsigned RankCount);

/// Appends one allgather over all B.rankCount() ranks; every rank
/// ends up having received the other P-1 blocks. Returns one exit op
/// per rank.
std::vector<OpId> appendAllgather(ScheduleBuilder &B,
                                  const AllgatherConfig &Config,
                                  std::span<const OpId> Entry = {});

/// The allgather's contract: every rank both sends and receives
/// exactly (P-1) * BlockBytes (net zero -- each rank keeps a copy of
/// everything), with the per-round message counts of the algorithm
/// that actually runs (fallbacks included).
ScheduleContract allgatherContract(const AllgatherConfig &Config,
                                   unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_ALLGATHER_H
