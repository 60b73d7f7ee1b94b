//===- coll/Allreduce.h - Allreduce algorithm schedules ---------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MPI_Allreduce algorithms, mirroring Open MPI's `coll/base`
/// implementations. Allreduce is the collective the journal version
/// of the source paper (arXiv:2004.11062) models beyond broadcast;
/// this module (with model/CollectiveModels.h) carries the recipe
/// over.
///
///  * recursive doubling (`allreduce_intra_recursivedoubling`):
///    log2(P) full-vector exchange+combine rounds between ranks at
///    XOR-distance 2^k. Non-power-of-two sizes run Open MPI's
///    pre/post phase: the first P - 2^H even ranks fold into their
///    odd neighbour before the rounds and receive the result after.
///  * ring (`allreduce_intra_ring`): a P-1 round reduce-scatter of
///    ~m/P blocks (remainder spread over the first m mod P blocks)
///    followed by a P-1 round ring allgather of the reduced blocks.
///  * reduce + bcast (`allreduce_intra_basic`, composed): a binomial
///    segmented reduction to rank 0 chained into a binomial segmented
///    broadcast from rank 0 -- the textbook composition, kept because
///    its per-rank data movement is exactly derivable from the shared
///    binomial tree.
///
/// Combine arithmetic appears as Compute ops (bytes *
/// ComputeSecondsPerByte per operand pair), as in coll/Reduce.h.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_ALLREDUCE_H
#define MPICSEL_COLL_ALLREDUCE_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpicsel {

/// The allreduce algorithms implemented here.
enum class AllreduceAlgorithm : unsigned {
  RecursiveDoubling = 0,
  Ring,
  ReduceBcast,
};

inline constexpr unsigned NumAllreduceAlgorithms = 3;

inline constexpr std::array<AllreduceAlgorithm, NumAllreduceAlgorithms>
    AllAllreduceAlgorithms = {AllreduceAlgorithm::RecursiveDoubling,
                              AllreduceAlgorithm::Ring,
                              AllreduceAlgorithm::ReduceBcast};

/// Short stable name ("recursive_doubling", "ring", "reduce_bcast");
/// the accepted spellings are listed in coll/Collective.h.
const char *allreduceAlgorithmName(AllreduceAlgorithm Alg);

/// Inverse of allreduceAlgorithmName. Exact match only: trailing
/// garbage is rejected.
std::optional<AllreduceAlgorithm>
parseAllreduceAlgorithm(const std::string &Name);

/// Parameters of one allreduce invocation.
struct AllreduceConfig {
  AllreduceAlgorithm Algorithm = AllreduceAlgorithm::RecursiveDoubling;
  /// Vector length in bytes (every rank contributes and receives this
  /// much).
  std::uint64_t MessageBytes = 1;
  /// Segment size of the reduce+bcast composition (0 = unsegmented);
  /// recursive doubling and ring are never segmented.
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Cost of combining one byte of one operand pair (seconds/byte);
  /// the harness fills it from Platform::ReduceComputePerByte.
  double ComputeSecondsPerByte = 0.0;
  /// Base message tag; the reduce+bcast composition also uses Tag+4
  /// for its broadcast phase.
  int Tag = 0;
};

/// Bytes of ring block \p Index: MessageBytes / P plus one spread
/// byte while Index < MessageBytes % P. Blocks may be empty when the
/// vector is shorter than the communicator.
std::uint64_t allreduceRingBlockBytes(std::uint64_t MessageBytes,
                                      unsigned RankCount, unsigned Index);

/// Appends one allreduce over all B.rankCount() ranks; every rank
/// ends up holding the full combined vector. Returns one exit op per
/// rank.
std::vector<OpId> appendAllreduce(ScheduleBuilder &B,
                                  const AllreduceConfig &Config,
                                  std::span<const OpId> Entry = {});

/// The allreduce's contract: exact per-rank sent/received byte and
/// message totals of the algorithm (including the non-power-of-two
/// pre/post phase of recursive doubling and the uneven ring blocks).
/// Recursive doubling and reduce+bcast move net-zero payload on every
/// rank; the ring's net is the (computable) block-size imbalance.
ScheduleContract allreduceContract(const AllreduceConfig &Config,
                                   unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_ALLREDUCE_H
