//===- coll/Scatter.h - Scatter algorithm schedules -------------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MPI_Scatter algorithms, mirroring Open MPI's `coll/base`
/// implementations. The paper validates its methodology on MPI_Bcast
/// and names the extension to other collectives as the next step
/// (Sect. 6); this module (with model/CollectiveModels.h) is that
/// extension: the same implementation-derived modelling and the same
/// calibration recipe applied to a second collective.
///
///  * linear scatter (`scatter_intra_basic_linear`): the root sends
///    rank r's block directly to r, P-1 non-blocking sends.
///  * binomial scatter (`scatter_intra_binomial`): the root walks a
///    binomial tree; each parent forwards to a child the concatenated
///    blocks of the child's whole subtree, so transfer sizes halve
///    level by level.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_SCATTER_H
#define MPICSEL_COLL_SCATTER_H

#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpicsel {

/// The scatter algorithms of Open MPI's base component.
enum class ScatterAlgorithm : unsigned {
  Linear = 0,
  Binomial,
};

inline constexpr unsigned NumScatterAlgorithms = 2;

inline constexpr std::array<ScatterAlgorithm, NumScatterAlgorithms>
    AllScatterAlgorithms = {ScatterAlgorithm::Linear,
                            ScatterAlgorithm::Binomial};

/// Short stable name ("linear", "binomial").
const char *scatterAlgorithmName(ScatterAlgorithm Alg);

/// Inverse of scatterAlgorithmName.
std::optional<ScatterAlgorithm>
parseScatterAlgorithm(const std::string &Name);

/// Parameters of one scatter invocation.
struct ScatterConfig {
  ScatterAlgorithm Algorithm = ScatterAlgorithm::Binomial;
  /// Bytes delivered to each rank (the per-rank block).
  std::uint64_t BlockBytes = 1;
  unsigned Root = 0;
  int Tag = 0;
};

/// Appends one scatter over all B.rankCount() ranks; every non-root
/// rank ends up having received exactly BlockBytes (possibly relayed
/// through intermediate subtree transfers in the binomial variant).
/// Returns one exit op per rank.
std::vector<OpId> appendScatter(ScheduleBuilder &B,
                                const ScatterConfig &Config,
                                std::span<const OpId> Entry = {});

/// The scatter's contract, phrased so relaying is allowed: each
/// non-root rank *keeps* (receives minus forwards) exactly BlockBytes
/// and the root parts with (P-1) * BlockBytes -- true of both the
/// linear algorithm and the binomial one, where interior ranks relay
/// whole subtree bundles. All data originates at the root.
ScheduleContract scatterContract(const ScatterConfig &Config,
                                 unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_SCATTER_H
