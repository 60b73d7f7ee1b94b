//===- model/CostModels.h - Implementation-derived models -------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's analytical performance models of the six Open MPI
/// broadcast algorithms, derived from the implementation (Sect. 3).
/// Every model is *linear in the Hockney parameters*: it reports
/// coefficients (A, B) such that
///
///   T_alg(P, m, n_s) = A * alpha + B * beta.
///
/// This exposes exactly the structure the Sect. 4.2 estimation needs:
/// each calibration experiment contributes one linear equation in
/// (alpha, beta), and the runtime selection is two multiply-adds per
/// algorithm.
///
/// With H = floor(log2 P), ceilH = ceil(log2 P), segment size
/// m_s = m / n_s, and gamma from model/Gamma.h:
///
///   linear        A = gamma(P)                         B = A * m
///                 (non-segmented; one non-blocking linear broadcast)
///   chain         A = n_s + P - 2                      B = A * m_s
///                 (pipeline: P-1 hops, n_s segments in flight)
///   k_chain       A = n_s*gamma(K'+1) + ceil((P-1)/K') - 1
///                                                      B = A * m_s
///                 (K' = min(K, P-1) chains; the root is a linear
///                 broadcast to the K' chain heads per segment)
///   binary        A = (n_s + Hb - 1) * gamma(3)        B = A * m_s
///                 (Hb = height of the heap-shaped binary tree; every
///                 stage is a linear broadcast to two children)
///   split_binary  A = (ceil(n_s/2) + Hio - 1)*gamma(3) + 1
///                 B = (ceil(n_s/2) + Hio - 1)*gamma(3)*m_s + m/2
///                 (halves pipelined down the two subtrees of the
///                 in-order tree of height Hio, then one pairwise
///                 exchange of m/2)
///   binomial      A = n_s*gamma(ceilH+1)
///                     + sum_{i=1}^{H-1} gamma(ceilH-i+1) - 1
///                 B = A * m_s                     (paper Eq. 6)
///
/// Tree heights are taken from the actual topo/ builders rather than
/// re-derived closed forms -- the models describe the code, and the
/// code is right there.
///
/// The same construction carries over to the other collectives the
/// paper's Sect. 6 names (m_b = per-rank block, b for allgather):
///
///   scatter   linear      A = gamma(P)                B = A * m_b
///                         (the linear broadcast's serialisation)
///             binomial    A = tree height             B = bytes of the
///                         subtree bundles along the largest-child path
///   reduce    linear      A = P - 1                   B = A * m
///                         (Eq. 8's incast; combines ride on beta)
///             chain,      the chain / binomial broadcast models: the
///             binomial    reduction is the broadcast's mirror image
///   allgather ring        A = P - 1                   B = (P-1) * b
///             rec. doubl. A = ceil(log2 P)            B = (P-1) * b
///             neighbor    A = P / 2                   B = (P-1) * b
///                         (inapplicable P falls back to the ring)
///   allreduce rec. doubl. A = log2 P (+2 for the non-power-of-two
///                         fold)                       B = A * m
///             ring        A = 2(P-1)                  B = A * m / P
///             reduce_bcast  binomial reduce + binomial bcast
///
/// No combine-arithmetic parameter appears: each algorithm's
/// calibrated beta absorbs its compute per byte along the critical
/// path (the paper's Table 2 observation that the parameters capture
/// more than the network).
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_COSTMODELS_H
#define MPICSEL_MODEL_COSTMODELS_H

#include "coll/Algorithms.h"
#include "coll/Allgather.h"
#include "coll/Allreduce.h"
#include "coll/Reduce.h"
#include "coll/Scatter.h"
#include "model/Gamma.h"

#include <cstdint>

namespace mpicsel {

/// Coefficients of a model linear in the Hockney parameters:
/// T = A * alpha + B * beta.
struct CostCoefficients {
  double A = 0.0;
  double B = 0.0;

  double evaluate(double Alpha, double Beta) const {
    return A * Alpha + B * Beta;
  }

  CostCoefficients operator+(const CostCoefficients &O) const {
    return {A + O.A, B + O.B};
  }
};

/// Shape parameters shared by the model evaluations.
struct BcastModelQuery {
  unsigned NumProcs = 2;
  std::uint64_t MessageBytes = 1;
  /// Segment size of the segmented algorithms (0 = unsegmented).
  std::uint64_t SegmentBytes = 8 * 1024;
  unsigned KChainFanout = 4;
};

/// The implementation-derived cost coefficients of \p Alg under
/// \p Query, using \p Gamma for the linear-broadcast serialisation
/// factor.
CostCoefficients bcastCostCoefficients(BcastAlgorithm Alg,
                                       const BcastModelQuery &Query,
                                       const GammaFunction &Gamma);

/// Cost coefficients of the other collectives' algorithms (see the
/// file comment). \p SegmentBytes applies to the segmented reduces and
/// to the reduce+bcast allreduce only.
CostCoefficients scatterCostCoefficients(ScatterAlgorithm Alg,
                                         unsigned NumProcs,
                                         std::uint64_t BlockBytes,
                                         const GammaFunction &Gamma);
CostCoefficients reduceCostCoefficients(ReduceAlgorithm Alg,
                                        unsigned NumProcs,
                                        std::uint64_t MessageBytes,
                                        std::uint64_t SegmentBytes,
                                        const GammaFunction &Gamma);
CostCoefficients allgatherCostCoefficients(AllgatherAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t BlockBytes,
                                           const GammaFunction &Gamma);
CostCoefficients allreduceCostCoefficients(AllreduceAlgorithm Alg,
                                           unsigned NumProcs,
                                           std::uint64_t MessageBytes,
                                           std::uint64_t SegmentBytes,
                                           const GammaFunction &Gamma);

/// The Eq. 8 model of the linear gather without synchronisation:
/// T = (P-1) * (alpha + m_g * beta).
CostCoefficients linearGatherCostCoefficients(unsigned NumProcs,
                                              std::uint64_t GatherBytes);

/// Largest linear-broadcast size gamma is evaluated at by any of the
/// six models for communicators up to \p MaxProcs with K-chain fanout
/// \p KChainFanout -- tells the calibration how far to measure
/// gamma.
unsigned maxGammaArgument(unsigned MaxProcs, unsigned KChainFanout = 4);

} // namespace mpicsel

#endif // MPICSEL_MODEL_COSTMODELS_H
