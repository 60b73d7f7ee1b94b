//===- model/CostModels.cpp - Implementation-derived models ----------------===//

#include "model/CostModels.h"

#include "coll/Bcast.h"
#include "support/Error.h"
#include "topo/Tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace mpicsel;

/// floor(log2 V) for V >= 1.
static unsigned floorLog2(unsigned V) {
  assert(V >= 1 && "log of zero");
  unsigned Log = 0;
  while (V >>= 1)
    ++Log;
  return Log;
}

/// ceil(log2 V) for V >= 1.
static unsigned ceilLog2(unsigned V) {
  assert(V >= 1 && "log of zero");
  unsigned Floor = floorLog2(V);
  return (1u << Floor) == V ? Floor : Floor + 1;
}

/// Height of the subtree spanned by an in-order binary-tree block of
/// \p Members ranks (head + left block of ceil((n-1)/2) + right
/// block); matches topo/Tree.cpp's buildInOrderRange shape, asserted
/// equal to the built topology by the test suite. Closed-ish form so
/// the runtime decision function stays allocation-free.
static unsigned inOrderBlockHeight(unsigned Members) {
  if (Members <= 1)
    return 0;
  unsigned Left = Members / 2; // ceil((Members-1)/2)
  unsigned Right = Members - 1 - Left;
  return 1 + std::max(inOrderBlockHeight(Left), inOrderBlockHeight(Right));
}

/// Height of buildInOrderBinaryTree(P, .): the root plus its two
/// contiguous blocks of P/2 and P-1-P/2 ranks.
static unsigned inOrderTreeHeight(unsigned P) {
  if (P <= 1)
    return 0;
  unsigned Left = P / 2;
  unsigned Right = P - 1 - Left;
  return 1 + std::max(inOrderBlockHeight(Left),
                      Right ? inOrderBlockHeight(Right) : 0);
}

/// The segmented algorithms' effective segment size m/n_s (the paper
/// assumes m is a multiple of m_s; for stray sizes this is the mean
/// segment, which keeps B consistent with the actual traffic m).
static double meanSegmentBytes(const BcastModelQuery &Q,
                               std::uint64_t NumSegments) {
  return static_cast<double>(Q.MessageBytes) /
         static_cast<double>(NumSegments);
}

CostCoefficients
mpicsel::linearGatherCostCoefficients(unsigned NumProcs,
                                      std::uint64_t GatherBytes) {
  assert(NumProcs >= 1 && "empty communicator");
  // Eq. 8: T = (P-1) * (alpha + m_g * beta). Every block crosses the
  // root's drain channel; nothing overlaps at the root.
  double Count = static_cast<double>(NumProcs - 1);
  return {Count, Count * static_cast<double>(GatherBytes)};
}

CostCoefficients
mpicsel::bcastCostCoefficients(BcastAlgorithm Alg, const BcastModelQuery &Q,
                               const GammaFunction &Gamma) {
  const unsigned P = Q.NumProcs;
  assert(P >= 1 && "empty communicator");
  if (P == 1)
    return {0.0, 0.0};

  const std::uint64_t NumSegments =
      bcastSegmentCount(Q.MessageBytes, Q.SegmentBytes);
  const double Ns = static_cast<double>(NumSegments);
  const double SegBytes = meanSegmentBytes(Q, NumSegments);

  switch (Alg) {
  case BcastAlgorithm::Linear: {
    // Non-segmented non-blocking linear broadcast (Eq. 2):
    // T = gamma(P) * (alpha + m * beta).
    double G = Gamma(P);
    return {G, G * static_cast<double>(Q.MessageBytes)};
  }

  case BcastAlgorithm::Chain: {
    // Pipeline: the first segment fills P-1 hops, the remaining
    // n_s - 1 segments drain one stage apart:
    // T = (n_s + P - 2) * (alpha + m_s * beta).
    double Stages = Ns + static_cast<double>(P) - 2.0;
    return {Stages, Stages * SegBytes};
  }

  case BcastAlgorithm::KChain: {
    // K' chains of length ceil((P-1)/K'); the root performs a
    // non-blocking linear broadcast to the K' chain heads per
    // segment, so the root's stage interval is gamma(K'+1) *
    // (alpha + m_s * beta). The chain below the heads adds its fill:
    // T = (n_s * gamma(K'+1) + Lc - 1) * (alpha + m_s * beta).
    unsigned K = std::min(Q.KChainFanout, P - 1);
    assert(K >= 1 && "K-chain fanout must be positive");
    unsigned ChainLen = (P - 1 + K - 1) / K;
    double Stages = Ns * Gamma(K + 1) + static_cast<double>(ChainLen) - 1.0;
    return {Stages, Stages * SegBytes};
  }

  case BcastAlgorithm::Binary: {
    // Heap-shaped binary tree of height Hb = floor(log2 P) (the
    // deepest heap index); every internal stage is a linear broadcast
    // to two children:
    // T = (n_s + Hb - 1) * gamma(3) * (alpha + m_s * beta).
    unsigned Hb = floorLog2(P);
    double Stages =
        (Ns + static_cast<double>(Hb) - 1.0) * Gamma(std::min(3u, P));
    return {Stages, Stages * SegBytes};
  }

  case BcastAlgorithm::SplitBinary: {
    // Degenerate sizes fall back to the chain schedule (see
    // appendSplitBinaryBcast), so model them as the chain.
    if (P <= 2 || Q.MessageBytes < 2) {
      double Stages = Ns + static_cast<double>(P) - 2.0;
      return {Stages, Stages * SegBytes};
    }
    // Each half (m/2) is pipelined down its subtree of the in-order
    // binary tree (height Hio); the two subtrees run concurrently and
    // the root interleaves their segments, which is again a
    // two-children linear broadcast per round -> gamma(3). The final
    // pairwise exchange moves m/2 once:
    // T = (ceil(n_s/2) + Hio - 1) * gamma(3) * (alpha + m_s*beta)
    //     + alpha + (m/2) * beta.
    std::uint64_t HalfBytes = (Q.MessageBytes + 1) / 2;
    std::uint64_t HalfSegments = bcastSegmentCount(HalfBytes, Q.SegmentBytes);
    double HalfSegBytes = static_cast<double>(HalfBytes) /
                          static_cast<double>(HalfSegments);
    unsigned Hio = inOrderTreeHeight(P);
    double Stages = (static_cast<double>(HalfSegments) +
                     static_cast<double>(Hio) - 1.0) *
                    Gamma(3);
    CostCoefficients Tree{Stages, Stages * HalfSegBytes};
    CostCoefficients Exchange{1.0, static_cast<double>(Q.MessageBytes) / 2.0};
    return Tree + Exchange;
  }

  case BcastAlgorithm::Binomial: {
    // Paper Eq. 6. The root streams all n_s segments to its
    // ceil(log2 P) children (a linear broadcast of ceil(log2 P)+1
    // nodes per segment); the pipeline then drains through stages
    // whose widest linear broadcast shrinks by one child per level.
    if (P == 2)
      // Eq. 6 under-counts the trivial tree by one stage; the exact
      // cost of streaming n_s segments over one edge is n_s stages.
      return {Ns, Ns * SegBytes};
    unsigned FloorH = floorLog2(P);
    unsigned CeilH = ceilLog2(P);
    double A = Ns * Gamma(CeilH + 1);
    for (unsigned I = 1; I <= FloorH - 1; ++I)
      A += Gamma(CeilH - I + 1);
    A -= 1.0;
    return {A, A * SegBytes};
  }
  }
  MPICSEL_UNREACHABLE("unknown broadcast algorithm");
}

CostCoefficients
mpicsel::scatterCostCoefficients(ScatterAlgorithm Alg, unsigned NumProcs,
                                 std::uint64_t BlockBytes,
                                 const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case ScatterAlgorithm::Linear: {
    // P-1 concurrent non-blocking sends of one block: the linear-
    // broadcast structure, so the same gamma-weighted point-to-point.
    double G = Gamma(NumProcs);
    return {G, G * static_cast<double>(BlockBytes)};
  }
  case ScatterAlgorithm::Binomial: {
    // Critical path of the binomial scatter: the chain of largest
    // children. Each hop transfers the receiving child's whole
    // subtree bundle; Open MPI serves the largest child first, so
    // the path is not delayed by the sender's other sends.
    Tree T = buildBinomialTree(NumProcs, 0);
    double A = 0.0, B = 0.0;
    unsigned Cursor = 0;
    while (!T.Children[Cursor].empty()) {
      unsigned Largest = T.Children[Cursor].front();
      unsigned LargestSize = T.subtreeSize(Largest);
      for (unsigned Child : T.Children[Cursor]) {
        unsigned Size = T.subtreeSize(Child);
        if (Size > LargestSize) {
          Largest = Child;
          LargestSize = Size;
        }
      }
      A += 1.0;
      B += static_cast<double>(LargestSize) *
           static_cast<double>(BlockBytes);
      Cursor = Largest;
    }
    return {A, B};
  }
  }
  MPICSEL_UNREACHABLE("unknown scatter algorithm");
}

CostCoefficients
mpicsel::reduceCostCoefficients(ReduceAlgorithm Alg, unsigned NumProcs,
                                std::uint64_t MessageBytes,
                                std::uint64_t SegmentBytes,
                                const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case ReduceAlgorithm::Linear: {
    // Incast of P-1 full vectors into the root (Eq. 8's structure);
    // the serial combines ride on beta.
    double Count = static_cast<double>(NumProcs - 1);
    return {Count, Count * static_cast<double>(MessageBytes)};
  }
  case ReduceAlgorithm::Chain: {
    // The pipeline reversed: same fill + stream arithmetic as the
    // chain broadcast.
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return bcastCostCoefficients(BcastAlgorithm::Chain, Query, Gamma);
  }
  case ReduceAlgorithm::Binomial: {
    // The binomial broadcast mirrored: stage k of the reduction is
    // stage H-k of the broadcast, so Eq. 6 carries over unchanged
    // (the gamma factors now describe the serialisation of receives
    // and combines at a multi-child parent instead of sends).
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return bcastCostCoefficients(BcastAlgorithm::Binomial, Query, Gamma);
  }
  }
  MPICSEL_UNREACHABLE("unknown reduce algorithm");
}

CostCoefficients
mpicsel::allgatherCostCoefficients(AllgatherAlgorithm Alg, unsigned NumProcs,
                                   std::uint64_t BlockBytes,
                                   const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  (void)Gamma; // All three algorithms are single-peer per round.
  if (NumProcs == 1)
    return {0.0, 0.0};
  if (!allgatherAlgorithmApplies(Alg, NumProcs))
    Alg = AllgatherAlgorithm::Ring;

  // Every algorithm streams (P-1) blocks along its critical path;
  // only the round count differs.
  const double TotalBytes = static_cast<double>(NumProcs - 1) *
                            static_cast<double>(BlockBytes);
  switch (Alg) {
  case AllgatherAlgorithm::Ring:
    return {static_cast<double>(NumProcs - 1), TotalBytes};
  case AllgatherAlgorithm::RecursiveDoubling: {
    double Rounds = 0.0;
    for (unsigned Distance = 1; Distance < NumProcs; Distance <<= 1)
      Rounds += 1.0;
    return {Rounds, TotalBytes};
  }
  case AllgatherAlgorithm::NeighborExchange:
    return {static_cast<double>(NumProcs / 2), TotalBytes};
  }
  MPICSEL_UNREACHABLE("unknown allgather algorithm");
}

CostCoefficients
mpicsel::allreduceCostCoefficients(AllreduceAlgorithm Alg, unsigned NumProcs,
                                   std::uint64_t MessageBytes,
                                   std::uint64_t SegmentBytes,
                                   const GammaFunction &Gamma) {
  assert(NumProcs >= 1 && "empty communicator");
  if (NumProcs == 1)
    return {0.0, 0.0};

  switch (Alg) {
  case AllreduceAlgorithm::RecursiveDoubling: {
    // H full-vector exchange+combine rounds; a non-power-of-two
    // communicator adds the pre/post fold -- two more full-vector
    // hops on the folded ranks' critical path.
    double Rounds = 0.0;
    unsigned PowP = 1;
    while (2 * PowP <= NumProcs) {
      PowP *= 2;
      Rounds += 1.0;
    }
    if (PowP != NumProcs)
      Rounds += 2.0;
    return {Rounds, Rounds * static_cast<double>(MessageBytes)};
  }
  case AllreduceAlgorithm::Ring: {
    // 2(P-1) rounds of ~m/P blocks: reduce-scatter then allgather.
    double Rounds = 2.0 * static_cast<double>(NumProcs - 1);
    return {Rounds, Rounds * static_cast<double>(MessageBytes) /
                        static_cast<double>(NumProcs)};
  }
  case AllreduceAlgorithm::ReduceBcast: {
    // The phases are serial (the broadcast's root send waits for the
    // reduction's last combine), so the coefficients add.
    BcastModelQuery Query;
    Query.NumProcs = NumProcs;
    Query.MessageBytes = MessageBytes;
    Query.SegmentBytes = SegmentBytes;
    return reduceCostCoefficients(ReduceAlgorithm::Binomial, NumProcs,
                                  MessageBytes, SegmentBytes, Gamma) +
           bcastCostCoefficients(BcastAlgorithm::Binomial, Query, Gamma);
  }
  }
  MPICSEL_UNREACHABLE("unknown allreduce algorithm");
}

unsigned mpicsel::maxGammaArgument(unsigned MaxProcs, unsigned KChainFanout) {
  // linear evaluates gamma(P) itself only for the *unsegmented* flat
  // broadcast; the segmented models evaluate gamma at small
  // arguments: 3 (binary trees), K+1 (K-chain), ceil(log2 P)+1
  // (binomial). The linear algorithm's gamma(P) is covered by the
  // measured-range-plus-linear-fit design, so calibration measures up
  // to the largest *small* argument.
  unsigned ForBinomial = ceilLog2(std::max(2u, MaxProcs)) + 1;
  unsigned ForKChain = KChainFanout + 1;
  return std::max({3u, ForBinomial, ForKChain});
}
