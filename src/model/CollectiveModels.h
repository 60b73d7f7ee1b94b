//===- model/CollectiveModels.h - One method, every collective --*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's method does not depend on the collective: estimate
/// gamma (Sect. 4.1), time each algorithm followed by a linear gather
/// without synchronisation and fit its own (alpha, beta) with Huber
/// (Sect. 4.2), then select by the argmin of the models. Sect. 6 says
/// it carries over to the other collectives, and here it does through
/// one code path keyed on the coll/Collective.h registry.
///
/// A CollectiveDescriptor holds only what differs between the ops:
/// the algorithm enum and list, the config and options types, the
/// implementation-derived cost coefficients (model/CostModels.h), the
/// experiment with its completion rule and gather root, the default
/// size and gather ramps, the per-algorithm seed stride, which
/// algorithms take the segment size, and the gamma fan-out argument.
/// Everything else -- CollectiveModels (predict, selectBest), the
/// stage-2 calibration loop (model/Calibration.cpp) and the decision
/// table build (model/DecisionCache.h) -- is written once.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_MODEL_COLLECTIVEMODELS_H
#define MPICSEL_MODEL_COLLECTIVEMODELS_H

#include "cluster/Platform.h"
#include "coll/Collective.h"
#include "model/CostModels.h"
#include "model/Gamma.h"
#include "model/Runner.h"
#include "stat/AdaptiveBenchmark.h"
#include "stat/Regression.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace mpicsel {

/// Robustness policy of the calibration pass: per-experiment outlier
/// screening and retries, plus per-algorithm quality gates on the
/// canonical fit. Disabled by default -- the plain pass assumes every
/// experiment succeeds, exactly as before; the robustness pipeline
/// (bench/robustness_faults, model/RobustSelector) enables it for the
/// broadcast to survive contaminated measurements.
struct CalibrationQualityOptions {
  /// Master switch: off reproduces the unguarded pass bit for bit.
  bool Enabled = false;
  /// Extra attempts per experiment when the adaptive measurement does
  /// not converge; each retry reseeds and grows MaxReps by
  /// BackoffGrowth (measure-again-with-backoff).
  unsigned MaxRetriesPerExperiment = 2;
  /// MaxReps multiplier applied on every retry.
  double BackoffGrowth = 2.0;
  /// MAD screen threshold handed to AdaptiveOptions (robust sigmas).
  double OutlierMadSigma = 3.5;
  /// Gate: minimum R^2 of the canonical fit.
  double MinR2 = 0.9;
  /// Gate: maximum Rmse of the canonical fit relative to the median
  /// canonical time.
  double MaxRelativeRmse = 0.25;
  /// Gate: alpha (the fitted intercept, seconds) must lie in
  /// [-AlphaSlack * median(t), MaxAlpha]. Strongly negative intercepts
  /// mean the fit is extrapolating garbage, not measurement noise.
  double MaxAlpha = 1.0;
  double AlphaSlack = 0.25;
  /// Gate: beta (the fitted slope, seconds/byte in canonical units)
  /// must not exceed MaxBeta. A negative slope is tolerated (the
  /// calibrated Beta clamps it to zero) unless the fitted line
  /// collapses inside the calibrated range: the prediction at the
  /// largest observed x must stay >= BetaSlack * median(t).
  double MaxBeta = 1e-3;
  double BetaSlack = 0.25;
  /// Gate: at least this fraction of the algorithm's experiments must
  /// have converged (after retries).
  double MinConvergedFraction = 0.7;
};

/// Options of the broadcast calibration, and the resolved plan the
/// stage-2 loop runs for every op: the other ops' options map onto it
/// with the quality policy disabled and one thread. The name is kept
/// for perfbench/cpp/PaperWorkloads.cpp.
struct CalibrationOptions {
  /// Processes used in the alpha/beta experiments. 0 selects the
  /// paper's choice: roughly half the platform's ranks (the paper
  /// used 40 of 90 on Grisou and all 124 on Gros; it reports that
  /// using more nodes does not change the estimates).
  unsigned NumProcs = 0;
  /// Segment size of the segmented algorithms (the paper's 8 KB).
  std::uint64_t SegmentBytes = 8 * 1024;
  /// K of the K-chain algorithm.
  unsigned KChainFanout = 4;
  /// Broadcast message sizes of the experiments; empty selects the
  /// paper's sweep: 10 sizes from 8 KB to 4 MB, constant step in log
  /// scale (i.e. doubling).
  std::vector<std::uint64_t> MessageSizes;
  /// Gather block sizes m_g_i (must differ from the segment size);
  /// empty derives the op's default ramp.
  std::vector<std::uint64_t> GatherSizes;
  /// Options of the gamma estimation stage; MaxP is raised
  /// automatically to cover every gamma argument the models need.
  GammaEstimationOptions GammaOptions;
  /// Statistical stopping rules of each timing.
  AdaptiveOptions Adaptive;
  /// Solve the canonical system with Huber (paper) or plain OLS
  /// (ablation).
  bool UseHuber = true;
  /// Robustness policy (screening, retries, quality gates).
  CalibrationQualityOptions Quality;
  /// Worker threads of the calibration sweeps. 0 (the default)
  /// consults the MPICSEL_THREADS environment variable, which itself
  /// defaults to 1 -- i.e. the historical serial pass. Any thread
  /// count produces bit-identical results: every experiment derives
  /// its seed from its grid position and the per-algorithm systems
  /// are assembled in serial order (stat/ParallelSweep.h). The thread
  /// count is deliberately excluded from the DecisionCache content
  /// hash for the same reason.
  unsigned Threads = 0;
};

/// Calibration options of the per-rank-block collectives (scatter,
/// allgather).
struct BlockCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  /// Per-rank block sizes of the experiments; empty selects 1 KB ..
  /// 64 KB doubling.
  std::vector<std::uint64_t> BlockSizes;
  /// Gather block sizes (one per experiment); empty derives a ramp.
  std::vector<std::uint64_t> GatherSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Calibration options of the reducing collectives (reduce,
/// allreduce), whose segmented algorithms take SegmentBytes.
struct VectorCalibrationOptions {
  /// Processes used in the experiments (0 = half the platform).
  unsigned NumProcs = 0;
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Vector sizes of the experiments; empty selects 8 KB .. 4 MB
  /// doubling (the paper's broadcast sweep).
  std::vector<std::uint64_t> MessageSizes;
  GammaEstimationOptions GammaOptions;
  AdaptiveOptions Adaptive;
  bool UseHuber = true;
};

/// Sizes From, 2*From, ... up to To.
std::vector<std::uint64_t> doublingSizes(std::uint64_t From, std::uint64_t To);

/// The description of one collective. Members of every specialisation:
///
///   Algorithm, Config            the op's enum and config
///   Options                      calibration options (not bcast, whose
///                                CalibrationOptions are the plan)
///   Algorithms                   every algorithm, in ordinal order
///   SeedStride                   seed distance between algorithms'
///                                calibration experiments
///   segmented(A)                 whether A takes the segment size
///   gammaFanout(K)               fan-out argument of maxGammaArgument
///   cost(A, Query, Gamma)        the implementation-derived model
///   config(A, Query)             the config the model describes
///   experiment(P, N, C, G)       C over ranks 0..N-1, timed by the
///                                op's completion rule, or closed by
///                                a linear gather of G bytes per rank
///                                to the op's root and timed there
///   defaultSizes()               the calibration's size sweep
///   defaultGather(m, m_s)        the gather ramp paired with size m
template <CollectiveOp Op> struct CollectiveDescriptor;

template <> struct CollectiveDescriptor<CollectiveOp::Bcast> {
  using Algorithm = BcastAlgorithm;
  using Config = BcastConfig;
  static constexpr auto &Algorithms = AllBcastAlgorithms;
  static constexpr std::uint64_t SeedStride = 0x100000;
  static bool segmented(Algorithm A) { return A != BcastAlgorithm::Linear; }
  static unsigned gammaFanout(unsigned KChainFanout) { return KChainFanout; }
  static CostCoefficients cost(Algorithm A, const BcastModelQuery &Q,
                               const GammaFunction &G) {
    return bcastCostCoefficients(A, Q, G);
  }
  static Config config(Algorithm A, const BcastModelQuery &Q);
  static BuiltSchedule experiment(const Platform &P, unsigned NumProcs,
                                  const Config &C,
                                  std::optional<std::uint64_t> GatherBytes);
  static std::vector<std::uint64_t> defaultSizes() {
    return doublingSizes(8 * 1024, 4 * 1024 * 1024);
  }
  /// m / 64 clamped to [1 KB, 256 KB]: the ramp spreads the canonical
  /// x of the Fig. 4 system while the broadcast still dominates.
  static std::uint64_t defaultGather(std::uint64_t Bytes,
                                     std::uint64_t SegmentBytes) {
    const std::uint64_t G =
        std::clamp<std::uint64_t>(Bytes / 64, 1024, 256 * 1024);
    return G == SegmentBytes ? G + 512 : G; // The paper needs m_g != m_s.
  }
};

/// What scatter and allgather share: sizes are per-rank blocks and no
/// algorithm is segmented.
template <typename AlgorithmT, typename ConfigT> struct BlockCollective {
  using Algorithm = AlgorithmT;
  using Config = ConfigT;
  using Options = BlockCalibrationOptions;
  static bool segmented(Algorithm) { return false; }
  static unsigned gammaFanout(unsigned) { return 1; }
  static Config config(Algorithm A, const BcastModelQuery &Q) {
    Config C;
    C.Algorithm = A;
    C.BlockBytes = Q.MessageBytes;
    return C;
  }
  static std::vector<std::uint64_t> defaultSizes() {
    return doublingSizes(1024, 64 * 1024);
  }
  static std::uint64_t defaultGather(std::uint64_t Bytes, std::uint64_t) {
    return std::max<std::uint64_t>(512, Bytes / 4);
  }
};

/// What reduce and allreduce share: sizes are whole vectors, and the
/// gather ramp makes (alpha, beta) identifiable -- a reduce-only
/// experiment has the constant canonical x = m_s for the segmented
/// algorithms.
template <typename AlgorithmT, typename ConfigT> struct VectorCollective {
  using Algorithm = AlgorithmT;
  using Config = ConfigT;
  using Options = VectorCalibrationOptions;
  static unsigned gammaFanout(unsigned) { return 1; }
  static Config config(Algorithm A, const BcastModelQuery &Q) {
    Config C;
    C.Algorithm = A;
    C.MessageBytes = Q.MessageBytes;
    C.SegmentBytes = Q.SegmentBytes;
    return C;
  }
  static std::vector<std::uint64_t> defaultSizes() {
    return doublingSizes(8 * 1024, 4 * 1024 * 1024);
  }
  static std::uint64_t defaultGather(std::uint64_t Bytes,
                                     std::uint64_t SegmentBytes) {
    const std::uint64_t G = std::max<std::uint64_t>(512, Bytes / 64);
    return G == SegmentBytes ? G + 512 : G;
  }
};

template <>
struct CollectiveDescriptor<CollectiveOp::Scatter>
    : BlockCollective<ScatterAlgorithm, ScatterConfig> {
  static constexpr auto &Algorithms = AllScatterAlgorithms;
  static constexpr std::uint64_t SeedStride = 0x200000;
  static CostCoefficients cost(Algorithm A, const BcastModelQuery &Q,
                               const GammaFunction &G) {
    return scatterCostCoefficients(A, Q.NumProcs, Q.MessageBytes, G);
  }
  static BuiltSchedule experiment(const Platform &P, unsigned NumProcs,
                                  const Config &C,
                                  std::optional<std::uint64_t> GatherBytes);
};

template <>
struct CollectiveDescriptor<CollectiveOp::Reduce>
    : VectorCollective<ReduceAlgorithm, ReduceConfig> {
  static constexpr auto &Algorithms = AllReduceAlgorithms;
  static constexpr std::uint64_t SeedStride = 0x400000;
  static bool segmented(Algorithm A) { return A != ReduceAlgorithm::Linear; }
  static CostCoefficients cost(Algorithm A, const BcastModelQuery &Q,
                               const GammaFunction &G) {
    return reduceCostCoefficients(A, Q.NumProcs, Q.MessageBytes,
                                  Q.SegmentBytes, G);
  }
  /// Timed to the result being ready on the root.
  static BuiltSchedule experiment(const Platform &P, unsigned NumProcs,
                                  const Config &C,
                                  std::optional<std::uint64_t> GatherBytes);
};

template <>
struct CollectiveDescriptor<CollectiveOp::Allgather>
    : BlockCollective<AllgatherAlgorithm, AllgatherConfig> {
  static constexpr auto &Algorithms = AllAllgatherAlgorithms;
  static constexpr std::uint64_t SeedStride = 0x800000;
  static CostCoefficients cost(Algorithm A, const BcastModelQuery &Q,
                               const GammaFunction &G) {
    return allgatherCostCoefficients(A, Q.NumProcs, Q.MessageBytes, G);
  }
  static BuiltSchedule experiment(const Platform &P, unsigned NumProcs,
                                  const Config &C,
                                  std::optional<std::uint64_t> GatherBytes);
};

template <>
struct CollectiveDescriptor<CollectiveOp::Allreduce>
    : VectorCollective<AllreduceAlgorithm, AllreduceConfig> {
  static constexpr auto &Algorithms = AllAllreduceAlgorithms;
  static constexpr std::uint64_t SeedStride = 0x1000000;
  static bool segmented(Algorithm A) {
    return A == AllreduceAlgorithm::ReduceBcast;
  }
  static CostCoefficients cost(Algorithm A, const BcastModelQuery &Q,
                               const GammaFunction &G) {
    return allreduceCostCoefficients(A, Q.NumProcs, Q.MessageBytes,
                                     Q.SegmentBytes, G);
  }
  static BuiltSchedule experiment(const Platform &P, unsigned NumProcs,
                                  const Config &C,
                                  std::optional<std::uint64_t> GatherBytes);
};

template <CollectiveOp Op>
using CollectiveOptions = typename CollectiveDescriptor<Op>::Options;

/// Calibration result for one algorithm.
template <typename AlgorithmT> struct AlgorithmFit {
  AlgorithmT Algorithm{};
  /// The algorithm-specific Hockney parameters (paper Table 2).
  double Alpha = 0.0;
  double Beta = 0.0;
  /// The canonical-form regression (x_i, t_i) actually solved --
  /// exposed for tests, benches and the EXPERIMENTS.md write-up.
  std::vector<double> CanonicalX;
  std::vector<double> CanonicalT;
  LinearFit Fit;
};

/// Everything the runtime selection of \p Op needs: gamma plus
/// per-algorithm (alpha, beta).
template <CollectiveOp Op> struct CollectiveModels {
  using Descriptor = CollectiveDescriptor<Op>;
  using Algorithm = typename Descriptor::Algorithm;

  GammaFunction Gamma;
  std::array<AlgorithmFit<Algorithm>, Descriptor::Algorithms.size()>
      Algorithms;
  std::uint64_t SegmentBytes = 8 * 1024;
  unsigned KChainFanout = 4;

  const AlgorithmFit<Algorithm> &of(Algorithm Alg) const {
    return Algorithms[static_cast<unsigned>(Alg)];
  }

  /// The model query of \p Alg: the calibrated segment size for the
  /// algorithms that take one, else 0.
  BcastModelQuery query(Algorithm Alg, unsigned NumProcs,
                        std::uint64_t Bytes) const {
    return {NumProcs, Bytes, Descriptor::segmented(Alg) ? SegmentBytes : 0,
            KChainFanout};
  }

  /// Predicted time of \p Alg for \p NumProcs ranks and \p Bytes.
  double predict(Algorithm Alg, unsigned NumProcs,
                 std::uint64_t Bytes) const {
    const AlgorithmFit<Algorithm> &Params = of(Alg);
    return Descriptor::cost(Alg, query(Alg, NumProcs, Bytes), Gamma)
        .evaluate(Params.Alpha, Params.Beta);
  }

  /// The model-based decision function: argmin of predict over the
  /// op's algorithms. This is the paper's runtime selection -- two
  /// multiply-adds per algorithm, no search.
  Algorithm selectBest(unsigned NumProcs, std::uint64_t Bytes) const {
    Algorithm Best = Descriptor::Algorithms.front();
    double BestTime = predict(Best, NumProcs, Bytes);
    for (Algorithm Alg : Descriptor::Algorithms) {
      const double Time = predict(Alg, NumProcs, Bytes);
      if (Time < BestTime) {
        Best = Alg;
        BestTime = Time;
      }
    }
    return Best;
  }
};

/// Runs the calibration of \p Op (gamma, then per-algorithm
/// alpha/beta) on \p P. Bcast calibrates through calibrate()
/// (model/Calibration.h), which adds its quality policy and report.
template <CollectiveOp Op>
CollectiveModels<Op> calibrateCollective(const Platform &P,
                                         const CollectiveOptions<Op> &Options);

/// Adaptively measures \p Config over ranks 0..NumProcs-1, timed by
/// the op's completion rule.
template <CollectiveOp Op>
AdaptiveResult
measureCollective(const Platform &P, unsigned NumProcs,
                  const typename CollectiveDescriptor<Op>::Config &Config,
                  const AdaptiveOptions &Options = {}) {
  static_assert(Op != CollectiveOp::Bcast,
                "bcast measures through measureBcast, which also feeds "
                "the drift sentinel");
  return measureExperiment(
      P, CollectiveDescriptor<Op>::experiment(P, NumProcs, Config,
                                              std::nullopt),
      collectiveOpName(Op), Options);
}

} // namespace mpicsel

#endif // MPICSEL_MODEL_COLLECTIVEMODELS_H
