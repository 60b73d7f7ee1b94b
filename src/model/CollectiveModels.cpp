//===- model/CollectiveModels.cpp - The method for every collective -------===//

#include "model/CollectiveModels.h"

using namespace mpicsel;

std::vector<std::uint64_t> mpicsel::doublingSizes(std::uint64_t From,
                                                  std::uint64_t To) {
  std::vector<std::uint64_t> Sizes;
  for (std::uint64_t Bytes = From; Bytes <= To; Bytes *= 2)
    Sizes.push_back(Bytes);
  return Sizes;
}

namespace {

/// Finishes an experiment: timed on \p Exit, or closed by a linear
/// gather of \p GatherBytes to \p Root after \p After.
BuiltSchedule finish(ScheduleBuilder &B, const std::vector<OpId> &After,
                     std::vector<OpId> Exit,
                     std::optional<std::uint64_t> GatherBytes, unsigned Root,
                     int Tag) {
  if (GatherBytes)
    return closeWithGather(B, After, *GatherBytes, Root, Tag);
  return {B.take(), std::move(Exit)};
}

} // namespace

BcastConfig CollectiveDescriptor<CollectiveOp::Bcast>::config(
    BcastAlgorithm A, const BcastModelQuery &Q) {
  BcastConfig C;
  C.Algorithm = A;
  C.MessageBytes = Q.MessageBytes;
  C.SegmentBytes = Q.SegmentBytes;
  C.Root = 0;
  C.KChainFanout = Q.KChainFanout;
  return C;
}

BuiltSchedule CollectiveDescriptor<CollectiveOp::Bcast>::experiment(
    const Platform &, unsigned NumProcs, const BcastConfig &C,
    std::optional<std::uint64_t> GatherBytes) {
  ScheduleBuilder B(NumProcs);
  std::vector<OpId> Exit = appendBcast(B, C);
  return finish(B, Exit, Exit, GatherBytes, C.Root, C.Tag);
}

BuiltSchedule CollectiveDescriptor<CollectiveOp::Scatter>::experiment(
    const Platform &, unsigned NumProcs, const ScatterConfig &C,
    std::optional<std::uint64_t> GatherBytes) {
  ScheduleBuilder B(NumProcs);
  std::vector<OpId> Exit = appendScatter(B, C);
  return finish(B, Exit, Exit, GatherBytes, C.Root, C.Tag);
}

BuiltSchedule CollectiveDescriptor<CollectiveOp::Reduce>::experiment(
    const Platform &P, unsigned NumProcs, const ReduceConfig &Config,
    std::optional<std::uint64_t> GatherBytes) {
  ReduceConfig C = Config;
  if (C.ComputeSecondsPerByte == 0.0)
    C.ComputeSecondsPerByte = P.ReduceComputePerByte;
  ScheduleBuilder B(NumProcs);
  const std::vector<OpId> Exit = appendReduce(B, C);
  return finish(B, Exit, {Exit[C.Root]}, GatherBytes, C.Root, C.Tag);
}

BuiltSchedule CollectiveDescriptor<CollectiveOp::Allgather>::experiment(
    const Platform &, unsigned NumProcs, const AllgatherConfig &C,
    std::optional<std::uint64_t> GatherBytes) {
  ScheduleBuilder B(NumProcs);
  std::vector<OpId> Exit = appendAllgather(B, C);
  return finish(B, Exit, Exit, GatherBytes, /*Root=*/0, C.Tag);
}

BuiltSchedule CollectiveDescriptor<CollectiveOp::Allreduce>::experiment(
    const Platform &P, unsigned NumProcs, const AllreduceConfig &Config,
    std::optional<std::uint64_t> GatherBytes) {
  AllreduceConfig C = Config;
  if (C.ComputeSecondsPerByte == 0.0)
    C.ComputeSecondsPerByte = P.ReduceComputePerByte;
  ScheduleBuilder B(NumProcs);
  std::vector<OpId> Exit = appendAllreduce(B, C);
  return finish(B, Exit, Exit, GatherBytes, /*Root=*/0, C.Tag);
}
