//===- tests/TestEngine.cpp - sim/ discrete-event engine tests -------------===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
// The test platform (cluster/Platform.cpp) uses round numbers so every
// expected timestamp below is computed by hand:
//   inter-node: o_s = o_r = 1us, tx = 2us + 1ns/B, L = 10us,
//               rx = 1us + 1ns/B
//   intra-node: o_s = o_r = 1us, tx = 1us + 0.5ns/B, L = 1us,
//               rx = 0.5us + 0.5ns/B
// A single uncontended inter-node transfer of m bytes completes at the
// receiver at 14us + m ns (cut-through: the drain overlaps injection).
//
//===----------------------------------------------------------------------===//

#include "sim/Engine.h"

#include "cluster/Platform.h"
#include "coll/Allreduce.h"
#include "mpi/Schedule.h"
#include "oracle/LegacyEngine.h"

#include <gtest/gtest.h>

using namespace mpicsel;

namespace {
constexpr double US = 1e-6;
constexpr double TOL = 1e-12;
} // namespace

TEST(Engine, PointToPointHandComputed) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId Send = B.addSend(0, 1, 1000, 0);
  OpId Recv = B.addRecv(1, 0, 1000, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // Send completes locally at CPU(1us) + tx(2us + 1us).
  EXPECT_NEAR(R.doneTime(Send), 4 * US, TOL);
  // Receive: available at 13us + 1us payload, + 1us recv overhead.
  EXPECT_NEAR(R.doneTime(Recv), 15 * US, TOL);
  EXPECT_EQ(R.BytesReceived[1], 1000u);
  EXPECT_EQ(R.BytesSent[0], 1000u);
  EXPECT_EQ(R.BytesReceived[0], 0u);
}

TEST(Engine, ZeroByteMessage) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId Send = B.addSend(0, 1, 0, 0);
  OpId Recv = B.addRecv(1, 0, 0, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_NEAR(R.doneTime(Send), 3 * US, TOL);
  EXPECT_NEAR(R.doneTime(Recv), 14 * US, TOL);
}

TEST(Engine, IntraNodeUsesMemoryChannel) {
  Platform P = makeTestPlatform(1, /*ProcsPerNode=*/2);
  ScheduleBuilder B(2);
  OpId Send = B.addSend(0, 1, 1000, 0);
  OpId Recv = B.addRecv(1, 0, 1000, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // CPU 1us, mem-tx 1us + 0.5us -> local done 2.5us.
  EXPECT_NEAR(R.doneTime(Send), 2.5 * US, TOL);
  // First byte at 2us; drain ends at last byte (3.5us); + 1us o_r.
  EXPECT_NEAR(R.doneTime(Recv), 4.5 * US, TOL);
}

TEST(Engine, ConsecutiveSendsSerialiseOnCpuAndNic) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId Send1 = B.addSend(0, 1, 1000, 0);
  OpId Send2 = B.addSend(0, 1, 1000, 0);
  OpId Recv1 = B.addRecv(1, 0, 1000, 0);
  OpId Recv2 = B.addRecv(1, 0, 1000, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // tx1 occupies 1..4us; tx2 queues: 4..7us.
  EXPECT_NEAR(R.doneTime(Send1), 4 * US, TOL);
  EXPECT_NEAR(R.doneTime(Send2), 7 * US, TOL);
  // msg1 available at 14us; recv1 done 15us.
  EXPECT_NEAR(R.doneTime(Recv1), 15 * US, TOL);
  // msg2: first byte at 4+10 = 14us; drain to max(14+2, 17) = 17us;
  // recv CPU free at 16us -> done 18us.
  EXPECT_NEAR(R.doneTime(Recv2), 18 * US, TOL);
}

TEST(Engine, CutThroughSingleOccupancyForLargeMessage) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  std::uint64_t Big = 1000 * 1000; // 1 MB => 1 ms of wire time.
  B.addSend(0, 1, Big, 0);
  OpId Recv = B.addRecv(1, 0, Big, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // Store-and-forward would cost ~2 ms; cut-through costs one
  // occupancy: 14us + 1ms.
  EXPECT_NEAR(R.doneTime(Recv), 14 * US + 1e-3, 1e-9);
}

TEST(Engine, RxChannelServesFirstByteArrivalOrder) {
  // Rank 0 sends a big message to rank 2; rank 1 sends a small one
  // whose first byte lands earlier. The small message must drain
  // first even though the big send was issued first.
  Platform P = makeTestPlatform(3);
  ScheduleBuilder B(3);
  std::uint64_t Big = 1000 * 1000;
  // Delay rank 0's send by a 7us compute so its first byte arrives
  // at 8 + 10 = 18us; rank 1's small message's first byte arrives at
  // 11us.
  OpId Delay = B.addCompute(0, 7 * US);
  std::vector<OpId> Deps{Delay};
  B.addSend(0, 2, Big, 0, Deps);
  B.addSend(1, 2, 1000, 1);
  OpId RecvBig = B.addRecv(2, 0, Big, 0);
  OpId RecvSmall = B.addRecv(2, 1, 1000, 1);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // Small: available max(11+2, 14) = 14us, + o_r => 15us.
  EXPECT_NEAR(R.doneTime(RecvSmall), 15 * US, TOL);
  // Big: first byte at 18us, rx free at 14us; drain ends at last
  // byte: tx 8..10+1000us => last byte 1020us; +o_r (CPU free).
  EXPECT_NEAR(R.doneTime(RecvBig), 1021 * US, 1e-9);
  EXPECT_LT(R.doneTime(RecvSmall), R.doneTime(RecvBig));
}

TEST(Engine, RxHeadOfLineBlockingBehindBigMessage) {
  // Now the big message's first byte arrives first: the later small
  // message queues behind its full drain.
  Platform P = makeTestPlatform(3);
  ScheduleBuilder B(3);
  std::uint64_t Big = 1000 * 1000;
  B.addSend(0, 2, Big, 0);
  OpId Delay = B.addCompute(1, 20 * US);
  std::vector<OpId> Deps{Delay};
  B.addSend(1, 2, 1000, 1, Deps);
  OpId RecvBig = B.addRecv(2, 0, Big, 0);
  OpId RecvSmall = B.addRecv(2, 1, 1000, 1);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // Big drains until its last byte: 3us + 1000us + 10us = 1013us.
  EXPECT_NEAR(R.doneTime(RecvBig), 1014 * US, 1e-9);
  // Small arrived at ~31us but waits for the channel until 1013us,
  // drains 2us, completes 1us later (recv CPU is free by then).
  EXPECT_NEAR(R.doneTime(RecvSmall), 1016 * US, 1e-9);
}

TEST(Engine, ComputeOccupiesCpuExclusively) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId Work = B.addCompute(0, 5 * US);
  OpId Send = B.addSend(0, 1, 0, 0); // No dep, but CPU is busy.
  OpId Recv = B.addRecv(1, 0, 0, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_NEAR(R.doneTime(Work), 5 * US, TOL);
  // Send CPU slot 5..6us, tx 6..8us.
  EXPECT_NEAR(R.doneTime(Send), 8 * US, TOL);
  EXPECT_NEAR(R.doneTime(Recv), 19 * US, TOL);
}

TEST(Engine, DependenciesGateExecution) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId First = B.addCompute(0, 3 * US);
  std::vector<OpId> Deps{First};
  OpId Second = B.addCompute(0, 2 * US, Deps);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_NEAR(R.Timings[Second].ReadyTime, 3 * US, TOL);
  EXPECT_NEAR(R.doneTime(Second), 5 * US, TOL);
}

TEST(Engine, JoinCompletesWithLastDependency) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId A = B.addCompute(0, 3 * US);
  OpId C = B.addCompute(0, 2 * US);
  std::vector<OpId> Deps{A, C};
  OpId J = B.addJoin(0, Deps);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // The two computes serialise on the CPU: 0..3 and 3..5.
  EXPECT_NEAR(R.doneTime(J), 5 * US, TOL);
}

TEST(Engine, UnexpectedMessageWaitsForPostedReceive) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  B.addSend(0, 1, 100, 0);
  // The receive only becomes ready at 50us, long after the message
  // arrived (~14.1us).
  OpId Delay = B.addCompute(1, 50 * US);
  std::vector<OpId> Deps{Delay};
  OpId Recv = B.addRecv(1, 0, 100, 0, Deps);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_NEAR(R.doneTime(Recv), 51 * US, TOL);
}

TEST(Engine, FifoMatchingWithinChannel) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId S1 = B.addSend(0, 1, 10, 0);
  std::vector<OpId> D1{S1};
  B.addSend(0, 1, 20, 0, D1);
  OpId R1 = B.addRecv(1, 0, 10, 0);
  std::vector<OpId> D2{R1};
  OpId R2 = B.addRecv(1, 0, 20, 0, D2);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.BytesReceived[1], 30u);
  EXPECT_GT(R.doneTime(R2), R.doneTime(R1));
}

TEST(Engine, NoiseCannotReorderSameChannelMessages) {
  // Regression: on a noisy platform, a short message injected right
  // behind a long one on the same (src, dst, tag) channel could draw a
  // smaller latency and overtake it, and the strict arrival-order
  // matcher then paired receives with wrong-size messages. Ring
  // allreduce at P = 90 with m = 65536 carries 729- and 728-byte
  // blocks on the same channels (65536 % 90 = 16); this exact seed
  // produced an inversion before the fault-free non-overtaking clamp.
  Platform P = makeGrisou();
  ASSERT_GT(P.NoiseSigma, 0.0);
  AllreduceConfig Config;
  Config.Algorithm = AllreduceAlgorithm::Ring;
  Config.MessageBytes = 65536;
  ScheduleBuilder B(90);
  appendAllreduce(B, Config);
  const Schedule S = B.take();
  const std::uint64_t Seed = 17909611376780542444ull;
  const ExecutionResult Legacy = runScheduleLegacy(S, P, Seed);
  ASSERT_TRUE(Legacy.Completed);
  Engine E;
  const ExecutionResult &Compiled = E.run(compileSchedule(S), P, Seed);
  ASSERT_TRUE(Compiled.Completed);
  EXPECT_EQ(Legacy.Makespan, Compiled.Makespan);
}

TEST(Engine, DeadlockIsReportedNotHung) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  OpId Recv = B.addRecv(1, 0, 100, 0); // No matching send.
  ExecutionResult R = runSchedule(B.take(), P);
  EXPECT_FALSE(R.Completed);
  EXPECT_FALSE(R.Timings[Recv].Done);
  EXPECT_NE(R.Diagnostic.find("deadlock"), std::string::npos);
}

TEST(Engine, DeterministicAcrossRuns) {
  Platform P = makeGrisou(); // Noise enabled.
  ScheduleBuilder B1(8), B2(8);
  for (unsigned I = 1; I < 8; ++I) {
    B1.addSend(0, I, 4096, 0);
    B1.addRecv(I, 0, 4096, 0);
    B2.addSend(0, I, 4096, 0);
    B2.addRecv(I, 0, 4096, 0);
  }
  ExecutionResult R1 = runSchedule(B1.take(), P, 42);
  ExecutionResult R2 = runSchedule(B2.take(), P, 42);
  ASSERT_TRUE(R1.Completed);
  ASSERT_EQ(R1.Timings.size(), R2.Timings.size());
  for (size_t I = 0; I < R1.Timings.size(); ++I)
    EXPECT_EQ(R1.Timings[I].DoneTime, R2.Timings[I].DoneTime);
}

TEST(Engine, DifferentSeedsGiveDifferentNoise) {
  Platform P = makeGrisou();
  ASSERT_GT(P.NoiseSigma, 0.0);
  auto runOne = [&](std::uint64_t Seed) {
    ScheduleBuilder B(2);
    B.addSend(0, 1, 65536, 0);
    OpId Recv = B.addRecv(1, 0, 65536, 0);
    return runSchedule(B.take(), P, Seed).doneTime(Recv);
  };
  EXPECT_NE(runOne(1), runOne(2));
}

TEST(Engine, NoiseIsMultiplicativeAndModerate) {
  Platform P = makeGros();
  auto runOne = [&](std::uint64_t Seed) {
    ScheduleBuilder B(2);
    B.addSend(0, 1, 65536, 0);
    OpId Recv = B.addRecv(1, 0, 65536, 0);
    return runSchedule(B.take(), P, Seed).doneTime(Recv);
  };
  Platform Clean = P;
  Clean.NoiseSigma = 0.0;
  ScheduleBuilder B(2);
  B.addSend(0, 1, 65536, 0);
  OpId Recv = B.addRecv(1, 0, 65536, 0);
  double Baseline = runSchedule(B.take(), Clean, 0).doneTime(Recv);
  for (std::uint64_t Seed = 0; Seed < 20; ++Seed) {
    double Noisy = runOne(Seed);
    EXPECT_GT(Noisy, 0.7 * Baseline);
    EXPECT_LT(Noisy, 1.4 * Baseline);
  }
}

TEST(Engine, MakespanIsLastCompletion) {
  Platform P = makeTestPlatform(2);
  ScheduleBuilder B(2);
  B.addSend(0, 1, 1000, 0);
  OpId Recv = B.addRecv(1, 0, 1000, 0);
  ExecutionResult R = runSchedule(B.take(), P);
  EXPECT_DOUBLE_EQ(R.Makespan, R.doneTime(Recv));
}

TEST(Engine, TwoRanksPerNodeShareTheNic) {
  // Ranks 0,1 on node 0 (block mapping); both send to distinct ranks
  // on other nodes; their transmissions serialise on the shared NIC.
  Platform P = makeTestPlatform(3, /*ProcsPerNode=*/2);
  ScheduleBuilder B(4);
  OpId SendA = B.addSend(0, 2, 1000, 0);
  OpId SendB = B.addSend(1, 3, 1000, 1);
  B.addRecv(2, 0, 1000, 0);
  B.addRecv(3, 1, 1000, 1);
  ExecutionResult R = runSchedule(B.take(), P);
  ASSERT_TRUE(R.Completed);
  // Separate CPUs: both CpuDone at 1us. NIC serialises: 1..4, 4..7.
  EXPECT_NEAR(R.doneTime(SendA), 4 * US, TOL);
  EXPECT_NEAR(R.doneTime(SendB), 7 * US, TOL);
}
