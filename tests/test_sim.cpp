/**
 * @file
 * Frame-simulator semantics: Pauli propagation truth tables, noiseless
 * determinism, localized error signatures, and every leakage rule of
 * Section 5.2 (transport models, seepage, leaked readout, LRC removal,
 * DQLR behaviour).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "decoder/defects.h"
#include "surface_dem.h"
#include "sim/frame_simulator.h"

namespace qec
{
namespace
{

Op
op(OpType type, int q0, int q1 = -1)
{
    Op o;
    o.type = type;
    o.q0 = q0;
    o.q1 = q1;
    return o;
}

TEST(FrameSim, CnotPropagatesXForward)
{
    FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::X);
    sim.execute(op(OpType::Cnot, 0, 1));
    EXPECT_TRUE(sim.xFrame(0));
    EXPECT_TRUE(sim.xFrame(1));
    EXPECT_FALSE(sim.zFrame(0));
}

TEST(FrameSim, CnotPropagatesZBackward)
{
    FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(1, Pauli::Z);
    sim.execute(op(OpType::Cnot, 0, 1));
    EXPECT_TRUE(sim.zFrame(0));
    EXPECT_TRUE(sim.zFrame(1));
    EXPECT_FALSE(sim.xFrame(1));
}

TEST(FrameSim, CnotLeavesXOnTargetAlone)
{
    FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(1, Pauli::X);
    sim.execute(op(OpType::Cnot, 0, 1));
    EXPECT_FALSE(sim.xFrame(0));
    EXPECT_TRUE(sim.xFrame(1));
}

TEST(FrameSim, HadamardSwapsFrames)
{
    FrameSimulator sim(1, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::X);
    sim.execute(op(OpType::H, 0));
    EXPECT_FALSE(sim.xFrame(0));
    EXPECT_TRUE(sim.zFrame(0));
    sim.execute(op(OpType::H, 0));
    EXPECT_TRUE(sim.xFrame(0));
    EXPECT_FALSE(sim.zFrame(0));
}

TEST(FrameSim, SwapViaThreeCnotsExchangesFrames)
{
    FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::Y);
    sim.execute(op(OpType::Cnot, 0, 1));
    sim.execute(op(OpType::Cnot, 1, 0));
    sim.execute(op(OpType::Cnot, 0, 1));
    EXPECT_FALSE(sim.xFrame(0));
    EXPECT_FALSE(sim.zFrame(0));
    EXPECT_TRUE(sim.xFrame(1));
    EXPECT_TRUE(sim.zFrame(1));
}

TEST(FrameSim, MovIntoResetQubit)
{
    // CNOT(p, d); CNOT(d, p) moves p's state into freshly reset d.
    FrameSimulator sim(2, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::Y);   // qubit 0 plays the parity role
    sim.execute(op(OpType::Reset, 1));
    sim.execute(op(OpType::Cnot, 0, 1));
    sim.execute(op(OpType::Cnot, 1, 0));
    EXPECT_TRUE(sim.xFrame(1));
    EXPECT_TRUE(sim.zFrame(1));
    EXPECT_FALSE(sim.xFrame(0));
    // A Z frame on |0> is unobservable; X must be clear.
}

TEST(FrameSim, MeasureReportsXFrame)
{
    FrameSimulator sim(1, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::X);
    sim.execute(op(OpType::Measure, 0));
    sim.injectPauli(0, Pauli::Z);
    sim.execute(op(OpType::Measure, 0));
    ASSERT_EQ(sim.record().size(), 2u);
    EXPECT_TRUE(sim.record()[0].flip);
    EXPECT_TRUE(sim.record()[1].flip);   // X still set; Z invisible
}

TEST(FrameSim, MeasureXReportsZFrame)
{
    FrameSimulator sim(1, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::Z);
    sim.execute(op(OpType::MeasureX, 0));
    EXPECT_TRUE(sim.record()[0].flip);
}

TEST(FrameSim, ResetClearsEverything)
{
    FrameSimulator sim(1, ErrorModel::noiseless(), Rng(1));
    sim.injectPauli(0, Pauli::Y);
    sim.setLeaked(0, true);
    sim.execute(op(OpType::Reset, 0));
    EXPECT_FALSE(sim.xFrame(0));
    EXPECT_FALSE(sim.zFrame(0));
    EXPECT_FALSE(sim.leaked(0));
}

class NoiselessSweep
    : public ::testing::TestWithParam<std::tuple<int, int, Basis>>
{
};

TEST_P(NoiselessSweep, AllOutcomesDeterministic)
{
    const auto [d, rounds, basis] = GetParam();
    RotatedSurfaceCode code(d);
    const CircuitProgram prog = surfaceProgram(code, rounds, basis);
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(99));
    sim.run(prog.baseOps());
    for (const auto &rec : sim.record())
        ASSERT_FALSE(rec.flip);
    ShotOutcome outcome =
        extractDefects(prog.detectors, rounds, sim.record());
    EXPECT_TRUE(outcome.defects.empty());
    EXPECT_FALSE(outcome.observableFlip);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NoiselessSweep,
    ::testing::Combine(::testing::Values(3, 5, 7),
                       ::testing::Values(1, 2, 5, 9),
                       ::testing::Values(Basis::Z, Basis::X)));

TEST(FrameSim, SingleDataXProducesAdjacentZDefects)
{
    RotatedSurfaceCode code(5);
    const int rounds = 4;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(7));

    // Execute round 0, inject X on a bulk data qubit, run the rest.
    const int q = code.dataId(2, 2);
    sim.reset();
    const size_t round1 = roundStart(ops, 1);
    sim.executeRange(ops.data(), ops.data() + round1);
    sim.injectPauli(q, Pauli::X);
    sim.executeRange(ops.data() + round1, ops.data() + ops.size());

    ShotOutcome outcome =
        extractDefects(prog.detectors, rounds, sim.record());

    // Expected: one defect per adjacent Z stabilizer, in round 1.
    std::vector<int> expected;
    const int n_s = code.numZStabilizers();
    for (int s : code.stabilizersOfData(q)) {
        if (code.stabilizer(s).type == StabType::Z)
            expected.push_back(1 * n_s + code.stabilizer(s).basisIndex);
    }
    std::sort(expected.begin(), expected.end());
    auto defects = outcome.defects;
    std::sort(defects.begin(), defects.end());
    EXPECT_EQ(defects, expected);
    EXPECT_EQ(expected.size(), 2u);
}

TEST(FrameSim, LogicalSupportErrorFlipsObservable)
{
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(7));
    const int q = code.logicalZSupport()[0];

    sim.reset();
    const size_t round1 = roundStart(ops, 1);
    sim.executeRange(ops.data(), ops.data() + round1);
    sim.injectPauli(q, Pauli::X);
    sim.executeRange(ops.data() + round1, ops.data() + ops.size());
    ShotOutcome outcome =
        extractDefects(prog.detectors, rounds, sim.record());
    EXPECT_TRUE(outcome.observableFlip);
}

TEST(FrameSim, DataZErrorInvisibleToZChecks)
{
    RotatedSurfaceCode code(3);
    const int rounds = 3;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(7));
    sim.reset();
    const size_t round1 = roundStart(ops, 1);
    sim.executeRange(ops.data(), ops.data() + round1);
    sim.injectPauli(code.dataId(1, 1), Pauli::Z);
    sim.executeRange(ops.data() + round1, ops.data() + ops.size());
    ShotOutcome outcome =
        extractDefects(prog.detectors, rounds, sim.record());
    EXPECT_TRUE(outcome.defects.empty());
    EXPECT_FALSE(outcome.observableFlip);
}

TEST(FrameSim, LeakedMeasurementIsRandom)
{
    ErrorModel em = ErrorModel::noiseless();
    FrameSimulator sim(1, em, Rng(5));
    sim.setLeaked(0, true);
    int flips = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        sim.execute(op(OpType::Measure, 0));
        flips += sim.record().back().flip ? 1 : 0;
    }
    EXPECT_NEAR(flips, n / 2, 5 * std::sqrt(n / 4.0));
}

TEST(FrameSim, MultiLevelLabelFlagsLeakage)
{
    ErrorModel em = ErrorModel::standard(1e-3);
    FrameSimulator sim(1, em, Rng(5));
    // Leaked qubit: labelled |L> except at the 10p miss rate.
    sim.setLeaked(0, true);
    int labels = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sim.execute(op(OpType::Measure, 0));
        labels += sim.record().back().leakedLabel ? 1 : 0;
        sim.setLeaked(0, true);   // measurement does not clear leakage
    }
    const double miss = em.multiLevelMissProb();
    EXPECT_NEAR(labels, n * (1 - miss),
                5 * std::sqrt(n * miss * (1 - miss)) + 5);
}

TEST(FrameSim, UnleakedNeverLabeledLeaked)
{
    ErrorModel em = ErrorModel::standard(1e-3);
    FrameSimulator sim(1, em, Rng(5));
    for (int i = 0; i < 5000; ++i) {
        sim.execute(op(OpType::Measure, 0));
        ASSERT_FALSE(sim.record().back().leakedLabel);
    }
}

TEST(FrameSim, ConservativeTransportGrowsLeakage)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    int transported = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(2, em, Rng(1000 + i));
        sim.setLeaked(0, true);
        sim.execute(op(OpType::Cnot, 0, 1));
        EXPECT_TRUE(sim.leaked(0));   // source always stays leaked
        transported += sim.leaked(1) ? 1 : 0;
    }
    EXPECT_NEAR(transported, n * 0.1, 5 * std::sqrt(n * 0.1 * 0.9));
}

TEST(FrameSim, ExchangeTransportPreservesLeakageCount)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    em.transport = TransportModel::Exchange;
    int transported = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(2, em, Rng(2000 + i));
        sim.setLeaked(0, true);
        sim.execute(op(OpType::Cnot, 0, 1));
        const int leaked =
            (sim.leaked(0) ? 1 : 0) + (sim.leaked(1) ? 1 : 0);
        ASSERT_EQ(leaked, 1);   // exchange never duplicates leakage
        transported += sim.leaked(1) ? 1 : 0;
    }
    EXPECT_NEAR(transported, n * 0.1, 5 * std::sqrt(n * 0.1 * 0.9));
}

TEST(FrameSim, LeakedCnotRandomizesPartner)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    int x_flips = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(2, em, Rng(3000 + i));
        sim.setLeaked(0, true);
        sim.execute(op(OpType::Cnot, 0, 1));
        x_flips += sim.xFrame(1) ? 1 : 0;
    }
    // Uniform Pauli: X or Y set the X frame -> rate 1/2.
    EXPECT_NEAR(x_flips, n / 2, 5 * std::sqrt(n / 4.0));
}

TEST(FrameSim, BothLeakedCnotIsInert)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    FrameSimulator sim(2, em, Rng(5));
    sim.setLeaked(0, true);
    sim.setLeaked(1, true);
    sim.execute(op(OpType::Cnot, 0, 1));
    EXPECT_TRUE(sim.leaked(0));
    EXPECT_TRUE(sim.leaked(1));
    EXPECT_FALSE(sim.xFrame(0) || sim.xFrame(1));
}

TEST(FrameSim, SeepageReturnsQubit)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.p = 1.0;             // seepage prob = seepFraction * p = 0.1
    em.leakFraction = 0.0;  // no fresh injection
    int returned = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(1, em, Rng(4000 + i));
        sim.setLeaked(0, true);
        Op noise = op(OpType::DataNoise, 0);
        sim.execute(noise);
        returned += sim.leaked(0) ? 0 : 1;
    }
    EXPECT_NEAR(returned, n * 0.1, 5 * std::sqrt(n * 0.1 * 0.9));
}

TEST(FrameSim, RoundStartInjectionRate)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.p = 1e-1;   // injection = 0.1 * p = 1e-2 for a fast test
    int leaked = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(1, em, Rng(5000 + i));
        sim.execute(op(OpType::DataNoise, 0));
        leaked += sim.leaked(0) ? 1 : 0;
    }
    EXPECT_NEAR(leaked, n * 0.01, 5 * std::sqrt(n * 0.01 * 0.99));
}

TEST(FrameSim, LrcRemovesDataLeakage)
{
    // A leaked data qubit that undergoes an LRC is clean afterwards
    // (its leakage cannot ride through the SWAP; the reset clears it).
    RotatedSurfaceCode code(3);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    const int q = code.dataId(1, 1);
    const int stab = code.stabilizersOfData(q).front();

    FrameSimulator sim(code.numQubits(), em, Rng(6));
    sim.setLeaked(q, true);
    RoundSchedule round = buildRoundSchedule(code, 0, {{q, stab}});
    sim.executeRange(round.ops.data(),
                     round.ops.data() + round.ops.size());
    EXPECT_FALSE(sim.leaked(q));
}

TEST(FrameSim, LrcCanTransportLeakageToParity)
{
    RotatedSurfaceCode code(3);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    const int q = code.dataId(1, 1);
    const int stab = code.stabilizersOfData(q).front();
    const int parity = code.stabilizer(stab).ancilla;

    int parity_leaked = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        FrameSimulator sim(code.numQubits(), em, Rng(7000 + i));
        sim.setLeaked(q, true);
        RoundSchedule round = buildRoundSchedule(code, 0, {{q, stab}});
        sim.executeRange(round.ops.data(),
                         round.ops.data() + round.ops.size());
        parity_leaked += sim.leaked(parity) ? 1 : 0;
    }
    // Four P-D CNOTs before the reset at 10% each: ~34% (Eq. 2's
    // transport term).
    EXPECT_GT(parity_leaked, (int)(n * 0.25));
    EXPECT_LT(parity_leaked, (int)(n * 0.45));
}

TEST(FrameSim, PlainRoundRemovesParityLeakage)
{
    RotatedSurfaceCode code(3);
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    const int parity = code.stabilizer(0).ancilla;

    FrameSimulator sim(code.numQubits(), em, Rng(8));
    sim.setLeaked(parity, true);
    RoundSchedule round = buildRoundSchedule(code, 0, {});
    sim.executeRange(round.ops.data(),
                     round.ops.data() + round.ops.size());
    EXPECT_FALSE(sim.leaked(parity));
}

TEST(FrameSim, DqlrMovesLeakageOffDataQubit)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    FrameSimulator sim(2, em, Rng(9));
    sim.setLeaked(0, true);
    sim.execute(op(OpType::LeakageIswap, 0, 1));
    EXPECT_FALSE(sim.leaked(0));
    EXPECT_TRUE(sim.leaked(1));
    sim.execute(op(OpType::Reset, 1));
    EXPECT_FALSE(sim.leaked(1));
}

TEST(FrameSim, DqlrResetFailureCanExciteData)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.dqlrExciteProb = 1.0;
    FrameSimulator sim(2, em, Rng(10));
    sim.injectPauli(1, Pauli::X);   // failed reset: parity in |1>
    sim.execute(op(OpType::LeakageIswap, 0, 1));
    EXPECT_TRUE(sim.leaked(0));
}

TEST(FrameSim, DqlrCleanOperandsInert)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    FrameSimulator sim(2, em, Rng(11));
    sim.execute(op(OpType::LeakageIswap, 0, 1));
    EXPECT_FALSE(sim.leaked(0));
    EXPECT_FALSE(sim.leaked(1));
}

TEST(FrameSim, CountLeakedRanges)
{
    FrameSimulator sim(10, ErrorModel::noiseless(), Rng(12));
    sim.setLeaked(2, true);
    sim.setLeaked(7, true);
    EXPECT_EQ(sim.countLeaked(0, 10), 2);
    EXPECT_EQ(sim.countLeaked(0, 5), 1);
    EXPECT_EQ(sim.countLeaked(5, 10), 1);
}

} // namespace
} // namespace qec
