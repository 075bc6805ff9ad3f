/**
 * @file
 * Batch engine tests, in three tiers:
 *
 *  1. BernoulliMaskSampler: both sampling strategies hit their target
 *     rates and respect lane bounds, and the precomputed-digit dense
 *     walk reproduces the redoubling reference word for word.
 *  2. BatchFrameSimulator word semantics: masked propagation truth
 *     tables and per-lane leakage statistics at W=64.
 *  3. Differential: the experiment driver reproduces golden tables
 *     draw for draw — at width 1 a table recorded from the retired
 *     per-shot lattice driver (the FrameSimulator is the W=1
 *     reference implementation), at W = 64/256/512 tables recorded
 *     from compiled-program replay while the retired pre-IR round
 *     driver still agreed with it — and at W=64 it agrees with the
 *     W=1 stream statistically on LER and LPR.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "code/circuit_ir.h"
#include "decoder/sparse_syndrome.h"
#include "exp/memory_experiment.h"
#include "sim/batch_frame_simulator.h"
#include "sim/bit_mask_sampler.h"

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

int
pop(uint64_t w)
{
    return __builtin_popcountll(w);
}

// ------------------------------------------------------------- sampler

TEST(MaskSampler, RareRateMatches)
{
    Rng rng(7);
    BernoulliMaskSampler sampler(&rng);
    const double p = 0.005;   // rare path (geometric skipping)
    ASSERT_LT(p, BernoulliMaskSampler::kRareThreshold);
    int64_t hits = 0;
    const int64_t draws = 20000;
    for (int64_t i = 0; i < draws; ++i)
        hits += pop(sampler.draw(p, 64));
    const double mean = (double)draws * 64 * p;
    EXPECT_NEAR((double)hits, mean, 5 * std::sqrt(mean));
}

TEST(MaskSampler, DenseRateMatches)
{
    Rng rng(8);
    BernoulliMaskSampler sampler(&rng);
    const double p = 0.3;     // dense path (digit comparison)
    int64_t hits = 0;
    const int64_t draws = 4000;
    for (int64_t i = 0; i < draws; ++i)
        hits += pop(sampler.draw(p, 64));
    const double mean = (double)draws * 64 * p;
    EXPECT_NEAR((double)hits, mean, 5 * std::sqrt(mean * (1 - p)));
}

TEST(MaskSampler, RespectsLaneBounds)
{
    Rng rng(9);
    BernoulliMaskSampler sampler(&rng);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(sampler.draw(0.004, 10) & ~laneMask(10), 0u);
        EXPECT_EQ(sampler.draw(0.6, 10) & ~laneMask(10), 0u);
    }
    EXPECT_EQ(sampler.draw(0.0, 64), 0u);
    EXPECT_EQ(sampler.draw(1.0, 64), ~uint64_t{0});
    EXPECT_EQ(sampler.draw(1.0, 7), laneMask(7));
}

/** The dense digit walk as it was first written: redouble a double
 *  per RNG word. Kept here as the reference the precomputed-digit
 *  walk must reproduce word for word. */
uint64_t
referenceDenseMask(Rng &rng, double p, int nlanes)
{
    uint64_t lt = 0;
    uint64_t eq = laneMask(nlanes);
    double frac = p;
    for (int i = 0; i < 64 && eq != 0; ++i) {
        frac *= 2.0;
        const bool digit = frac >= 1.0;
        if (digit)
            frac -= 1.0;
        const uint64_t w = rng.next();
        if (digit) {
            lt |= eq & ~w;
            eq &= w;
        } else {
            eq &= ~w;
        }
        if (frac <= 0.0)
            break;
    }
    return lt;
}

TEST(MaskSampler, DenseDigitsMatchReferenceLoop)
{
    const double ps[] = {0.02, 0.1,  0.25, 0.375,
                         0.5,  0.75, 1.0 - 0x1.0p-53};
    for (double p : ps) {
        const BernoulliDigits digits = bernoulliDigits(p);
        for (int nlanes : {1, 37, 64}) {
            Rng ref(1000 + nlanes), viaP(1000 + nlanes),
                viaDigits(1000 + nlanes);
            for (int i = 0; i < 500; ++i) {
                const uint64_t want = referenceDenseMask(ref, p, nlanes);
                ASSERT_EQ(bernoulliDenseMask(viaP, p, nlanes), want)
                    << "p=" << p << " nlanes=" << nlanes << " i=" << i;
                ASSERT_EQ(bernoulliDenseMask(viaDigits, digits, nlanes),
                          want)
                    << "p=" << p << " nlanes=" << nlanes << " i=" << i;
                // Equal next words pin the RNG consumption too.
                const uint64_t next = ref.next();
                ASSERT_EQ(viaP.next(), next) << "p=" << p;
                ASSERT_EQ(viaDigits.next(), next) << "p=" << p;
            }
        }
    }
}

// ------------------------------------------------- word-level semantics

TEST(BatchSim, MaskedCnotPropagatesPerLane)
{
    BatchFrameSimulator sim(2, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = 0x00000000FFFFFFFFull;
    const uint64_t gate = 0x0000FFFFFFFF0000ull;
    sim.injectPauli(0, Pauli::X, injected);
    sim.execute(op(OpType::Cnot, 0, 1), gate);
    EXPECT_EQ(sim.xWord(0), injected);
    EXPECT_EQ(sim.xWord(1), injected & gate);
}

TEST(BatchSim, MaskedCnotPropagatesZBackwardPerLane)
{
    BatchFrameSimulator sim(2, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = 0xF0F0F0F0F0F0F0F0ull;
    const uint64_t gate = 0xFF00FF00FF00FF00ull;
    sim.injectPauli(1, Pauli::Z, injected);
    sim.execute(op(OpType::Cnot, 0, 1), gate);
    EXPECT_EQ(sim.zWord(1), injected);
    EXPECT_EQ(sim.zWord(0), injected & gate);
}

TEST(BatchSim, HadamardSwapsPlanesOnMaskedLanes)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = ~uint64_t{0};
    const uint64_t gate = 0x123456789ABCDEF0ull;
    sim.injectPauli(0, Pauli::X, injected);
    sim.execute(op(OpType::H, 0), gate);
    EXPECT_EQ(sim.xWord(0), ~gate);
    EXPECT_EQ(sim.zWord(0), gate);
}

TEST(BatchSim, MaskedResetClearsOnlyMaskedLanes)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 1, 0);
    sim.injectPauli(0, Pauli::Y, ~uint64_t{0});
    sim.setLeaked(0, true, ~uint64_t{0});
    const uint64_t gate = 0x00FF00FF00FF00FFull;
    sim.execute(op(OpType::Reset, 0), gate);
    EXPECT_EQ(sim.xWord(0), ~gate);
    EXPECT_EQ(sim.zWord(0), ~gate);
    EXPECT_EQ(sim.leakedWord(0), ~gate);
}

TEST(BatchSim, LeakedLanesBlockPropagation)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    BatchFrameSimulator sim(2, em, 64, 1, 0);
    const uint64_t both_leaked = 0xFFFF000000000000ull;
    sim.setLeaked(0, true, both_leaked);
    sim.setLeaked(1, true, both_leaked);
    sim.injectPauli(0, Pauli::X, ~uint64_t{0});
    sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
    // Lanes with both operands leaked see no frame action at all.
    EXPECT_EQ(sim.xWord(1) & both_leaked, 0u);
    EXPECT_EQ(sim.xWord(1) & ~both_leaked, ~both_leaked);
}

TEST(BatchSim, ConservativeTransportGrowsLeakageAcrossLanes)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    int64_t transported = 0;
    const int iterations = 400;
    for (int i = 0; i < iterations; ++i) {
        BatchFrameSimulator sim(2, em, 64, 1000 + i, 0);
        sim.setLeaked(0, true, ~uint64_t{0});
        sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
        EXPECT_EQ(sim.leakedWord(0), ~uint64_t{0});
        transported += pop(sim.leakedWord(1));
    }
    const double n = 64.0 * iterations;
    EXPECT_NEAR((double)transported, n * 0.1,
                5 * std::sqrt(n * 0.1 * 0.9));
}

TEST(BatchSim, ExchangeTransportPreservesLeakageCount)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    em.transport = TransportModel::Exchange;
    for (int i = 0; i < 200; ++i) {
        BatchFrameSimulator sim(2, em, 64, 2000 + i, 0);
        sim.setLeaked(0, true, ~uint64_t{0});
        sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
        // Exchange never duplicates leakage: exactly one of the two
        // operands is leaked in every lane.
        EXPECT_EQ(sim.leakedWord(0) ^ sim.leakedWord(1), ~uint64_t{0});
    }
}

/**
 * A DQLR iSWAP with the parity qubit in |1> excites the data qubit to
 * |L> with dqlrExciteProb on every such lane: the excitable lanes make
 * their blocks draw, so no block may take the draw-free path for them.
 */
TEST(BatchSim, DqlrIswapExcitesDataOnParityOneLanes)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    ASSERT_EQ(em.dqlrExciteProb, 0.5);
    BatchFrameSimulatorT<4> sim(2, em, 256, 17, 0);
    WordVec<4> one{};
    for (int b = 0; b < 4; ++b)
        laneWordRef(one, b) = 0x00FFFF0000FFFF00ull;
    sim.injectPauli(1, Pauli::X, one);
    sim.execute(op(OpType::LeakageIswap, 0, 1), sim.liveMask());
    const WordVec<4> excited = sim.leakedWord(0);
    EXPECT_FALSE(anyLane(andnot(excited, one)));
    const double n = (double)popcountLanes(one);
    EXPECT_NEAR((double)popcountLanes(excited), n / 2,
                5 * std::sqrt(n / 4));
}

TEST(BatchSim, LeakedMeasurementIsRandomPerLane)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 5, 0);
    sim.setLeaked(0, true, ~uint64_t{0});
    int64_t flips = 0;
    const int iterations = 400;
    for (int i = 0; i < iterations; ++i) {
        sim.execute(op(OpType::Measure, 0), ~uint64_t{0});
        flips += pop(sim.record().back().flips);
    }
    const double n = 64.0 * iterations;
    EXPECT_NEAR((double)flips, n / 2, 5 * std::sqrt(n / 4));
}

TEST(BatchSim, MultiLevelLabelsFlagLeakedLanes)
{
    ErrorModel em = ErrorModel::standard(1e-3);
    BatchFrameSimulator sim(1, em, 64, 5, 0);
    const uint64_t leaked = 0xFFFFFFFF00000000ull;
    int64_t labels = 0, clean_labels = 0;
    const int iterations = 600;
    for (int i = 0; i < iterations; ++i) {
        sim.setLeaked(0, true, leaked);
        sim.setLeaked(0, false, ~leaked);
        sim.execute(op(OpType::Measure, 0), ~uint64_t{0});
        labels += pop(sim.record().back().leakedLabels & leaked);
        clean_labels += pop(sim.record().back().leakedLabels & ~leaked);
    }
    EXPECT_EQ(clean_labels, 0);
    const double n = 32.0 * iterations;
    const double miss = em.multiLevelMissProb();
    EXPECT_NEAR((double)labels, n * (1 - miss),
                5 * std::sqrt(n * miss * (1 - miss)) + 5);
}

TEST(BatchSim, NoiselessMemoryCircuitIsDeterministicAtW64)
{
    RotatedSurfaceCode code(3);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 4, Basis::Z, IrTailKind::SwapLrc);
    const std::vector<Op> ops = prog.baseOps();
    BatchFrameSimulator sim(code.numQubits(),
                            ErrorModel::noiseless(), 64, 99, 0);
    sim.executeRange(ops.data(), ops.data() + ops.size());
    for (const auto &rec : sim.record())
        ASSERT_EQ(rec.flips, 0u);
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    extractor.extract(prog.detectors, 4, sim.record(), 64, syndrome);
    ASSERT_EQ(syndrome.numLanes, 64);
    EXPECT_TRUE(syndrome.defects.empty());
    EXPECT_EQ(syndrome.nonzeroWords[0], 0u);
    EXPECT_EQ(syndrome.observableWords[0], 0u);
}

// ------------------------------------------------------ golden runs

ExperimentConfig
diffConfig(RemovalProtocol protocol)
{
    ExperimentConfig cfg;
    cfg.rounds = 8;
    cfg.shots = 200;
    cfg.seed = 4242;
    cfg.em = ErrorModel::standard(5e-3);
    cfg.protocol = protocol;
    cfg.trackLpr = true;
    cfg.batchWidth = 1;
    return cfg;
}

/** Order-sensitive FNV-1a digest of the per-round LPR sums (data
 *  then parity per round; the sums are integer-valued counts). */
uint64_t
lprDigest(const ExperimentResult &r)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(r.lprDataSum.size());
    for (size_t i = 0; i < r.lprDataSum.size(); ++i) {
        mix((uint64_t)r.lprDataSum[i]);
        mix((uint64_t)r.lprParitySum[i]);
    }
    return h;
}

/** One pinned run: its policy, every counter it reports and the
 *  engine width it runs at. */
struct GoldenRun
{
    PolicyKind kind;
    uint64_t logicalErrors, tp, fp, tn, fn, lrcsScheduled;
    uint64_t verdictFingerprint, lprDigest;
    unsigned width = 1;
};

// Recorded from the per-shot lattice driver (one FrameSimulator per
// shot executing QecScheduleGenerator rounds and the ERASER+M
// in-round squash itself), on diffConfig at d=3, before that driver
// was retired. The W=1 word-group driver must keep reproducing it.
const GoldenRun kGoldenSwapLrc[] = {
    {PolicyKind::Never, 16, 0, 0, 14318, 82, 0,
     0x1cc922d7440b3ec6ull, 0x56253bb26498e6d9ull},
    {PolicyKind::Always, 33, 19, 6381, 7988, 12, 6400,
     0xe02e7c59eae90ee1ull, 0xe08ed1d9e004422dull},
    {PolicyKind::Eraser, 19, 17, 344, 14015, 24, 361,
     0xa3944172878a733dull, 0xa694f3d8f187ac48ull},
    {PolicyKind::EraserM, 20, 18, 377, 13984, 21, 395,
     0x1d9ade9922ba0e3dull, 0x618a8d093d5d6caaull},
    {PolicyKind::Optimal, 17, 25, 0, 14375, 0, 25,
     0x9f3fb62d40852960ull, 0x37ce164e1fd4ff8cull},
};
// DQLR with exchange transport.
const GoldenRun kGoldenDqlr[] = {
    {PolicyKind::Always, 26, 35, 12765, 1593, 7, 12800,
     0xa513150995e0dac4ull, 0x6f1ea4cca5fd3ac7ull},
    {PolicyKind::Eraser, 20, 11, 339, 14031, 19, 350,
     0x6c87a92bd471674dull, 0x3cdda8cb11bb370bull},
    {PolicyKind::EraserM, 19, 12, 368, 14000, 20, 380,
     0x14c680074f3a2416ull, 0xf93cb1166089fecbull},
    {PolicyKind::Optimal, 17, 20, 0, 14380, 0, 20,
     0x112f4984873e8f3full, 0xa839c29cada42d0eull},
};
// Memory-X, SwapLrc.
const GoldenRun kGoldenMemoryX = {
    PolicyKind::Eraser, 13, 17, 349, 14010, 24, 366,
    0xabd982c2cedecdd2ull, 0x488b8d4caac64346ull};

/** Every counter `golden` pins, checked on one run's result. */
void
expectMatchesGolden(const ExperimentResult &r, const GoldenRun &golden,
                    const std::string &what)
{
    EXPECT_EQ(r.logicalErrors, golden.logicalErrors) << what;
    EXPECT_EQ(r.tp, golden.tp) << what;
    EXPECT_EQ(r.fp, golden.fp) << what;
    EXPECT_EQ(r.tn, golden.tn) << what;
    EXPECT_EQ(r.fn, golden.fn) << what;
    EXPECT_EQ(r.lrcsScheduled, golden.lrcsScheduled) << what;
    EXPECT_EQ(r.verdictFingerprint, golden.verdictFingerprint) << what;
    EXPECT_EQ(lprDigest(r), golden.lprDigest) << what;
}

void
expectGolden(int distance, ExperimentConfig cfg, const GoldenRun &golden)
{
    cfg.batchWidth = golden.width;
    RotatedSurfaceCode code(distance);
    MemoryExperiment exp(code, cfg);
    const ExperimentResult r = exp.run(golden.kind);
    const std::string what =
        policyKindName(golden.kind,
                       cfg.protocol == RemovalProtocol::Dqlr) +
        " W=" + std::to_string(golden.width);
    EXPECT_EQ(r.shots, cfg.shots) << what;
    expectMatchesGolden(r, golden, what);
}

TEST(BatchDifferential, Width1MatchesGoldenSwapLrc)
{
    for (const GoldenRun &golden : kGoldenSwapLrc)
        expectGolden(3, diffConfig(RemovalProtocol::SwapLrc), golden);
}

TEST(BatchDifferential, Width1MatchesGoldenDqlr)
{
    auto cfg = diffConfig(RemovalProtocol::Dqlr);
    cfg.em.transport = TransportModel::Exchange;
    for (const GoldenRun &golden : kGoldenDqlr)
        expectGolden(3, cfg, golden);
}

TEST(BatchDifferential, Width1MatchesGoldenMemoryX)
{
    auto cfg = diffConfig(RemovalProtocol::SwapLrc);
    cfg.basis = Basis::X;
    expectGolden(3, cfg, kGoldenMemoryX);
}

/** The compiled-program replay config: 161 shots give full groups
 *  plus a ragged tail at every width, and multi-block ragged groups
 *  at 256/512. */
ExperimentConfig
replayConfig(RemovalProtocol protocol, Basis basis)
{
    ExperimentConfig cfg;
    cfg.rounds = 12;
    cfg.basis = basis;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.protocol = protocol;
    cfg.shots = 161;
    cfg.seed = 77;
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;
    cfg.threads = 1;
    return cfg;
}

// Recorded from compiled-program replay on replayConfig at d=5, at the
// last commit that still carried the pre-IR round driver (an
// imperative word-group loop over the same single-block op bodies);
// on every row, and on X-basis ERASER/ERASER+M at W=64 too, the two
// agreed on every field below and on the full per-round LPR series.
// A fault in an op body both drivers shared moved both sides of that
// differential alike; it moves these rows. A mismatch means replay
// moved: never re-baseline it to make it pass.
//
// The ERASER controller drives divergent LRC-slot tails at every width;
// ERASER+M takes the multi-level squash branch; Optimal is the PerLane
// scatter fallback, Always the lane-uniform schedule, Never the empty
// branch.
const GoldenRun kGoldenReplaySwapLrc[] = {
    {PolicyKind::Eraser, 5, 33, 769, 47446, 52, 802,
     0x94db42c8a420e9c8ull, 0x38ae6176b7c11e4cull, 64},
    {PolicyKind::Eraser, 5, 33, 769, 47446, 52, 802,
     0x94db42c8a420e9c8ull, 0x38ae6176b7c11e4cull, 256},
    {PolicyKind::Eraser, 5, 33, 769, 47446, 52, 802,
     0x94db42c8a420e9c8ull, 0x38ae6176b7c11e4cull, 512},
    {PolicyKind::EraserM, 4, 36, 803, 47428, 33, 839,
     0x09a81993f66de9fbull, 0x8272547945f1bbc1ull, 256},
    {PolicyKind::Optimal, 1, 50, 0, 48250, 0, 50,
     0xd1bed6c3f18e17deull, 0x60bd0becb241c5c9ull, 256},
    {PolicyKind::Always, 7, 56, 23128, 25099, 17, 23184,
     0x77df337a9f0fcaafull, 0x432b31e008c550fdull, 256},
    {PolicyKind::Never, 3, 0, 0, 48014, 286, 0,
     0x6f368e2313504c5cull, 0x9492f4afd82dbc26ull, 256},
};
const GoldenRun kGoldenReplayDqlr[] = {
    {PolicyKind::Eraser, 2, 37, 758, 47456, 49, 795,
     0xbf7ca48ea08f9d18ull, 0x3acb71f7cb628ac8ull, 64},
    {PolicyKind::Eraser, 2, 37, 758, 47456, 49, 795,
     0xbf7ca48ea08f9d18ull, 0x3acb71f7cb628ac8ull, 256},
    {PolicyKind::Eraser, 2, 37, 758, 47456, 49, 795,
     0xbf7ca48ea08f9d18ull, 0x3acb71f7cb628ac8ull, 512},
};
// Memory-X.
const GoldenRun kGoldenReplaySwapLrcX[] = {
    {PolicyKind::Eraser, 5, 41, 725, 47469, 65, 766,
     0xb481eb393140b44full, 0x420634d9bbc50737ull, 256},
    {PolicyKind::Eraser, 5, 41, 725, 47469, 65, 766,
     0xb481eb393140b44full, 0x420634d9bbc50737ull, 512},
    {PolicyKind::EraserM, 1, 27, 728, 47506, 39, 755,
     0x260bdf8f74f1254dull, 0x551e1e4d9574f966ull, 256},
    {PolicyKind::EraserM, 1, 27, 728, 47506, 39, 755,
     0x260bdf8f74f1254dull, 0x551e1e4d9574f966ull, 512},
};
const GoldenRun kGoldenReplayDqlrX[] = {
    {PolicyKind::Eraser, 5, 32, 731, 47485, 52, 763,
     0xe5de7fe443739655ull, 0xc403163ec962a583ull, 256},
    {PolicyKind::Eraser, 5, 32, 731, 47485, 52, 763,
     0xe5de7fe443739655ull, 0xc403163ec962a583ull, 512},
    {PolicyKind::EraserM, 5, 33, 786, 47458, 23, 819,
     0x9e73443afda2a35cull, 0xb08a30cee8b70d0dull, 256},
    {PolicyKind::EraserM, 5, 33, 786, 47458, 23, 819,
     0x9e73443afda2a35cull, 0xb08a30cee8b70d0dull, 512},
};

TEST(BatchDifferential, ReplayMatchesGoldenSwapLrc)
{
    for (const GoldenRun &golden : kGoldenReplaySwapLrc)
        expectGolden(5, replayConfig(RemovalProtocol::SwapLrc, Basis::Z),
                     golden);
}

TEST(BatchDifferential, ReplayMatchesGoldenDqlr)
{
    for (const GoldenRun &golden : kGoldenReplayDqlr)
        expectGolden(5, replayConfig(RemovalProtocol::Dqlr, Basis::Z),
                     golden);
}

TEST(BatchDifferential, ReplayMatchesGoldenMemoryX)
{
    for (const GoldenRun &golden : kGoldenReplaySwapLrcX)
        expectGolden(5, replayConfig(RemovalProtocol::SwapLrc, Basis::X),
                     golden);
    for (const GoldenRun &golden : kGoldenReplayDqlrX)
        expectGolden(5, replayConfig(RemovalProtocol::Dqlr, Basis::X),
                     golden);
}

// --------------------------------------------- statistical W=64 checks

TEST(BatchDifferential, W64LerAgreesWithScalar)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 4000;
    cfg.seed = 777;
    cfg.em = ErrorModel::standard(5e-3);
    MemoryExperiment exp(code, cfg);

    auto scalar = exp.run(PolicyKind::Eraser);

    cfg.batchWidth = 64;
    MemoryExperiment batched_exp(code, cfg);
    auto batched = batched_exp.run(PolicyKind::Eraser);

    ASSERT_GT(scalar.logicalErrors, 0u);
    ASSERT_GT(batched.logicalErrors, 0u);
    const double p_pool =
        (scalar.ler() + batched.ler()) / 2.0;
    const double sigma = std::sqrt(2.0 * p_pool * (1 - p_pool) /
                                   (double)cfg.shots);
    EXPECT_NEAR(scalar.ler(), batched.ler(), 5 * sigma);
}

TEST(BatchDifferential, W64LprAgreesWithScalar)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 8;
    cfg.shots = 10000;
    cfg.seed = 778;
    cfg.em = ErrorModel::standard(1e-2);
    cfg.decode = false;
    cfg.trackLpr = true;
    MemoryExperiment exp(code, cfg);

    auto scalar = exp.run(PolicyKind::Never);

    cfg.batchWidth = 64;
    MemoryExperiment batched_exp(code, cfg);
    auto batched = batched_exp.run(PolicyKind::Never);

    // Leakage accumulates without LRCs; the two engines must agree on
    // the whole population trace within sampling error.
    for (int r = 1; r < cfg.rounds; ++r) {
        const double a = scalar.lprData(r);
        const double b = batched.lprData(r);
        ASSERT_GT(a, 0.0);
        ASSERT_GT(b, 0.0);
        const double trials =
            (double)cfg.shots * code.numData();
        const double p_pool = (a + b) / 2.0;
        const double sigma =
            std::sqrt(2.0 * p_pool * (1 - p_pool) / trials);
        EXPECT_NEAR(a, b, 6 * sigma + 1e-9)
            << "round " << r;
    }
}

TEST(BatchDifferential, PartialWordGroupsCoverAllShots)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 53;   // 17-lane groups: 17 + 17 + 17 + 2
    cfg.seed = 31;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.batchWidth = 17;
    MemoryExperiment exp(code, cfg);
    auto result = exp.run(PolicyKind::Eraser);
    EXPECT_EQ(result.shots, cfg.shots);
    EXPECT_EQ(result.tp + result.fp + result.tn + result.fn,
              cfg.shots * (uint64_t)cfg.rounds *
                  (uint64_t)code.numData());
    EXPECT_EQ(result.tp + result.fp, result.lrcsScheduled);
}

// ------------------------------------ SIMD width matrix (W = 256/512)

/** Exact-equality check of two runs' full counter set. */
void
expectResultsIdentical(const ExperimentResult &a,
                       const ExperimentResult &b, const char *what)
{
    EXPECT_EQ(a.logicalErrors, b.logicalErrors) << what;
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint) << what;
    EXPECT_EQ(a.tp, b.tp) << what;
    EXPECT_EQ(a.fp, b.fp) << what;
    EXPECT_EQ(a.tn, b.tn) << what;
    EXPECT_EQ(a.fn, b.fn) << what;
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled) << what;
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size()) << what;
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        EXPECT_DOUBLE_EQ(a.lprDataSum[r], b.lprDataSum[r]) << what;
        EXPECT_DOUBLE_EQ(a.lprParitySum[r], b.lprParitySum[r]) << what;
    }
}

/**
 * W = 256 and W = 512 must reproduce the W = 64 run bit for bit:
 * every 64-lane block of a wide word-group carries the exact noise
 * streams of the standalone 64-lane group at the same first shot.
 * shots = 391 exercises ragged tail groups at every width.
 */
TEST(BatchDifferential, WideWidthsMatchWidth64Exactly)
{
    RotatedSurfaceCode code(3);
    for (RemovalProtocol protocol :
         {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr}) {
        for (PolicyKind kind :
             {PolicyKind::Always, PolicyKind::Eraser,
              PolicyKind::EraserM, PolicyKind::Optimal}) {
            ExperimentConfig cfg;
            cfg.rounds = 5;
            cfg.shots = 391;
            cfg.seed = 20260726;
            cfg.em = ErrorModel::standard(3e-3);
            cfg.protocol = protocol;
            cfg.trackLpr = true;

            cfg.batchWidth = 64;
            auto w64 = MemoryExperiment(code, cfg).run(kind);
            cfg.batchWidth = 256;
            auto w256 = MemoryExperiment(code, cfg).run(kind);
            cfg.batchWidth = 512;
            auto w512 = MemoryExperiment(code, cfg).run(kind);

            expectResultsIdentical(w64, w256, "W=256 vs W=64");
            expectResultsIdentical(w64, w512, "W=512 vs W=64");
        }
    }
}

// W=64 results of the aliased-channel matrix below, recorded before
// the 64-lane engine moved onto the block bodies that W=256/512 run,
// in loop order (error model, then protocol, then policy). Once every
// width sorts blocks with the same draw accounting, a miscounted
// stream moves all widths alike; it moves these rows.
const GoldenRun kGoldenAliased[] = {
    // leak == p, SwapLrc.
    {PolicyKind::Always, 37, 91, 9293, 11696, 34, 9384,
     0x4f418f69ed769c68ull, 0xa8699043ac7226a7ull, 64},
    {PolicyKind::Eraser, 17, 57, 245, 20645, 167, 302,
     0x8008312fb6cf0583ull, 0x488f6f9e4bd72640ull, 64},
    {PolicyKind::EraserM, 11, 59, 379, 20580, 96, 438,
     0xb7c9084872692013ull, 0x27b58c6e6ec1a462ull, 64},
    // leak == p, Dqlr.
    {PolicyKind::Always, 9, 24, 18744, 2340, 6, 18768,
     0xeebfc78e64ab7b7bull, 0x193cac989e0d6b89ull, 64},
    {PolicyKind::Eraser, 15, 43, 225, 20692, 154, 268,
     0x0c52faa250db9a2cull, 0x281f9b5d83a6936bull, 64},
    {PolicyKind::EraserM, 14, 65, 373, 20578, 98, 438,
     0x9e830ed593c9aecbull, 0xa988d07103aa9a37ull, 64},
    // own seepage p, SwapLrc.
    {PolicyKind::Always, 12, 14, 9370, 11723, 7, 9384,
     0xf45682e918cf3cd6ull, 0xafd208aaf4b7ba48ull, 64},
    {PolicyKind::Eraser, 6, 10, 171, 20910, 23, 181,
     0x2b5f66a4403c7146ull, 0x8207bb225bc0e549ull, 64},
    {PolicyKind::EraserM, 2, 12, 167, 20920, 15, 179,
     0xa762b9570e849394ull, 0xbaef256892d22022ull, 64},
    // own seepage p, Dqlr.
    {PolicyKind::Always, 7, 21, 18747, 2346, 0, 18768,
     0x9ee298f9e0395b26ull, 0x9c1d2175701b1c86ull, 64},
    {PolicyKind::Eraser, 2, 11, 139, 20945, 19, 150,
     0x0b936db49134c263ull, 0x7b795e0ef212b84full, 64},
    {PolicyKind::EraserM, 1, 11, 141, 20946, 16, 152,
     0x6fc72ee8df074b75ull, 0x9bbf09ebbad88a80ull, 64},
    // leakage off, SwapLrc.
    {PolicyKind::Always, 8, 0, 9384, 11730, 0, 9384,
     0x2e65696f0dfe2df1ull, 0x3ecfc674d23e6a03ull, 64},
    {PolicyKind::Eraser, 2, 0, 135, 20979, 0, 135,
     0x11ed807b671b9609ull, 0x3ecfc674d23e6a03ull, 64},
    {PolicyKind::EraserM, 2, 0, 135, 20979, 0, 135,
     0x11ed807b671b9609ull, 0x3ecfc674d23e6a03ull, 64},
    // leakage off, Dqlr.
    {PolicyKind::Always, 4, 0, 18768, 2346, 0, 18768,
     0xae7f0b7e5b5c9c67ull, 0x3ecfc674d23e6a03ull, 64},
    {PolicyKind::Eraser, 2, 0, 132, 20982, 0, 132,
     0xf94d90a1e735c0b4ull, 0x3ecfc674d23e6a03ull, 64},
    {PolicyKind::EraserM, 2, 0, 132, 20982, 0, 132,
     0xf94d90a1e735c0b4ull, 0x3ecfc674d23e6a03ull, 64},
    // dense miss, SwapLrc.
    {PolicyKind::Always, 12, 12, 9372, 11722, 8, 9384,
     0x9a629f77bbe5acc2ull, 0xc2961700a6b959c0ull, 64},
    {PolicyKind::Eraser, 4, 10, 138, 20945, 21, 148,
     0x205afaebed8a27c7ull, 0x102541ebfc458c4full, 64},
    {PolicyKind::EraserM, 5, 12, 166, 20921, 15, 178,
     0x443528276f287377ull, 0x347a627d6fd48b6eull, 64},
    // dense miss, Dqlr.
    {PolicyKind::Always, 5, 26, 18742, 2340, 6, 18768,
     0x60c7b09b21017d42ull, 0x353c284f4d7ea8caull, 64},
    {PolicyKind::Eraser, 5, 11, 186, 20899, 18, 197,
     0x5789714c43192839ull, 0x27ce4da657febe8cull, 64},
    {PolicyKind::EraserM, 5, 10, 195, 20897, 12, 205,
     0x677af0d8662fa3c7ull, 0x41a9885a49cdfa01ull, 64},
};

/**
 * The same pin on error models whose channels share or skip streams:
 * event-free blocks and clean tails subtract the p and leak streams'
 * pending skips in one step, so they must count draws per stream, not
 * per channel. Covers leak == p (one stream for both), seepage on its
 * own probability, leakage off, and a multi-level miss rate on the
 * dense path.
 */
TEST(BatchDifferential, WideWidthsMatchWidth64OnAliasedChannels)
{
    ErrorModel leak_is_p = ErrorModel::standard(1e-3);
    leak_is_p.leakFraction = 1.0;
    ErrorModel own_seep = ErrorModel::standard(2e-3);
    own_seep.seepFraction = 0.3;
    ErrorModel no_leak = ErrorModel::standard(2e-3);
    no_leak.leakageEnabled = false;
    ErrorModel dense_miss = ErrorModel::standard(2e-3);
    dense_miss.multiLevelErrMult = 20.0;
    ASSERT_EQ(leak_is_p.leakInjectProb(), leak_is_p.p);
    ASSERT_GE(dense_miss.multiLevelMissProb(),
              BernoulliMaskSampler::kRareThreshold);

    RotatedSurfaceCode code(3);
    const GoldenRun *golden = kGoldenAliased;
    for (const ErrorModel &em : {leak_is_p, own_seep, no_leak,
                                 dense_miss}) {
        for (RemovalProtocol protocol :
             {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr}) {
            for (PolicyKind kind : {PolicyKind::Always,
                                    PolicyKind::Eraser,
                                    PolicyKind::EraserM}) {
                ExperimentConfig cfg;
                cfg.rounds = 6;
                cfg.shots = 391;
                cfg.seed = 77;
                cfg.em = em;
                cfg.protocol = protocol;
                cfg.trackLpr = true;

                cfg.batchWidth = 64;
                auto w64 = MemoryExperiment(code, cfg).run(kind);
                cfg.batchWidth = 256;
                auto w256 = MemoryExperiment(code, cfg).run(kind);
                cfg.batchWidth = 512;
                auto w512 = MemoryExperiment(code, cfg).run(kind);

                const std::string what =
                    "aliased row " +
                    std::to_string(golden - kGoldenAliased);
                ASSERT_EQ(golden->kind, kind) << what;
                expectMatchesGolden(w64, *golden++, what);
                expectResultsIdentical(w64, w256, "W=256 vs W=64");
                expectResultsIdentical(w64, w512, "W=512 vs W=64");
            }
        }
    }
    EXPECT_EQ(golden, std::end(kGoldenAliased));
}

TEST(BatchDifferential, OneLaneTailGroupsMatchAcrossWidths)
{
    // shots = 257: the width-64 run ends with a 1-lane group (which
    // delegates to the scalar reference simulator); the width-256/512
    // runs must delegate their 1-lane tails identically, or the
    // cross-width bit-identity breaks exactly on the tail shot.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 257;
    cfg.seed = 99;
    cfg.em = ErrorModel::standard(5e-3);
    cfg.trackLpr = true;

    cfg.batchWidth = 64;
    auto w64 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 256;
    auto w256 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 512;
    auto w512 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    expectResultsIdentical(w64, w256, "1-lane tail W=256 vs W=64");
    expectResultsIdentical(w64, w512, "1-lane tail W=512 vs W=64");
}

TEST(BatchDifferential, WideWidthsMatchWidth64OnMemoryX)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 8;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.basis = Basis::X;
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;

    cfg.batchWidth = 64;
    auto w64 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 512;
    auto w512 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    expectResultsIdentical(w64, w512, "basis X W=512 vs W=64");
}

/**
 * Engine-level pin of the same property: a 256-lane simulator running
 * a memory circuit produces, block by block, the records of the four
 * 64-lane simulators at first shots 0/64/128/192.
 */
TEST(BatchSim, WideEngineMatchesBlockwise64LaneEngines)
{
    RotatedSurfaceCode code(3);
    const std::vector<Op> ops =
        CircuitCompiler::surfaceMemory(code, 5, Basis::Z,
                                       IrTailKind::SwapLrc)
            .baseOps();
    ErrorModel em = ErrorModel::standard(4e-3);

    BatchFrameSimulatorT<4> wide(code.numQubits(), em, 256, 321, 0);
    wide.executeRange(ops.data(), ops.data() + ops.size());

    for (int b = 0; b < 4; ++b) {
        BatchFrameSimulator narrow(code.numQubits(), em, 64, 321,
                                   64 * (uint64_t)b);
        narrow.executeRange(ops.data(), ops.data() + ops.size());
        ASSERT_EQ(wide.record().size(), narrow.record().size());
        for (size_t i = 0; i < narrow.record().size(); ++i) {
            const auto &w = wide.record()[i];
            const auto &n = narrow.record()[i];
            ASSERT_EQ(laneWord(w.mask, b), n.mask) << b << " " << i;
            ASSERT_EQ(laneWord(w.flips, b), n.flips) << b << " " << i;
            ASSERT_EQ(laneWord(w.leakedLabels, b), n.leakedLabels)
                << b << " " << i;
        }
        for (int q = 0; q < code.numQubits(); ++q) {
            ASSERT_EQ(laneWord(wide.xWord(q), b), narrow.xWord(q));
            ASSERT_EQ(laneWord(wide.zWord(q), b), narrow.zWord(q));
            ASSERT_EQ(laneWord(wide.leakedWord(q), b),
                      narrow.leakedWord(q));
        }
    }
}

/**
 * Dead-lane audit pin: a ragged word-group (100 live lanes in a
 * 256-lane-capable engine, second block only 36 lanes deep) must keep
 * every record word and every internal plane silent above the live
 * mask after a full noisy adaptive-shaped circuit — a stray dead-lane
 * bit here would leak phantom events, observations or LRCs into the
 * experiment layer's scatter loops.
 */
TEST(BatchSim, RaggedGroupKeepsDeadLanesSilent)
{
    RotatedSurfaceCode code(3);
    const std::vector<Op> ops =
        CircuitCompiler::surfaceMemory(code, 6, Basis::Z,
                                       IrTailKind::SwapLrc)
            .baseOps();
    ErrorModel em = ErrorModel::standard(8e-3);
    BatchFrameSimulatorT<4> sim(code.numQubits(), em, 100, 13, 0);
    const WordVec<4> live = sim.liveMask();
    ASSERT_EQ(laneWord(live, 0), ~uint64_t{0});
    ASSERT_EQ(laneWord(live, 1), laneMask64(36));
    ASSERT_EQ(laneWord(live, 2), 0u);

    sim.executeRange(ops.data(), ops.data() + ops.size());
    // Force the leakage-divergent op paths on a masked lane subset
    // too (the experiment layer's divergent-LRC-tail shape).
    WordVec<4> half{};
    laneWordRef(half, 0) = 0xFFFF0000FFFF0000ull;
    laneWordRef(half, 1) = laneMask64(36) & 0x55555555ull;
    for (const auto &stab : code.stabilizers()) {
        sim.execute(op(OpType::Cnot, stab.support[0], stab.ancilla),
                    half);
        sim.execute(op(OpType::Measure, stab.support[0]), half);
        sim.execute(op(OpType::Reset, stab.ancilla), half);
    }

    for (const auto &rec : sim.record()) {
        for (int b = 0; b < 4; ++b) {
            ASSERT_EQ(laneWord(rec.mask, b) & ~laneWord(live, b), 0u);
            ASSERT_EQ(laneWord(rec.flips, b) & ~laneWord(live, b), 0u);
            ASSERT_EQ(
                laneWord(rec.leakedLabels, b) & ~laneWord(live, b),
                0u);
        }
    }
    for (int q = 0; q < code.numQubits(); ++q) {
        for (int b = 0; b < 4; ++b) {
            ASSERT_EQ(laneWord(sim.xWord(q), b) & ~laneWord(live, b),
                      0u)
                << "qubit " << q;
            ASSERT_EQ(laneWord(sim.zWord(q), b) & ~laneWord(live, b),
                      0u)
                << "qubit " << q;
            ASSERT_EQ(
                laneWord(sim.leakedWord(q), b) & ~laneWord(live, b),
                0u)
                << "qubit " << q;
        }
    }
}

/** Statistical LER/LPR agreement of the widest engine against the
 *  scalar reference at the paper's headline distance. */
TEST(BatchDifferential, W512AgreesWithScalarStatisticallyAtD11)
{
    RotatedSurfaceCode code(11);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 320;
    cfg.seed = 555;
    cfg.em = ErrorModel::standard(8e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;
    MemoryExperiment scalar_exp(code, cfg);
    auto scalar = scalar_exp.run(PolicyKind::Eraser);

    cfg.batchWidth = 512;
    MemoryExperiment wide_exp(code, cfg);
    auto wide = wide_exp.run(PolicyKind::Eraser);

    ASSERT_GT(scalar.logicalErrors, 0u);
    ASSERT_GT(wide.logicalErrors, 0u);
    const double p_pool = (scalar.ler() + wide.ler()) / 2.0;
    const double sigma =
        std::sqrt(2.0 * p_pool * (1 - p_pool) / (double)cfg.shots);
    EXPECT_NEAR(scalar.ler(), wide.ler(), 5 * sigma);

    for (int r = 1; r < cfg.rounds; ++r) {
        const double a = scalar.lprData(r);
        const double b = wide.lprData(r);
        ASSERT_GT(a, 0.0);
        ASSERT_GT(b, 0.0);
        const double trials = (double)cfg.shots * code.numData();
        const double pool = (a + b) / 2.0;
        const double s =
            std::sqrt(2.0 * pool * (1 - pool) / trials);
        EXPECT_NEAR(a, b, 6 * s + 1e-9) << "round " << r;
    }
}

TEST(BatchDifferential, BatchedRunIsDeterministic)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 200;
    cfg.seed = 99;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;
    MemoryExperiment exp(code, cfg);
    auto a = exp.run(PolicyKind::EraserM);
    auto b = exp.run(PolicyKind::EraserM);
    EXPECT_EQ(a.logicalErrors, b.logicalErrors);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fn, b.fn);
}

} // namespace
} // namespace qec
