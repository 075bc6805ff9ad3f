/**
 * @file
 * End-to-end decoder tests: every single fault must be corrected (the
 * circuit-level distance is >= 3), sampled double faults must be
 * corrected at d = 5, the decoder must degrade gracefully, and sampled
 * shots must keep their pinned verdicts and matched corrections.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "code/circuit_ir.h"
#include "code/rotated_surface_code.h"
#include "decoder/decode_workspace.h"
#include "decoder/defects.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "sim/batch_frame_simulator.h"
#include "sim/frame_simulator.h"
#include "surface_dem.h"

namespace qec
{
namespace
{

/** All Pauli-injection sites of an op stream: (op index, [(q, P)...]). */
struct Fault
{
    size_t opIndex;
    std::vector<std::pair<int, Pauli>> paulis;
};

std::vector<Fault>
enumerateFaults(const std::vector<Op> &ops, bool all_two_qubit)
{
    std::vector<Fault> faults;
    for (size_t k = 0; k < ops.size(); ++k) {
        const Op &op = ops[k];
        switch (op.type) {
          case OpType::DataNoise:
          case OpType::H:
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                faults.push_back({k, {{op.q0, p}}});
            break;
          case OpType::Reset:
            faults.push_back({k, {{op.q0, Pauli::X}}});
            break;
          case OpType::Cnot:
            if (all_two_qubit) {
                for (int pp = 1; pp < 16; ++pp) {
                    faults.push_back(
                        {k,
                         {{op.q0, (Pauli)(pp & 3)},
                          {op.q1, (Pauli)((pp >> 2) & 3)}}});
                }
            } else {
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                    faults.push_back({k, {{op.q0, p}}});
                    faults.push_back({k, {{op.q1, p}}});
                }
            }
            break;
          default:
            break;
        }
    }
    return faults;
}

/** Run the program's base op stream `ops` noiselessly with the given
 *  faults injected. */
ShotOutcome
runWithFaults(const CircuitProgram &prog, const std::vector<Op> &ops,
              const std::vector<Fault> &faults)
{
    FrameSimulator sim(prog.numQubits, ErrorModel::noiseless(), Rng(3));
    sim.reset();
    size_t cursor = 0;
    // Faults must be sorted by opIndex.
    for (const auto &fault : faults) {
        sim.executeRange(ops.data() + cursor,
                         ops.data() + fault.opIndex + 1);
        cursor = fault.opIndex + 1;
        for (const auto &[q, p] : fault.paulis)
            sim.injectPauli(q, p);
    }
    sim.executeRange(ops.data() + cursor, ops.data() + ops.size());
    return extractDefects(prog.detectors, prog.rounds, sim.record());
}


class SingleFaultSweep
    : public ::testing::TestWithParam<std::tuple<int, Basis>>
{
};

TEST_P(SingleFaultSweep, EverySingleFaultCorrected)
{
    const auto [rounds, basis] = GetParam();
    RotatedSurfaceCode code(3);
    const CircuitProgram prog = surfaceProgram(code, rounds, basis);
    const std::vector<Op> ops = prog.baseOps();
    DetectorModel dem = surfaceDem(code, rounds, basis);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(ops, true);
    int checked = 0;
    for (const auto &fault : faults) {
        ShotOutcome outcome = runWithFaults(prog, ops, {fault});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "fault at op " << fault.opIndex;
        ++checked;
    }
    EXPECT_GT(checked, 400 * rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleFaultSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Basis::Z, Basis::X)));

TEST(Decoder, SampledDoubleFaultsCorrectedAtD5)
{
    // Distance 5 tolerates any two faults. Sample pairs.
    RotatedSurfaceCode code(5);
    const int rounds = 3;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(ops, false);
    Rng rng(17);
    for (int trial = 0; trial < 400; ++trial) {
        size_t i = rng.randint((uint32_t)faults.size());
        size_t j = rng.randint((uint32_t)faults.size());
        if (faults[i].opIndex > faults[j].opIndex)
            std::swap(i, j);
        ShotOutcome outcome =
            runWithFaults(prog, ops, {faults[i], faults[j]});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "faults " << i << ", " << j;
    }
}

TEST(Decoder, EmptyDefectsPredictNoFlip)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = surfaceDem(code, 2, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode({}));
}

TEST(Decoder, GraphNonTrivial)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = surfaceDem(code, 3, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_EQ(decoder.numDetectors(), dem.numDetectors());
    EXPECT_GT(decoder.numGraphEdges(), 20u);
}

TEST(Decoder, LogicalChainIsDecodedAsFlip)
{
    // Inject a full logical X chain (top-to-bottom column of X);
    // defect-free but observable flipped: decoder cannot see it, so
    // the prediction must be "no flip" and the comparison records a
    // logical error. This guards the convention wiring.
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();

    std::vector<Fault> faults;
    // Inject X on a full column (crossing between the X boundaries)
    // right after round 1's RoundStart marker.
    const size_t site = roundStart(ops, 1);
    std::vector<std::pair<int, Pauli>> paulis;
    for (int r = 0; r < 3; ++r)
        paulis.push_back({code.dataId(r, 1), Pauli::X});
    faults.push_back({site, paulis});

    ShotOutcome outcome = runWithFaults(prog, ops, faults);
    EXPECT_TRUE(outcome.defects.empty());
    EXPECT_TRUE(outcome.observableFlip);

    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode(outcome.defects));
}

TEST(Decoder, NeighborLimitStillCorrectsSingles)
{
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    DecoderOptions opts;
    opts.neighborLimit = 2;   // aggressive truncation
    MwpmDecoder decoder(dem, 1e-3, opts);

    auto faults = enumerateFaults(ops, false);
    for (size_t i = 0; i < faults.size(); i += 7) {
        ShotOutcome outcome = runWithFaults(prog, ops, {faults[i]});
        ASSERT_EQ(decoder.decode(outcome.defects),
                  outcome.observableFlip);
    }
}

/** FNV-1a accumulation of one 64-bit value. */
void
fnvMix(uint64_t &h, uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

/** Fold one decode (verdict, correction count, every matched
 *  (a, b, obs) element in emission order) into the golden digests. */
void
foldDecode(bool flip, const DecodeWorkspace &ws, uint64_t &verdicts,
           uint64_t &corrections)
{
    fnvMix(verdicts, flip);
    fnvMix(corrections, flip);
    fnvMix(corrections, ws.corrections.size());
    for (const auto &c : ws.corrections) {
        fnvMix(corrections, (uint64_t)(uint32_t)c.a);
        fnvMix(corrections, (uint64_t)(uint32_t)c.b);
        fnvMix(corrections, c.obs);
    }
}

struct GoldenMwpm
{
    int d;                      ///< Distance; rounds = 3d, Z basis.
    double p;                   ///< Physical error rate (sim + weights).
    int shots;                  ///< Leading shots of the sampled stream.
    uint64_t verdictDigest;     ///< Verdict bits, shot order.
    uint64_t correctionDigest;  ///< Every recordCorrections list.
};

constexpr uint64_t kGoldenSeed = 2309;

/**
 * Digests of MWPM decodes of sampled surface-memory shots (compiled
 * program, SWAP-LRC tail, word-group width 64). The correction digest
 * covers each shot's verdict, correction count and every (a, b, obs)
 * element in emission order, so it moves whenever the matching does —
 * even when the verdict survives by parity. Recorded from the decoder
 * whose candidate stage sorted and deduplicated every raw meeting-edge
 * candidate and pruned growth at each defect's boundary distance plus
 * the shot's largest; never re-baseline — a changed row means a
 * changed matching.
 */
const GoldenMwpm kGoldenMwpm[] = {
    {5, 1e-3, 512, 0xd10743ad7cbc8aa4ULL, 0x9db9df1e98f70a30ULL},
    {5, 3e-3, 512, 0x70c92c67359b3be5ULL, 0x41a0a52f6dd5cac3ULL},
    {7, 1e-3, 256, 0x5309dcf109b6ae05ULL, 0x58c184f6ec0a7bd1ULL},
    {7, 3e-3, 128, 0xb794b705828934c5ULL, 0x480af19e6428bc81ULL},
    {11, 1e-3, 128, 0x5922ff2ed5e6ef25ULL, 0x546bea5a1006a932ULL},
    {11, 3e-3, 24, 0x453e0bf43ad8c8a4ULL, 0x628fd9d376f52b91ULL},
};

TEST(MwpmGolden, SampledShotsMatchPinnedDigests)
{
    for (const GoldenMwpm &g : kGoldenMwpm) {
        const RotatedSurfaceCode code(g.d);
        const int rounds = 3 * g.d;
        const CircuitProgram prog = CircuitCompiler::surfaceMemory(
            code, rounds, Basis::Z, IrTailKind::SwapLrc);
        const MwpmDecoder decoder(buildDetectorModel(prog), g.p);

        SparseSyndromeExtractor extractor;
        BatchSyndrome syndrome;
        DecodeWorkspace ws;
        ws.recordCorrections = true;
        uint64_t verdicts = 0xcbf29ce484222325ULL;
        uint64_t corrections = 0xcbf29ce484222325ULL;
        for (int first = 0; first < g.shots; first += 64) {
            BatchFrameSimulatorT<1> sim(prog.numQubits,
                                        ErrorModel::standard(g.p), 64,
                                        kGoldenSeed, (uint64_t)first);
            sim.executeProgram(prog);
            extractor.extract(prog.detectors, rounds, sim.record(), 64,
                              syndrome);
            for (int lane = 0; lane < 64 && first + lane < g.shots;
                 ++lane) {
                ws.corrections.clear();
                const bool flip = decoder.decodeSparse(
                    syndrome.laneBegin(lane), syndrome.laneSize(lane),
                    ws);
                foldDecode(flip, ws, verdicts, corrections);
            }
        }
        EXPECT_EQ(verdicts, g.verdictDigest)
            << "d=" << g.d << " p=" << g.p;
        EXPECT_EQ(corrections, g.correctionDigest)
            << "d=" << g.d << " p=" << g.p;
    }
}

/**
 * A `layers` x `width` detector grid: space-like edges join
 * neighbours in a layer, time-like edges join a detector to itself one
 * layer up, and both ends of every layer have a boundary edge (the
 * left one flips the observable). `space` / `time` / `bound` give each
 * family's mechanism counts as {n1, n3, n15}.
 */
DetectorModel
gridModel(int layers, int width, std::array<int, 3> space,
          std::array<int, 3> time, std::array<int, 3> bound)
{
    DetectorModel dem;
    dem.rounds = layers - 1;
    dem.stabsPerRound = width;
    auto add = [&dem](int a, int b, bool obs, std::array<int, 3> n) {
        DemEdge e;
        e.a = a;
        e.b = b;
        e.obsFlip = obs;
        e.n1 = n[0];
        e.n3 = n[1];
        e.n15 = n[2];
        dem.edges.push_back(e);
    };
    for (int r = 0; r < layers; ++r) {
        add(dem.detectorId(0, r), kBoundary, true, bound);
        add(dem.detectorId(width - 1, r), kBoundary, false, bound);
        for (int s = 0; s + 1 < width; ++s)
            add(dem.detectorId(s, r), dem.detectorId(s + 1, r), false,
                space);
        if (r + 1 < layers) {
            for (int s = 0; s < width; ++s)
                add(dem.detectorId(s, r), dem.detectorId(s, r + 1),
                    false, time);
        }
    }
    return dem;
}

/** Boundary edges only, with per-detector mechanism counts (and a
 *  zero-probability detector pair the decoder must skip): no region
 *  ever grows, every defect matches the boundary. */
DetectorModel
boundaryOnlyModel()
{
    DetectorModel dem;
    dem.rounds = 5;
    dem.stabsPerRound = 8;
    for (int d = 0; d < dem.numDetectors(); ++d) {
        DemEdge e;
        e.a = d;
        e.obsFlip = d % 3 == 0;
        e.n1 = 1 + d % 2;
        e.n3 = d % 4;
        e.n15 = d % 5;
        dem.edges.push_back(e);
    }
    DemEdge silent;
    silent.a = 0;
    silent.b = 1;
    dem.edges.push_back(silent);
    return dem;
}

struct GoldenHandBuilt
{
    const char *name;
    DetectorModel (*model)();
    double p;                   ///< Physical error rate (weights).
    double density;             ///< Per-detector defect probability.
    int shots;
    uint64_t verdictDigest;
    uint64_t correctionDigest;
};

/**
 * Digests of MWPM decodes of random defect sets on hand-built models
 * that stress the Dijkstra's queue order: no detector-detector edges
 * at all, every edge weight equal (every distance ties, so only the
 * (dist, id) tie order picks owners, pairs and the parities of
 * boundary routes), and edge weights six
 * orders of magnitude apart (q = 0.5 clamps to ~4e-6 next to ~3.4).
 * Recorded from the binary-heap Dijkstra; never re-baseline.
 */
const GoldenHandBuilt kGoldenHandBuilt[] = {
    {"boundary-only", boundaryOnlyModel, 1e-2, 0.2, 400,
     0xf30b71497441fba4ULL, 0x326cca0ac38ae709ULL},
    {"uniform-ties",
     [] { return gridModel(10, 5, {1, 0, 0}, {1, 0, 0}, {1, 0, 0}); },
     1e-2, 0.06, 600, 0xb776c66173c3c944ULL, 0x4c5fd0b7f110cf1eULL},
    {"wide-spread",
     [] { return gridModel(8, 9, {0, 0, 1}, {1, 0, 0}, {0, 0, 1}); },
     0.5, 0.12, 400, 0x92202b1f666fa045ULL, 0x4ade78af4181f978ULL},
};

TEST(MwpmGolden, HandBuiltModelsMatchPinnedDigests)
{
    for (const GoldenHandBuilt &g : kGoldenHandBuilt) {
        const DetectorModel dem = g.model();
        const MwpmDecoder decoder(dem, g.p);
        DecodeWorkspace ws;
        ws.recordCorrections = true;
        uint64_t verdicts = 0xcbf29ce484222325ULL;
        uint64_t corrections = 0xcbf29ce484222325ULL;
        std::vector<int> defects;
        for (int shot = 0; shot < g.shots; ++shot) {
            Rng rng = Rng::forShot(kGoldenSeed, (uint64_t)shot);
            defects.clear();
            for (int d = 0; d < dem.numDetectors(); ++d) {
                if (rng.bernoulli(g.density))
                    defects.push_back(d);
            }
            ws.corrections.clear();
            const bool flip = decoder.decodeSparse(
                defects.data(), defects.size(), ws);
            foldDecode(flip, ws, verdicts, corrections);
        }
        EXPECT_EQ(verdicts, g.verdictDigest) << g.name;
        EXPECT_EQ(corrections, g.correctionDigest) << g.name;
    }
}

} // namespace
} // namespace qec
