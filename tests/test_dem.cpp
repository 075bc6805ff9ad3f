/**
 * @file
 * Detector-error-model tests: every model on the golden grid must be
 * bit-identical (edge order included) to the pinned digest, tiled
 * construction must equal direct enumeration, a mutated program must
 * move its digest off the pin, signatures must be graph-like, and
 * probabilities sane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "decoder/detector_model.h"
#include "surface_dem.h"

namespace qec
{
namespace
{

constexpr CircuitFamily kSurface = CircuitFamily::SurfaceMemory;
constexpr CircuitFamily kRepetition = CircuitFamily::RepetitionMemory;
constexpr IrTailKind kSwap = IrTailKind::SwapLrc;
constexpr IrTailKind kDqlr = IrTailKind::Dqlr;

struct GoldenDem
{
    CircuitFamily family;
    int d;
    int rounds;
    Basis basis;
    IrTailKind tail;   ///< Ignored by repetition memory.
    uint64_t digest;   ///< demDigest of buildDetectorModel(program).
};

/**
 * demDigest of every shipped family's model over d in {3,5,7,9,11} x
 * rounds in {1,2,8,9,12,3d}: surface memory in both bases with both
 * LRC tails, and repetition memory. Recorded from the forward
 * frame-propagation builder (one simulation per fault) that the
 * backward sensitivity sweep replaced; that builder's lattice and
 * program variants agreed edge for edge on every row. Never
 * re-baseline: a changed row means a changed decoding graph, and the
 * Union-Find decoder builds its adjacency in edge-id order.
 */
const GoldenDem kGoldenDems[] = {
    {kSurface, 3, 1, Basis::Z, kSwap, 0xfc8503f55091510bULL},
    {kSurface, 3, 1, Basis::Z, kDqlr, 0xfc8503f55091510bULL},
    {kSurface, 3, 1, Basis::X, kSwap, 0xac31d8f0f5a28773ULL},
    {kSurface, 3, 1, Basis::X, kDqlr, 0xac31d8f0f5a28773ULL},
    {kRepetition, 3, 1, Basis::Z, kSwap, 0x9a36d8c7d5f71837ULL},
    {kSurface, 3, 2, Basis::Z, kSwap, 0x07efda2a253dfa0eULL},
    {kSurface, 3, 2, Basis::Z, kDqlr, 0x07efda2a253dfa0eULL},
    {kSurface, 3, 2, Basis::X, kSwap, 0x00c73d966db21056ULL},
    {kSurface, 3, 2, Basis::X, kDqlr, 0x00c73d966db21056ULL},
    {kRepetition, 3, 2, Basis::Z, kSwap, 0xc9ff292cb6dde1aeULL},
    {kSurface, 3, 8, Basis::Z, kSwap, 0x181a655f4b334aecULL},
    {kSurface, 3, 8, Basis::Z, kDqlr, 0x181a655f4b334aecULL},
    {kSurface, 3, 8, Basis::X, kSwap, 0xdda04fb62683bfc4ULL},
    {kSurface, 3, 8, Basis::X, kDqlr, 0xdda04fb62683bfc4ULL},
    {kRepetition, 3, 8, Basis::Z, kSwap, 0xc37da6a117a290acULL},
    {kSurface, 3, 9, Basis::Z, kSwap, 0x565fe03025fe8cfbULL},
    {kSurface, 3, 9, Basis::Z, kDqlr, 0x565fe03025fe8cfbULL},
    {kSurface, 3, 9, Basis::X, kSwap, 0xec46c3992d3f3aabULL},
    {kSurface, 3, 9, Basis::X, kDqlr, 0xec46c3992d3f3aabULL},
    {kRepetition, 3, 9, Basis::Z, kSwap, 0x778e730f45707b6fULL},
    {kSurface, 3, 12, Basis::Z, kSwap, 0x0777c8de91d63f08ULL},
    {kSurface, 3, 12, Basis::Z, kDqlr, 0x0777c8de91d63f08ULL},
    {kSurface, 3, 12, Basis::X, kSwap, 0x3cf324b7408dc820ULL},
    {kSurface, 3, 12, Basis::X, kDqlr, 0x3cf324b7408dc820ULL},
    {kRepetition, 3, 12, Basis::Z, kSwap, 0x1b55187b70d0b4c8ULL},
    {kSurface, 5, 1, Basis::Z, kSwap, 0xfae12d54c6b1de01ULL},
    {kSurface, 5, 1, Basis::Z, kDqlr, 0xfae12d54c6b1de01ULL},
    {kSurface, 5, 1, Basis::X, kSwap, 0xb3cd6812fe14e5d1ULL},
    {kSurface, 5, 1, Basis::X, kDqlr, 0xb3cd6812fe14e5d1ULL},
    {kRepetition, 5, 1, Basis::Z, kSwap, 0xb6673a58e217964dULL},
    {kSurface, 5, 2, Basis::Z, kSwap, 0xafd2b8e73daf048eULL},
    {kSurface, 5, 2, Basis::Z, kDqlr, 0xafd2b8e73daf048eULL},
    {kSurface, 5, 2, Basis::X, kSwap, 0x833f9c822df6dd0eULL},
    {kSurface, 5, 2, Basis::X, kDqlr, 0x833f9c822df6dd0eULL},
    {kRepetition, 5, 2, Basis::Z, kSwap, 0x40fa7ff0ed376caeULL},
    {kSurface, 5, 8, Basis::Z, kSwap, 0x9261823ca883754fULL},
    {kSurface, 5, 8, Basis::Z, kDqlr, 0x9261823ca883754fULL},
    {kSurface, 5, 8, Basis::X, kSwap, 0x99ceaee75ccf742fULL},
    {kSurface, 5, 8, Basis::X, kDqlr, 0x99ceaee75ccf742fULL},
    {kRepetition, 5, 8, Basis::Z, kSwap, 0x4944a653b697441cULL},
    {kSurface, 5, 9, Basis::Z, kSwap, 0x4ad0232585d91853ULL},
    {kSurface, 5, 9, Basis::Z, kDqlr, 0x4ad0232585d91853ULL},
    {kSurface, 5, 9, Basis::X, kSwap, 0xbe6b689bfa9ac7f3ULL},
    {kSurface, 5, 9, Basis::X, kDqlr, 0xbe6b689bfa9ac7f3ULL},
    {kRepetition, 5, 9, Basis::Z, kSwap, 0x39eff677f5928025ULL},
    {kSurface, 5, 12, Basis::Z, kSwap, 0x267d24424bccb056ULL},
    {kSurface, 5, 12, Basis::Z, kDqlr, 0x267d24424bccb056ULL},
    {kSurface, 5, 12, Basis::X, kSwap, 0x0a391ffe858468f6ULL},
    {kSurface, 5, 12, Basis::X, kDqlr, 0x0a391ffe858468f6ULL},
    {kRepetition, 5, 12, Basis::Z, kSwap, 0xfdcb4484e2c84098ULL},
    {kSurface, 5, 15, Basis::Z, kSwap, 0x489891ec8f395f02ULL},
    {kSurface, 5, 15, Basis::Z, kDqlr, 0x489891ec8f395f02ULL},
    {kSurface, 5, 15, Basis::X, kSwap, 0x77c620586ff4b222ULL},
    {kSurface, 5, 15, Basis::X, kDqlr, 0x77c620586ff4b222ULL},
    {kRepetition, 5, 15, Basis::Z, kSwap, 0x78724360ac91c8fbULL},
    {kSurface, 7, 1, Basis::Z, kSwap, 0x4c760dcc75a1c473ULL},
    {kSurface, 7, 1, Basis::Z, kDqlr, 0x4c760dcc75a1c473ULL},
    {kSurface, 7, 1, Basis::X, kSwap, 0xe2ffcab2e1f345bbULL},
    {kSurface, 7, 1, Basis::X, kDqlr, 0xe2ffcab2e1f345bbULL},
    {kRepetition, 7, 1, Basis::Z, kSwap, 0xbc0767ea0960b6fbULL},
    {kSurface, 7, 2, Basis::Z, kSwap, 0xaa9fa6a86fdec859ULL},
    {kSurface, 7, 2, Basis::Z, kDqlr, 0xaa9fa6a86fdec859ULL},
    {kSurface, 7, 2, Basis::X, kSwap, 0x41d112da29e2d0e9ULL},
    {kSurface, 7, 2, Basis::X, kDqlr, 0x41d112da29e2d0e9ULL},
    {kRepetition, 7, 2, Basis::Z, kSwap, 0x5380aafe454467a6ULL},
    {kSurface, 7, 8, Basis::Z, kSwap, 0xf6ede53e571212c5ULL},
    {kSurface, 7, 8, Basis::Z, kDqlr, 0xf6ede53e571212c5ULL},
    {kSurface, 7, 8, Basis::X, kSwap, 0x8cc59383027f9565ULL},
    {kSurface, 7, 8, Basis::X, kDqlr, 0x8cc59383027f9565ULL},
    {kRepetition, 7, 8, Basis::Z, kSwap, 0x747376713c8cf4ccULL},
    {kSurface, 7, 9, Basis::Z, kSwap, 0x3829fcba5ba6abc7ULL},
    {kSurface, 7, 9, Basis::Z, kDqlr, 0x3829fcba5ba6abc7ULL},
    {kSurface, 7, 9, Basis::X, kSwap, 0x6d6ab9547d884697ULL},
    {kSurface, 7, 9, Basis::X, kDqlr, 0x6d6ab9547d884697ULL},
    {kRepetition, 7, 9, Basis::Z, kSwap, 0x1e46d1553bba6fd3ULL},
    {kSurface, 7, 12, Basis::Z, kSwap, 0x21de5c78156a4d7cULL},
    {kSurface, 7, 12, Basis::Z, kDqlr, 0x21de5c78156a4d7cULL},
    {kSurface, 7, 12, Basis::X, kSwap, 0xfabf535a41a06c8fULL},
    {kSurface, 7, 12, Basis::X, kDqlr, 0xfabf535a41a06c8fULL},
    {kRepetition, 7, 12, Basis::Z, kSwap, 0x01632aa2bad25398ULL},
    {kSurface, 7, 21, Basis::Z, kSwap, 0x995d61b8e588030eULL},
    {kSurface, 7, 21, Basis::Z, kDqlr, 0x995d61b8e588030eULL},
    {kSurface, 7, 21, Basis::X, kSwap, 0x16f946a7d76f0ac4ULL},
    {kSurface, 7, 21, Basis::X, kDqlr, 0x16f946a7d76f0ac4ULL},
    {kRepetition, 7, 21, Basis::Z, kSwap, 0xc42615a0d637ff54ULL},
    {kSurface, 9, 1, Basis::Z, kSwap, 0xf78f1de0744cbc8eULL},
    {kSurface, 9, 1, Basis::Z, kDqlr, 0xf78f1de0744cbc8eULL},
    {kSurface, 9, 1, Basis::X, kSwap, 0xb3f3316030ffe536ULL},
    {kSurface, 9, 1, Basis::X, kDqlr, 0xb3f3316030ffe536ULL},
    {kRepetition, 9, 1, Basis::Z, kSwap, 0xfdc8d0b98da0b761ULL},
    {kSurface, 9, 2, Basis::Z, kSwap, 0xfc67cb48036369a1ULL},
    {kSurface, 9, 2, Basis::Z, kDqlr, 0xfc67cb48036369a1ULL},
    {kSurface, 9, 2, Basis::X, kSwap, 0xfc8267dc3bb701b1ULL},
    {kSurface, 9, 2, Basis::X, kDqlr, 0xfc8267dc3bb701b1ULL},
    {kRepetition, 9, 2, Basis::Z, kSwap, 0x9c39c5eaf9607de6ULL},
    {kSurface, 9, 8, Basis::Z, kSwap, 0xc69e63987a7d5e41ULL},
    {kSurface, 9, 8, Basis::Z, kDqlr, 0xc69e63987a7d5e41ULL},
    {kSurface, 9, 8, Basis::X, kSwap, 0x81acaf7703c967d9ULL},
    {kSurface, 9, 8, Basis::X, kDqlr, 0x81acaf7703c967d9ULL},
    {kRepetition, 9, 8, Basis::Z, kSwap, 0x8e1842cfa43bb63cULL},
    {kSurface, 9, 9, Basis::Z, kSwap, 0xb0704d77c2916fdfULL},
    {kSurface, 9, 9, Basis::Z, kDqlr, 0xb0704d77c2916fdfULL},
    {kSurface, 9, 9, Basis::X, kSwap, 0xc2d4fb38354ac1dfULL},
    {kSurface, 9, 9, Basis::X, kDqlr, 0xc2d4fb38354ac1dfULL},
    {kRepetition, 9, 9, Basis::Z, kSwap, 0xf5c71db26595b0b9ULL},
    {kSurface, 9, 12, Basis::Z, kSwap, 0xc07e79f914f2570cULL},
    {kSurface, 9, 12, Basis::Z, kDqlr, 0xc07e79f914f2570cULL},
    {kSurface, 9, 12, Basis::X, kSwap, 0x6a07b8172d96f530ULL},
    {kSurface, 9, 12, Basis::X, kDqlr, 0x6a07b8172d96f530ULL},
    {kRepetition, 9, 12, Basis::Z, kSwap, 0xe6ca0851b057d493ULL},
    {kSurface, 9, 27, Basis::Z, kSwap, 0x9b7e57bf393c0d0dULL},
    {kSurface, 9, 27, Basis::Z, kDqlr, 0x9b7e57bf393c0d0dULL},
    {kSurface, 9, 27, Basis::X, kSwap, 0xdfe1f7dbb866458dULL},
    {kSurface, 9, 27, Basis::X, kDqlr, 0xdfe1f7dbb866458dULL},
    {kRepetition, 9, 27, Basis::Z, kSwap, 0x8b9f0471b3299cb9ULL},
    {kSurface, 11, 1, Basis::Z, kSwap, 0x382a716f3d86d3d8ULL},
    {kSurface, 11, 1, Basis::Z, kDqlr, 0x382a716f3d86d3d8ULL},
    {kSurface, 11, 1, Basis::X, kSwap, 0x5a850eaa691707c8ULL},
    {kSurface, 11, 1, Basis::X, kDqlr, 0x5a850eaa691707c8ULL},
    {kRepetition, 11, 1, Basis::Z, kSwap, 0x8ffb81d70e8e3a8fULL},
    {kSurface, 11, 2, Basis::Z, kSwap, 0x9fa8780e3b2ed8c0ULL},
    {kSurface, 11, 2, Basis::Z, kDqlr, 0x9fa8780e3b2ed8c0ULL},
    {kSurface, 11, 2, Basis::X, kSwap, 0x40260ce9cee94d70ULL},
    {kSurface, 11, 2, Basis::X, kDqlr, 0x40260ce9cee94d70ULL},
    {kRepetition, 11, 2, Basis::Z, kSwap, 0x57c40eaaf3adaaceULL},
    {kSurface, 11, 8, Basis::Z, kSwap, 0x0c6b523395e498faULL},
    {kSurface, 11, 8, Basis::Z, kDqlr, 0x0c6b523395e498faULL},
    {kSurface, 11, 8, Basis::X, kSwap, 0xed72cbc042d2cbcfULL},
    {kSurface, 11, 8, Basis::X, kDqlr, 0xed72cbc042d2cbcfULL},
    {kRepetition, 11, 8, Basis::Z, kSwap, 0x98853dd2394c39ecULL},
    {kSurface, 11, 9, Basis::Z, kSwap, 0x9ac10bf7e6f3ed8eULL},
    {kSurface, 11, 9, Basis::Z, kDqlr, 0x9ac10bf7e6f3ed8eULL},
    {kSurface, 11, 9, Basis::X, kSwap, 0x25df6441f9d3024aULL},
    {kSurface, 11, 9, Basis::X, kDqlr, 0x25df6441f9d3024aULL},
    {kRepetition, 11, 9, Basis::Z, kSwap, 0x96f6c3a460d87e0cULL},
    {kSurface, 11, 12, Basis::Z, kSwap, 0x67fe1931f1952895ULL},
    {kSurface, 11, 12, Basis::Z, kDqlr, 0x67fe1931f1952895ULL},
    {kSurface, 11, 12, Basis::X, kSwap, 0x74b6b125f0de098aULL},
    {kSurface, 11, 12, Basis::X, kDqlr, 0x74b6b125f0de098aULL},
    {kRepetition, 11, 12, Basis::Z, kSwap, 0x37d2579754518c83ULL},
    {kSurface, 11, 33, Basis::Z, kSwap, 0x7f0b55dfb8ff7962ULL},
    {kSurface, 11, 33, Basis::Z, kDqlr, 0x7f0b55dfb8ff7962ULL},
    {kSurface, 11, 33, Basis::X, kSwap, 0x2e4dfaba33369cb3ULL},
    {kSurface, 11, 33, Basis::X, kDqlr, 0x2e4dfaba33369cb3ULL},
    {kRepetition, 11, 33, Basis::Z, kSwap, 0x902992043b07bf92ULL},
};

TEST(DemGolden, EveryModelMatchesItsPinnedDigest)
{
    for (const GoldenDem &g : kGoldenDems) {
        const CircuitProgram prog =
            g.family == kRepetition
                ? CircuitCompiler::repetitionMemory(g.d, g.rounds)
                : CircuitCompiler::surfaceMemory(RotatedSurfaceCode(g.d),
                                                 g.rounds, g.basis,
                                                 g.tail);
        EXPECT_EQ(demDigest(buildDetectorModel(prog)), g.digest)
            << circuitFamilyName(g.family) << " d=" << g.d
            << " rounds=" << g.rounds
            << " basis=" << (g.basis == Basis::Z ? "Z" : "X")
            << " tail=" << (g.tail == kDqlr ? "dqlr" : "swap");
    }
}

/** The pinned kGoldenDems digest of one surface-memory model. */
uint64_t
goldenSurfaceDigest(int d, int rounds, Basis basis, IrTailKind tail)
{
    for (const GoldenDem &g : kGoldenDems) {
        if (g.family == kSurface && g.d == d && g.rounds == rounds &&
            g.basis == basis && g.tail == tail)
            return g.digest;
    }
    ADD_FAILURE() << "no golden row for d=" << d << " rounds=" << rounds;
    return 0;
}

/**
 * The builder reads the circuit from the program it is handed: a d=3
 * program with one body CNOT Gate dropped, or with two detector
 * columns swapped in its IrDetectorMap, must build a model whose
 * digest leaves its DemGolden row. Both the direct (2 rounds) and the
 * tiled (9 rounds) build are mutated.
 */
TEST(DemGolden, MutatedProgramsLeaveThePinnedDigest)
{
    const RotatedSurfaceCode code(3);
    for (int rounds : {2, 9}) {
        SCOPED_TRACE("rounds=" + std::to_string(rounds));
        const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
        const uint64_t pinned =
            goldenSurfaceDigest(3, rounds, Basis::Z, kSwap);
        ASSERT_EQ(demDigest(buildDetectorModel(prog)), pinned);

        CircuitProgram dropped = prog;
        const auto body_end = dropped.instrs.begin() + dropped.bodyEnd;
        const auto cnot = std::find_if(
            dropped.instrs.begin() + dropped.bodyBegin, body_end,
            [&](const IrInst &inst) {
                return inst.op == IrOpcode::Gate &&
                       dropped.pool[inst.a].type == OpType::Cnot;
            });
        ASSERT_NE(cnot, body_end);
        dropped.instrs.erase(cnot);
        --dropped.bodyEnd;
        EXPECT_NE(demDigest(buildDetectorModel(dropped)), pinned);

        CircuitProgram swapped = prog;
        std::vector<int> &cols = swapped.detectors.stabColumn;
        const auto first = std::find_if(cols.begin(), cols.end(),
                                        [](int c) { return c >= 0; });
        ASSERT_NE(first, cols.end());
        const auto second = std::find_if(first + 1, cols.end(),
                                         [](int c) { return c >= 0; });
        ASSERT_NE(second, cols.end());
        std::swap(*first, *second);
        EXPECT_NE(demDigest(buildDetectorModel(swapped)), pinned);
    }
}

/** Edges as comparable tuples, in model order. */
std::vector<std::tuple<int, int, bool, int, int, int>>
edgeTuples(const DetectorModel &model)
{
    std::vector<std::tuple<int, int, bool, int, int, int>> out;
    for (const auto &e : model.edges)
        out.emplace_back(e.a, e.b, e.obsFlip, e.n1, e.n3, e.n15);
    return out;
}

struct TileCase
{
    int d;
    int rounds;
    Basis basis;
    uint64_t direct;  ///< demDigest of the direct enumeration.
    uint64_t tiled;   ///< demDigest of the tiled build.
};

/** Recorded alongside kGoldenDems, from the same builder. */
const TileCase kTileCases[] = {
    {3, 9, Basis::Z, 0x0bac4ef30a276553ULL, 0x565fe03025fe8cfbULL},
    {3, 9, Basis::X, 0xab7e4a39d724142bULL, 0xec46c3992d3f3aabULL},
    {3, 10, Basis::Z, 0xcfa95b67dd875fb6ULL, 0x9d52d89040f3d486ULL},
    {3, 10, Basis::X, 0x382a410549f5162eULL, 0x712c3d44e3e6fd4eULL},
    {3, 12, Basis::Z, 0xa90cbf79d6ff2408ULL, 0x0777c8de91d63f08ULL},
    {3, 12, Basis::X, 0xab43897e7f1776a0ULL, 0x3cf324b7408dc820ULL},
    {5, 9, Basis::Z, 0x3c190efcc4e5ea53ULL, 0x4ad0232585d91853ULL},
    {5, 9, Basis::X, 0x2134ca69c6a08103ULL, 0xbe6b689bfa9ac7f3ULL},
    {5, 10, Basis::Z, 0xbea6bbc1278edaf0ULL, 0x6099f3acb7cf6fe8ULL},
    {5, 10, Basis::X, 0xf789f467baef6210ULL, 0x54248fa302afb5f8ULL},
    {5, 12, Basis::Z, 0xd3b1fcc5656dd1b6ULL, 0x267d24424bccb056ULL},
    {5, 12, Basis::X, 0x766c845d51efeaf6ULL, 0x0a391ffe858468f6ULL},
};

void
PrintTo(const TileCase &c, std::ostream *os)
{
    *os << "d=" << c.d << " rounds=" << c.rounds
        << " basis=" << (c.basis == Basis::Z ? "Z" : "X");
}

class DemTileSweep : public ::testing::TestWithParam<TileCase>
{
};

TEST_P(DemTileSweep, TiledMatchesDirect)
{
    const TileCase &c = GetParam();
    ASSERT_GT(c.rounds, 8) << "sweep must exercise the tiling path";
    RotatedSurfaceCode code(c.d);
    DetectorModel direct = surfaceDemDirect(code, c.rounds, c.basis);
    DetectorModel tiled = surfaceDem(code, c.rounds, c.basis);

    // Both paths emit their edges in a pinned order...
    EXPECT_EQ(demDigest(direct), c.direct);
    EXPECT_EQ(demDigest(tiled), c.tiled);
    // ...and the same edge vector once the order is normalized: the
    // tiled path replicates its bulk round before the tail, so its
    // edge ids differ from direct enumeration by design.
    EXPECT_EQ(tiled.rounds, direct.rounds);
    EXPECT_EQ(tiled.stabsPerRound, direct.stabsPerRound);
    EXPECT_EQ(tiled.decomposedMechanisms, direct.decomposedMechanisms);
    EXPECT_EQ(tiled.unmatchedDecompositions,
              direct.unmatchedDecompositions);
    auto direct_edges = edgeTuples(direct);
    auto tiled_edges = edgeTuples(tiled);
    std::sort(direct_edges.begin(), direct_edges.end());
    std::sort(tiled_edges.begin(), tiled_edges.end());
    EXPECT_EQ(tiled_edges, direct_edges);
}

INSTANTIATE_TEST_SUITE_P(Grid, DemTileSweep,
                         ::testing::ValuesIn(kTileCases));

class DemStructure : public ::testing::TestWithParam<int>
{
  protected:
    RotatedSurfaceCode code_{GetParam()};
};

TEST_P(DemStructure, EdgesWithinDetectorRange)
{
    const int rounds = 6;
    DetectorModel model =
        surfaceDemDirect(code_, rounds, Basis::Z);
    EXPECT_EQ(model.numDetectors(),
              (rounds + 1) * code_.numZStabilizers());
    for (const auto &e : model.edges) {
        ASSERT_GE(e.a, 0);
        ASSERT_LT(e.a, model.numDetectors());
        if (e.b != kBoundary) {
            ASSERT_GE(e.b, 0);
            ASSERT_LT(e.b, model.numDetectors());
            ASSERT_NE(e.a, e.b);
        }
    }
}

TEST_P(DemStructure, EveryDetectorTouched)
{
    const int rounds = 5;
    DetectorModel model =
        surfaceDemDirect(code_, rounds, Basis::Z);
    std::vector<int> degree(model.numDetectors(), 0);
    for (const auto &e : model.edges) {
        ++degree[e.a];
        if (e.b != kBoundary)
            ++degree[e.b];
    }
    for (int det = 0; det < model.numDetectors(); ++det)
        EXPECT_GT(degree[det], 0) << "detector " << det;
}

TEST_P(DemStructure, BoundaryEdgesExist)
{
    DetectorModel model = surfaceDemDirect(code_, 4, Basis::Z);
    int boundary = 0;
    for (const auto &e : model.edges)
        boundary += (e.b == kBoundary) ? 1 : 0;
    EXPECT_GT(boundary, 0);
}

TEST_P(DemStructure, SomeEdgesFlipObservable)
{
    DetectorModel model = surfaceDemDirect(code_, 4, Basis::Z);
    int obs_edges = 0;
    for (const auto &e : model.edges)
        obs_edges += e.obsFlip ? 1 : 0;
    // Errors on the logical operator's row reach the boundary while
    // crossing the observable.
    EXPECT_GT(obs_edges, 0);
}

TEST_P(DemStructure, CircuitIsGraphLike)
{
    // Every mechanism flips at most two detectors of the decoded
    // basis: detector cancellation makes the standard schedule purely
    // graph-like, so nothing needs decomposition.
    DetectorModel model = surfaceDemDirect(code_, 5, Basis::Z);
    EXPECT_EQ(model.unmatchedDecompositions, 0);
    EXPECT_EQ(model.decomposedMechanisms, 0);
}

TEST_P(DemStructure, ProbabilitiesReasonable)
{
    DetectorModel model = surfaceDemDirect(code_, 4, Basis::Z);
    const double p = 1e-3;
    for (const auto &e : model.edges) {
        const double q = e.probability(p);
        ASSERT_GT(q, 0.0);
        ASSERT_LT(q, 0.1);
        ASSERT_GT(e.n1 + e.n3 + e.n15, 0);
    }
}

TEST_P(DemStructure, ProbabilityScalesWithP)
{
    DetectorModel model = surfaceDemDirect(code_, 3, Basis::Z);
    for (const auto &e : model.edges) {
        EXPECT_LT(e.probability(1e-4), e.probability(1e-3));
        EXPECT_NEAR(e.probability(1e-4) / e.probability(1e-3), 0.1,
                    0.02);
    }
}

TEST_P(DemStructure, BasisSymmetry)
{
    // Both memory bases share detector counts and the measurement /
    // two-qubit mechanism totals. (Single-qubit totals differ: the H
    // gates sit on X ancillas only, so their errors are visible to
    // exactly one basis.)
    DetectorModel z = surfaceDemDirect(code_, 4, Basis::Z);
    DetectorModel x = surfaceDemDirect(code_, 4, Basis::X);
    EXPECT_EQ(z.numDetectors(), x.numDetectors());

    auto total = [](const DetectorModel &m) {
        int n1 = 0;
        int n15 = 0;
        for (const auto &e : m.edges) {
            n1 += e.n1;
            n15 += e.n15;
        }
        return std::tuple{n1, n15};
    };
    EXPECT_EQ(total(z), total(x));
}

INSTANTIATE_TEST_SUITE_P(Distances, DemStructure,
                         ::testing::Values(3, 5));

TEST(Dem, EdgeProbabilityXorCombination)
{
    DemEdge edge;
    edge.n1 = 2;
    const double p = 0.01;
    // Two mechanisms at prob p: odd-parity probability 2p(1-p).
    EXPECT_NEAR(edge.probability(p), 2 * p * (1 - p), 1e-12);
}

TEST(Dem, SingleRoundModelWorks)
{
    RotatedSurfaceCode code(3);
    DetectorModel model = surfaceDemDirect(code, 1, Basis::Z);
    EXPECT_EQ(model.numDetectors(), 2 * code.numZStabilizers());
    EXPECT_FALSE(model.edges.empty());
}

TEST(Dem, DetectorIdHelpers)
{
    RotatedSurfaceCode code(3);
    DetectorModel model = surfaceDemDirect(code, 4, Basis::Z);
    const int id = model.detectorId(2, 3);
    EXPECT_EQ(model.detectorStab(id), 2);
    EXPECT_EQ(model.detectorRound(id), 3);
}

} // namespace
} // namespace qec
