/**
 * @file
 * Batch-aware decode pipeline tests:
 *
 *  1. Differential: BatchDecoder (sparse extraction + zero-defect fast
 *     path + syndrome dedup cache + reusable workspace) pins its
 *     verdicts exactly against per-shot MwpmDecoder / UnionFindDecoder
 *     decode() calls, shot for shot, and the batched experiment's
 *     logical-error count is identical with the pipeline on and off.
 *  2. Workspace reuse: one workspace across >= 3 consecutive decode
 *     calls (the epoch-reset path) reproduces fresh-workspace verdicts.
 *  3. Zero-defect fast path: empty syndromes predict "no flip" and are
 *     counted without touching the decoder.
 *  4. Steady-state allocation freedom: the union-find decodeSparse
 *     performs zero heap allocations after warmup (global operator new
 *     is instrumented in this binary), and the MWPM workspace footprint
 *     stops growing.
 *  5. Sparse extraction: at W = 64/256/512 the flat BatchSyndrome
 *     agrees, lane by lane, with the scalar extractDefects run on
 *     that lane's slice of the batched record.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "decoder/batch_decoder.h"
#include "decoder/defects.h"
#include "decoder/detector_model.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "decoder/syndrome_cache.h"
#include "decoder/union_find_decoder.h"
#include "exp/memory_experiment.h"
#include "sim/batch_frame_simulator.h"
#include "sim/frame_simulator.h"
#include "surface_dem.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, so tests can assert a code region allocates nothing. The
// replacement operators pair malloc with free, which GCC's
// new/delete-mismatch heuristic cannot see through.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qec
{
namespace
{

/** Sample realistic defect sets from the memory program's base ops. */
std::vector<std::vector<int>>
sampleDefectSets(const RotatedSurfaceCode &code, int rounds, int count,
                 double p, uint64_t seed)
{
    const CircuitProgram prog = surfaceProgram(code, rounds, Basis::Z);
    const std::vector<Op> ops = prog.baseOps();
    FrameSimulator sim(code.numQubits(), ErrorModel::standard(p),
                       Rng(seed));
    std::vector<std::vector<int>> shots;
    for (int i = 0; i < count; ++i) {
        sim.run(ops);
        shots.push_back(
            extractDefects(prog.detectors, rounds, sim.record())
                .defects);
    }
    return shots;
}

TEST(DecodePipeline, BatchDecoderPinsPerShotMwpmVerdicts)
{
    RotatedSurfaceCode code(5);
    const int rounds = 8;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    auto shots = sampleDefectSets(code, rounds, 200, 2e-3, 71);
    for (const auto &defects : shots) {
        const bool reference = decoder.decode(defects);
        const bool piped =
            pipeline.decodeOne(defects.data(), defects.size());
        ASSERT_EQ(piped, reference);
    }
    EXPECT_EQ(pipeline.stats().shots, 200u);
    EXPECT_EQ(pipeline.stats().zeroDefect + pipeline.stats().cacheHits +
                  pipeline.stats().decoded,
              200u);
}

TEST(DecodePipeline, BatchDecoderPinsPerShotUnionFindVerdicts)
{
    RotatedSurfaceCode code(5);
    const int rounds = 8;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    auto shots = sampleDefectSets(code, rounds, 200, 2e-3, 72);
    for (const auto &defects : shots) {
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  decoder.decode(defects));
    }
}

TEST(DecodePipeline, CacheReplayMatchesDecodeAndCounts)
{
    RotatedSurfaceCode code(3);
    const int rounds = 4;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    const std::vector<int> defects = {0, 1, 5};
    const bool reference = decoder.decode(defects);
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(pipeline.decodeOne(defects.data(), defects.size()),
                  reference);
    }
    EXPECT_EQ(pipeline.stats().decoded, 1u);
    EXPECT_EQ(pipeline.stats().cacheHits, 4u);
    EXPECT_NEAR(pipeline.stats().cacheHitRate(), 0.8, 1e-12);
}

TEST(DecodePipeline, BatchedExperimentIdenticalWithPipelineOnAndOff)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 4242;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;

    cfg.batchDecode = true;
    MemoryExperiment on(code, cfg);
    auto with_pipeline = on.run(PolicyKind::Eraser);

    cfg.batchDecode = false;
    MemoryExperiment off(code, cfg);
    auto without_pipeline = off.run(PolicyKind::Eraser);

    EXPECT_EQ(with_pipeline.logicalErrors,
              without_pipeline.logicalErrors);
    EXPECT_EQ(with_pipeline.shots, without_pipeline.shots);
    // Pipeline counters only populate on the batched decode path.
    EXPECT_EQ(with_pipeline.decodedShots +
                  with_pipeline.zeroDefectShots +
                  with_pipeline.syndromeCacheHits,
              with_pipeline.shots);
    EXPECT_EQ(without_pipeline.decodedShots, 0u);
}

TEST(DecodePipeline, UnionFindExperimentIdenticalWithPipelineOnAndOff)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;
    cfg.decoderKind = DecoderKind::UnionFind;

    cfg.batchDecode = true;
    MemoryExperiment on(code, cfg);
    cfg.batchDecode = false;
    MemoryExperiment off(code, cfg);
    EXPECT_EQ(on.run(PolicyKind::Eraser).logicalErrors,
              off.run(PolicyKind::Eraser).logicalErrors);
}

TEST(DecodePipeline, WorkspaceReuseMatchesFreshWorkspaces)
{
    // Epoch-reset reuse: >= 3 consecutive decode calls on one
    // workspace reproduce fresh-workspace verdicts for both decoders.
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder mwpm(dem, 1e-3);
    UnionFindDecoder uf(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 50, 2e-3, 73);
    DecodeWorkspace reused_mwpm;
    DecodeWorkspace reused_uf;
    int nonzero = 0;
    for (const auto &defects : shots) {
        if (!defects.empty())
            ++nonzero;
        ASSERT_EQ(mwpm.decodeSparse(defects.data(), defects.size(),
                                    reused_mwpm),
                  mwpm.decode(defects));
        ASSERT_EQ(uf.decodeSparse(defects.data(), defects.size(),
                                  reused_uf),
                  uf.decode(defects));
    }
    EXPECT_GE(nonzero, 3);
}

TEST(DecodePipeline, DuplicateDefectIdsTerminate)
{
    // A repeated detector id must not corrupt the union-find's
    // intrusive frontier list (self-cycle -> infinite loop) and must
    // decode like a single occurrence for both decoders.
    RotatedSurfaceCode code(3);
    DetectorModel dem = surfaceDem(code, 3, Basis::Z);
    UnionFindDecoder uf(dem, 1e-3);
    MwpmDecoder mwpm(dem, 1e-3);

    const std::vector<int> dup = {5, 5};
    const std::vector<int> once = {5};
    EXPECT_EQ(uf.decode(dup), uf.decode(once));
    const std::vector<int> mixed = {2, 5, 5, 7};
    const std::vector<int> mixed_once = {2, 5, 7};
    EXPECT_EQ(uf.decode(mixed), uf.decode(mixed_once));
    (void)mwpm.decode(dup);   // must terminate
}

TEST(DecodePipeline, ZeroDefectFastPath)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = surfaceDem(code, 3, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    BatchDecoder pipeline(decoder);

    EXPECT_FALSE(pipeline.decodeOne(nullptr, 0));
    EXPECT_FALSE(pipeline.decodeOne(nullptr, 0));
    EXPECT_EQ(pipeline.stats().zeroDefect, 2u);
    EXPECT_EQ(pipeline.stats().decoded, 0u);
    // Zero-defect shots never enter the cache.
    EXPECT_EQ(pipeline.cacheStats().hits + pipeline.cacheStats().misses,
              0u);
}

TEST(DecodePipeline, UnionFindDecodeIsAllocationFreeInSteadyState)
{
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 40, 3e-3, 74);
    DecodeWorkspace ws;
    // Warmup sizes every workspace array.
    for (const auto &defects : shots)
        decoder.decodeSparse(defects.data(), defects.size(), ws);

    const uint64_t before = g_allocations.load();
    bool sink = false;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &defects : shots)
            sink ^= decoder.decodeSparse(defects.data(),
                                         defects.size(), ws);
    }
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(after, before) << "union-find decode allocated on the "
                                "steady-state path (sink="
                             << sink << ")";
}

TEST(DecodePipeline, ZeroDefectDecodeAllocatesNothingForBothDecoders)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = surfaceDem(code, 3, Basis::Z);
    MwpmDecoder mwpm(dem, 1e-3);
    UnionFindDecoder uf(dem, 1e-3);
    DecodeWorkspace ws;

    const uint64_t before = g_allocations.load();
    bool sink = mwpm.decodeSparse(nullptr, 0, ws);
    sink ^= uf.decodeSparse(nullptr, 0, ws);
    EXPECT_EQ(g_allocations.load(), before) << sink;
}

TEST(DecodePipeline, MwpmDecodeIsAllocationFreeInSteadyState)
{
    // The blossom solver now lives in the workspace's MatcherScratch:
    // once warmed up on a shot set, repeating the set must perform
    // zero heap allocations end to end (the last piece of the
    // zero-alloc decode story; previously the Matcher rebuilt its
    // vectors on every matching call).
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 40, 3e-3, 76);
    DecodeWorkspace ws;
    // Two warmup passes: the first sizes every array, the second lets
    // per-blossom-slot capacities settle.
    for (int warmup = 0; warmup < 2; ++warmup) {
        for (const auto &defects : shots)
            decoder.decodeSparse(defects.data(), defects.size(), ws);
    }

    const uint64_t before = g_allocations.load();
    bool sink = false;
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &defects : shots)
            sink ^= decoder.decodeSparse(defects.data(),
                                         defects.size(), ws);
    }
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(after, before) << "MWPM decode allocated on the "
                                "steady-state path (sink="
                             << sink << ")";
}

TEST(DecodePipeline, MatcherScratchReuseMatchesThrowawaySolves)
{
    // Same instances through one persistent scratch and through
    // fresh solves must produce identical matchings.
    Rng rng(11);
    MatcherScratch scratch;
    for (int iter = 0; iter < 30; ++iter) {
        const int n = 2 + (int)rng.randint(10);
        std::vector<MatchEdge> edges;
        for (int i = 0; i < n; ++i) {
            for (int j = i + 1; j < n; ++j)
                edges.push_back(
                    {i, j, (int64_t)(1 + rng.randint(50))});
            edges.push_back({i, n + i, (int64_t)(1 + rng.randint(50))});
        }
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j)
                edges.push_back({n + i, n + j, 0});

        std::vector<MatchEdge> a(edges), b(edges);
        std::vector<int> fresh, reused;
        minWeightPerfectMatchingInPlace(2 * n, a, fresh);
        minWeightPerfectMatchingInPlace(2 * n, b, reused, scratch);
        ASSERT_EQ(fresh, reused) << "instance " << iter;
    }
}

TEST(DecodePipeline, TruncatedKeyConstructedCollisionNeverReplays)
{
    // Constructed collision: keyDetectorLimit = 10 excludes defects
    // >= 10 from the HASH, so {1, 4, 12} and {1, 4, 17} share a probe
    // chain — but a hit must verify the full stored list, so the
    // tail-divergent list must miss instead of replaying the first
    // list's verdict (the mode is miss-only-approximate, never wrong).
    SyndromeCacheOptions options;
    options.keyDetectorLimit = 10;
    SyndromeCache cache(options);

    const std::vector<int> a = {1, 4, 12};
    const std::vector<int> same_prefix = {1, 4, 17};
    const std::vector<int> other_prefix = {1, 5, 12};
    cache.insert(syndromeHash(a.data(), a.size()), a.data(), a.size(),
                 true);
    bool verdict = false;
    EXPECT_FALSE(cache.lookup(syndromeHash(same_prefix.data(), 3),
                              same_prefix.data(), 3, verdict));
    EXPECT_FALSE(cache.lookup(syndromeHash(other_prefix.data(), 3),
                              other_prefix.data(), 3, verdict));
    // The identical full list still hits with its own verdict.
    EXPECT_TRUE(
        cache.lookup(syndromeHash(a.data(), 3), a.data(), 3, verdict));
    EXPECT_TRUE(verdict);

    // Both colliding lists can be cached side by side and each replays
    // its own verdict.
    cache.insert(syndromeHash(same_prefix.data(), 3),
                 same_prefix.data(), 3, false);
    EXPECT_TRUE(cache.lookup(syndromeHash(same_prefix.data(), 3),
                             same_prefix.data(), 3, verdict));
    EXPECT_FALSE(verdict);
    EXPECT_TRUE(
        cache.lookup(syndromeHash(a.data(), 3), a.data(), 3, verdict));
    EXPECT_TRUE(verdict);
}

TEST(DecodePipeline, TruncatedKeyVerdictsMatchExactPipeline)
{
    // Truncated keying only coarsens the hash; every replay is
    // verified against the full defect list, so verdict streams and
    // hit counts must match the exact pipeline shot for shot.
    RotatedSurfaceCode code(3);
    const int rounds = 6;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    UnionFindDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 600, 1.5e-3, 77);

    SyndromeCacheOptions exact;
    BatchDecoder exact_pipe(decoder, exact);
    SyndromeCacheOptions truncated;
    // Hash all but the last two detector rows.
    truncated.keyDetectorLimit =
        (uint32_t)((rounds - 1) * code.numBasisStabilizers(Basis::Z));
    BatchDecoder trunc_pipe(decoder, truncated);

    for (const auto &defects : shots) {
        const bool exact_verdict =
            exact_pipe.decodeOne(defects.data(), defects.size());
        const bool trunc_verdict =
            trunc_pipe.decodeOne(defects.data(), defects.size());
        ASSERT_EQ(exact_verdict, trunc_verdict);
    }
    EXPECT_EQ(trunc_pipe.stats().cacheHits,
              exact_pipe.stats().cacheHits);
    EXPECT_GT(trunc_pipe.stats().cacheHits, 0u);
}

TEST(DecodePipeline, ExperimentDerivesTruncatedKeyFromRounds)
{
    // config.syndromeCache.truncateRounds flows through the batched
    // experiment; with full-list verification the truncated run is
    // verdict-identical to the exact run, not just statistically
    // close.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 6;
    cfg.shots = 1500;
    cfg.seed = 31337;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.batchWidth = 64;
    // One worker: hit counts depend on which worker's cache sees
    // which word-group, so they are only run-to-run comparable
    // single-threaded (verdicts are identical at any thread count).
    cfg.threads = 1;

    MemoryExperiment exact(code, cfg);
    auto exact_result = exact.run(PolicyKind::Eraser);

    cfg.syndromeCache.truncateRounds = 2;
    MemoryExperiment truncated(code, cfg);
    auto trunc_result = truncated.run(PolicyKind::Eraser);

    EXPECT_EQ(trunc_result.syndromeCacheHits,
              exact_result.syndromeCacheHits);
    ASSERT_GT(exact_result.logicalErrors, 0u);
    EXPECT_EQ(exact_result.logicalErrors, trunc_result.logicalErrors);
}

TEST(DecodePipeline, MwpmWorkspaceFootprintStabilizes)
{
    // Steady-state MWPM decode allocates nothing (see
    // MwpmDecodeIsAllocationFreeInSteadyState); the workspace's own
    // footprint must likewise stop growing once decode reaches steady
    // state.
    RotatedSurfaceCode code(5);
    const int rounds = 10;
    DetectorModel dem = surfaceDem(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto shots = sampleDefectSets(code, rounds, 60, 3e-3, 75);
    DecodeWorkspace ws;
    for (const auto &defects : shots)
        decoder.decodeSparse(defects.data(), defects.size(), ws);
    const size_t footprint = ws.footprintBytes();
    EXPECT_GT(footprint, 0u);
    for (int repeat = 0; repeat < 3; ++repeat) {
        for (const auto &defects : shots)
            decoder.decodeSparse(defects.data(), defects.size(), ws);
    }
    EXPECT_EQ(ws.footprintBytes(), footprint);
}

/** Lane `lane`'s slice of a batched record, as the scalar record a
 *  one-shot FrameSimulator run would leave. */
template <int NW>
std::vector<MeasureRecord>
laneRecords(const std::vector<BatchMeasureRecordT<NW>> &record, int lane)
{
    auto bit = [lane](const LaneWord<NW> &w) {
        return ((laneWord(w, lane >> 6) >> (lane & 63)) & 1) != 0;
    };
    std::vector<MeasureRecord> out;
    for (const auto &rec : record) {
        if (!bit(rec.mask))
            continue;
        MeasureRecord m;
        m.qubit = rec.qubit;
        m.stab = rec.stab;
        m.round = rec.round;
        m.flip = bit(rec.flips);
        m.leakedLabel = bit(rec.leakedLabels);
        m.finalData = rec.finalData;
        m.lrcData = rec.lrcData;
        out.push_back(m);
    }
    return out;
}

/**
 * The word-scan extractor against the scalar extractDefects, lane by
 * lane, on noisy (leaky) program replays: every lane's defect list,
 * observable bit, hash and nonzero bit must equal what the scalar
 * extractor makes of that lane's slice of the record.
 */
template <int NW>
void
expectSparseMatchesScalar(const CircuitProgram &prog, uint64_t seed)
{
    constexpr int kLanes = BatchFrameSimulatorT<NW>::kMaxLanes;
    BatchFrameSimulatorT<NW> sim(prog.numQubits,
                                 ErrorModel::standard(5e-3), kLanes,
                                 seed, 0);
    sim.executeProgram(prog);

    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    extractor.extract(prog.detectors, prog.rounds, sim.record(), kLanes,
                      syndrome);
    ASSERT_EQ(syndrome.numLanes, kLanes);
    ASSERT_EQ(syndrome.numWords, NW);

    int nonzero = 0;
    for (int l = 0; l < kLanes; ++l) {
        const ShotOutcome outcome = extractDefects(
            prog.detectors, prog.rounds, laneRecords(sim.record(), l));
        const std::vector<int> sparse(
            syndrome.laneBegin(l),
            syndrome.laneBegin(l) + syndrome.laneSize(l));
        ASSERT_EQ(sparse, outcome.defects) << "lane " << l;
        ASSERT_EQ(syndrome.laneObservable(l), outcome.observableFlip)
            << "lane " << l;
        ASSERT_EQ(syndrome.laneHash[l],
                  syndromeHash(outcome.defects.data(),
                               outcome.defects.size()))
            << "lane " << l;
        ASSERT_EQ(syndrome.laneNonzero(l), !outcome.defects.empty())
            << "lane " << l;
        nonzero += !outcome.defects.empty();
    }
    // The comparison is only worth something if lanes fire.
    EXPECT_GT(nonzero, kLanes / 2);
}

TEST(DecodePipeline, SparseExtractionMatchesScalarPerLane)
{
    RotatedSurfaceCode code(3);
    for (Basis basis : {Basis::Z, Basis::X}) {
        SCOPED_TRACE(basis == Basis::Z ? "basis Z" : "basis X");
        const CircuitProgram prog = surfaceProgram(code, 6, basis);
        expectSparseMatchesScalar<1>(prog, 913);
        expectSparseMatchesScalar<4>(prog, 914);
        expectSparseMatchesScalar<8>(prog, 915);
    }
}

TEST(DecodePipeline, LaneHashesDedupeIdenticalSyndromes)
{
    // Lanes with identical defect lists must share a hash; the cache
    // verifies full equality on top, so collisions only cost time.
    std::vector<int> a = {3, 17, 42};
    std::vector<int> b = {3, 17, 42};
    std::vector<int> c = {3, 17, 43};
    EXPECT_EQ(syndromeHash(a.data(), a.size()),
              syndromeHash(b.data(), b.size()));
    EXPECT_NE(syndromeHash(a.data(), a.size()),
              syndromeHash(c.data(), c.size()));
    EXPECT_NE(syndromeHash(a.data(), 2), syndromeHash(a.data(), 3));
}

TEST(DecodePipeline, SyndromeCacheVerifiesFullListOnHashCollision)
{
    SyndromeCacheOptions options;
    options.tableLog2 = 4;
    SyndromeCache cache(options);
    const std::vector<int> a = {1, 2, 3};
    const std::vector<int> b = {9, 8, 7};
    cache.insert(12345, a.data(), a.size(), true);
    bool verdict = false;
    // Same hash, different defects: must MISS, not replay a's verdict.
    EXPECT_FALSE(cache.lookup(12345, b.data(), b.size(), verdict));
    EXPECT_TRUE(cache.lookup(12345, a.data(), a.size(), verdict));
    EXPECT_TRUE(verdict);
}

TEST(DecodePipeline, SyndromeCacheFlushesWhenFull)
{
    SyndromeCacheOptions options;
    options.tableLog2 = 3;     // 8 slots -> flush at 6 entries
    options.arenaCapacity = 64;
    SyndromeCache cache(options);
    bool verdict = false;
    for (int i = 0; i < 100; ++i) {
        std::vector<int> defects = {i, i + 1000};
        const uint64_t h =
            syndromeHash(defects.data(), defects.size());
        cache.insert(h, defects.data(), defects.size(), i & 1);
    }
    EXPECT_GT(cache.stats().flushes, 0u);
    // Still functional after flushes.
    std::vector<int> last = {99, 1099};
    const uint64_t h = syndromeHash(last.data(), last.size());
    EXPECT_TRUE(cache.lookup(h, last.data(), last.size(), verdict));
    EXPECT_TRUE(verdict);
}

TEST(DecodePipeline, CustomDecoderFactoryIsUsed)
{
    // The injection point for any Decoder implementation: the
    // factory-built decoder must drive the verdicts.
    struct AlwaysFlip : Decoder
    {
        bool
        decodeSparse(const int *, size_t,
                     DecodeWorkspace &) const override
        {
            return true;   // predict "flip" even for empty syndromes
        }
    };

    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 3;
    cfg.shots = 50;
    cfg.seed = 5;
    cfg.em = ErrorModel::noiseless();
    cfg.batchWidth = 1;
    // The decode-per-shot loop hands every shot to decoder_, empty
    // syndromes included (the pipeline's zero-defect fast path would
    // answer those without asking the decoder).
    cfg.batchDecode = false;
    MemoryExperiment exp(code, cfg,
                         [](const DetectorModel &, double) {
                             return std::make_unique<AlwaysFlip>();
                         });
    // Noiseless shots never flip the observable, so a decoder that
    // always predicts a flip is wrong on every shot.
    auto result = exp.run(PolicyKind::Never);
    EXPECT_EQ(result.logicalErrors, cfg.shots);
}

} // namespace
} // namespace qec
