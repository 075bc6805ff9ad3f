/**
 * @file
 * Streaming (sliding-window) decode demo: decode a memory experiment
 * whose round count is far beyond the usual 3d — the regime of a real
 * always-on quantum memory, where the decoder cannot wait for the
 * whole history — in windows of 2d detector rows advanced d rows at a
 * time, and show the two properties the windowed mode guarantees:
 *
 *  1. Exactness: every shot's verdict, and therefore the run's LER
 *     and verdict fingerprint, is bit-identical to the full-history
 *     decode. Early commits are real (most clusters retire long
 *     before the run ends), yet nothing is approximated: a cluster
 *     commits only when it is provably beyond the decoder's certified
 *     growth bound from every unseen row and every deferred defect.
 *
 *  2. Bounded decoder state: the number of defects any single window
 *     decode holds live (committed clusters are retired to one parity
 *     bit each) stays near the window's own content, not the run
 *     length — the knob that lets a fixed-size decoder chase an
 *     unbounded round stream.
 */

#include <algorithm>
#include <cstdio>

#include "code/rotated_surface_code.h"
#include "decoder/sparse_syndrome.h"
#include "exp/memory_experiment.h"
#include "sim/batch_frame_simulator.h"

using namespace qec;

namespace
{

ExperimentResult
runConfigured(const RotatedSurfaceCode &code, const ExperimentConfig &cfg)
{
    MemoryExperiment exp(code, cfg);
    return exp.run(PolicyKind::Eraser);
}

} // namespace

int
main()
{
    const int d = 5;
    RotatedSurfaceCode code(d);

    ExperimentConfig cfg;
    cfg.rounds = 120; // 8x the usual 3d window of a memory sweep
    cfg.shots = 3000;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.batchWidth = 64;

    std::printf("d=%d memory experiment, %d rounds (3d would be %d), "
                "%llu shots, p = 1e-3\n\n",
                d, cfg.rounds, 3 * d,
                (unsigned long long)cfg.shots);

    // Reference: one whole-history decode per shot.
    const ExperimentResult full = runConfigured(code, cfg);

    // Streaming: 2d-row windows sliding d rows per step.
    cfg.windowLength = 2 * d;
    cfg.windowSlideLength = d;
    const ExperimentResult windowed = runConfigured(code, cfg);

    std::printf("%-22s %14s %14s\n", "", "full-history", "windowed");
    std::printf("%-22s %14s %14s\n", "LER", full.lerString().c_str(),
                windowed.lerString().c_str());
    std::printf("%-22s %14llu %14llu\n", "logical errors",
                (unsigned long long)full.logicalErrors,
                (unsigned long long)windowed.logicalErrors);
    std::printf("%-22s %#14llx %#14llx\n", "verdict fingerprint",
                (unsigned long long)full.verdictFingerprint,
                (unsigned long long)windowed.verdictFingerprint);
    std::printf("%-22s %14s %14llu\n", "windows decoded", "-",
                (unsigned long long)windowed.windowsDecoded);
    if (full.verdictFingerprint != windowed.verdictFingerprint) {
        std::printf("\nFINGERPRINT MISMATCH — windowed decode is "
                    "supposed to be bit-identical!\n");
        return 1;
    }
    std::printf("\nSame fingerprint: every one of the %llu shots got "
                "the identical verdict.\n",
                (unsigned long long)full.shots);

    // Peak live decoder state vs run length. Commits need the
    // certificate to fire — a cluster must sit provably clear of
    // every unseen row and deferred defect — so the payoff regime is
    // deep sub-threshold operation (here p = 1e-4, where real
    // always-on memories would live), with defects sparse enough that
    // clusters retire continuously. The whole-shot decode input grows
    // linearly with the run; the largest single window decode input
    // does not. This part feeds a single pipeline a raw defect
    // stream sampled from the static (LRC-free) program, so it uses
    // the leakage-free channel: leaked qubits fire their neighbours
    // every round until an LRC removes them, and LRC scheduling is
    // the policy harness's job (part one), not the decoder's.
    const double p_stream = 1e-4;
    std::printf("\npeak decode input vs run length at p = 1e-4 "
                "(window still %dx%d):\n",
                cfg.windowLength, cfg.windowSlideLength);
    std::printf("  %8s %14s %14s %10s %10s\n", "rounds",
                "whole-shot max", "window max", "commits",
                "deferrals");
    for (const int rounds : {120, 360, 720}) {
        MemoryExperiment stream_exp(code, [&] {
            ExperimentConfig c = cfg;
            c.rounds = rounds;
            c.em = ErrorModel::withoutLeakage(p_stream);
            return c;
        }());
        BatchDecodeOptions options;
        options.windowLength = cfg.windowLength;
        options.windowSlideLength = cfg.windowSlideLength;
        BatchDecoder pipeline(*stream_exp.decoder(), options,
                              stream_exp.componentGraph());

        // Sample the experiment's own program, LRC slots left empty,
        // 64 shots per word-group.
        const CircuitProgram &prog = *stream_exp.program();
        SparseSyndromeExtractor extractor;
        BatchSyndrome syndrome;
        const int shots = 200;
        uint64_t shot_peak = 0;
        for (int first = 0; first < shots; first += 64) {
            const int lanes = std::min(64, shots - first);
            BatchFrameSimulator sim(prog.numQubits,
                                    ErrorModel::withoutLeakage(p_stream),
                                    lanes, cfg.seed, (uint64_t)first);
            sim.executeProgram(prog);
            extractor.extract(prog.detectors, rounds, sim.record(),
                              lanes, syndrome);
            for (int l = 0; l < lanes; ++l) {
                if (syndrome.laneSize(l) > shot_peak)
                    shot_peak = syndrome.laneSize(l);
                pipeline.decodeOne(syndrome.laneBegin(l),
                                   syndrome.laneSize(l));
            }
        }
        const BatchDecodeStats &st = pipeline.stats();
        std::printf("  %8d %14llu %14llu %10llu %10llu\n", rounds,
                    (unsigned long long)shot_peak,
                    (unsigned long long)st.windowPeakDefects,
                    (unsigned long long)st.windowCommits,
                    (unsigned long long)st.windowDeferrals);
    }
    std::printf("\nThe whole-shot input keeps climbing with the run "
                "length while the window\npeak tracks the 2d-row "
                "window content — bounded decoder memory with\n"
                "bit-exact verdicts. (At defect densities near "
                "threshold the certificate\nrarely proves clusters "
                "apart and streaming degrades gracefully toward\n"
                "one full-history decode — still exact, just no "
                "longer bounded.)\n");
    return 0;
}
