/**
 * @file
 * Leakage storm: drive the simulator round-by-round with the
 * lower-level API, force a burst of leakage onto a cluster of data
 * qubits mid-run, and watch the ERASER controller hunt it down.
 * Prints an ASCII timeline of the leaked-qubit count and, around the
 * storm, a lattice map showing which qubits are leaked (L) and which
 * the controller scheduled for an LRC (*).
 *
 * This example exercises: RotatedSurfaceCode, a one-lane
 * BatchFrameSimulator driven op by op through execute(op, mask),
 * QecScheduleGenerator, EraserPolicy and the RoundObservation plumbing
 * — everything the MemoryExperiment harness wires up for you.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/qsg.h"
#include "sim/batch_frame_simulator.h"

using namespace qec;

namespace
{

void
printLattice(const RotatedSurfaceCode &code,
             const BatchFrameSimulator &sim,
             const std::vector<LrcPair> &scheduled)
{
    const int d = code.distance();
    std::vector<uint8_t> lrc(code.numData(), 0);
    for (const auto &pair : scheduled)
        lrc[pair.data] = 1;
    for (int r = 0; r < d; ++r) {
        std::printf("    ");
        for (int c = 0; c < d; ++c) {
            const int q = code.dataId(r, c);
            char ch = '.';
            if (sim.leaked(q, 0) && lrc[q])
                ch = '#';   // leaked and about to be cleaned
            else if (sim.leaked(q, 0))
                ch = 'L';
            else if (lrc[q])
                ch = '*';   // scheduled (speculation)
            std::printf("%c ", ch);
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    const int d = 7;
    const int rounds = 40;
    const int storm_round = 12;
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);

    ErrorModel em = ErrorModel::standard(1e-3);
    // One shot (lane 0) of seed 2024.
    BatchFrameSimulator sim(code.numQubits(), em, 1, 2024, 0);
    const auto lane = sim.liveMask();
    QecScheduleGenerator qsg(code, RemovalProtocol::SwapLrc);
    EraserPolicy policy(code, lookup, /*multi_level=*/false);

    std::printf("distance-%d code, ERASER controller, leakage storm"
                " at round %d\n\n", d, storm_round);

    std::vector<LrcPair> lrcs;   // round 0: nothing scheduled yet
    std::vector<uint8_t> prev_flips(code.numStabilizers(), 0);

    RoundObservation obs;
    obs.events.resize(code.numStabilizers());
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.resize(code.numData());
    obs.trueLeakedData.assign(code.numData(), 0);

    for (int r = 0; r < rounds; ++r) {
        if (r == storm_round) {
            // A cosmic-ray-style burst: leak a 2x2 cluster.
            for (int dr = 2; dr <= 3; ++dr)
                for (int dc = 2; dc <= 3; ++dc)
                    sim.setLeaked(code.dataId(dr, dc), true, lane);
            std::printf("round %2d: >>> storm! 4 data qubits leaked"
                        " <<<\n", r);
        }

        const size_t mark = sim.record().size();
        RoundSchedule sched = qsg.generate(r, lrcs);
        for (const Op &op : sched.ops)
            sim.execute(op, lane);

        // Syndrome flips -> detection events.
        std::vector<uint8_t> flips(code.numStabilizers(), 0);
        for (size_t i = mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab >= 0)
                flips[rec.stab] = rec.flips & 1;
        }
        for (int s = 0; s < code.numStabilizers(); ++s)
            obs.events[s] = r == 0 ? 0 : (flips[s] ^ prev_flips[s]);
        prev_flips = flips;

        std::fill(obs.hadLrc.begin(), obs.hadLrc.end(), 0);
        for (const auto &pair : lrcs)
            obs.hadLrc[pair.data] = 1;
        obs.round = r;
        lrcs = policy.nextRound(obs);

        const int leaked_data = (int)sim.countLeaked(0, code.numData());
        const int leaked_parity =
            (int)sim.countLeaked(code.numData(), code.numQubits());
        std::printf("round %2d: leaked data %2d, parity %2d, LRCs"
                    " next round %2zu  |%s\n",
                    r, leaked_data, leaked_parity, lrcs.size(),
                    std::string(leaked_data, '#').c_str());
        if (r >= storm_round && r <= storm_round + 3) {
            printLattice(code, sim, lrcs);
        }
    }

    std::printf("\nLegend: L leaked, * scheduled for LRC, # both.\n");
    std::printf("The controller spots the burst from the randomized\n"
                "parity checks and schedules LRCs within 1-2 rounds.\n");
    return 0;
}
