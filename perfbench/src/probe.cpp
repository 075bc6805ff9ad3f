#include "probe.h"

#include <algorithm>
#include <stdexcept>

#include "base/simd_word.h"
#include "core/policies.h"
#include "decoder/sparse_syndrome.h"
#include "sim/batch_frame_simulator.h"
#include "trace.h"

namespace perfbench
{

using namespace qec;

struct LayerProbe::Slot
{
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    std::unique_ptr<BatchDecoder> pipeline;
};

LayerProbe::LayerProbe(const MemoryExperiment &exp, PolicyKind kind,
                       std::shared_ptr<const ComponentGraph> graph,
                       unsigned slots)
    : exp_(exp)
{
    const ExperimentConfig &cfg = exp.config();
    if (!exp.decoder() || !exp.program())
        throw std::invalid_argument("the layer probe needs a decoding "
                                    "experiment");
    factory_ = makePolicyFactory(
        kind, exp.code(), exp.lookup(),
        cfg.protocol == RemovalProtocol::Dqlr);
    BatchDecodeOptions options;
    options.cache = resolveSyndromeCacheOptions(
        cfg.syndromeCache, cfg.rounds,
        exp.code().numBasisStabilizers(cfg.basis));
    options.components = cfg.componentDecode;
    options.windowLength = cfg.windowLength;
    options.windowSlideLength = cfg.windowSlideLength;
    for (unsigned i = 0; i < slots; ++i) {
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->pipeline = std::make_unique<BatchDecoder>(
            *exp.decoder(), options, graph);
    }
}

LayerProbe::~LayerProbe() = default;

ProbeGroup
LayerProbe::runGroup(uint64_t first_shot, int lanes, unsigned slot,
                     uint64_t parent_span)
{
    if (lanes < 2 || lanes > kMaxBatchLanes)
        throw std::invalid_argument("the layer probe replays 2..512 "
                                    "lane word-groups");
    Slot &s = *slots_.at(slot);
    if (lanes <= 64)
        return runGroupT<1>(first_shot, lanes, s, parent_span);
    if (lanes <= 256)
        return runGroupT<4>(first_shot, lanes, s, parent_span);
    return runGroupT<8>(first_shot, lanes, s, parent_span);
}

template <int NW>
ProbeGroup
LayerProbe::runGroupT(uint64_t first_shot, int lanes, Slot &slot,
                      uint64_t parent_span)
{
    using Lane = LaneWord<NW>;
    const CircuitProgram &prog = *exp_.program();
    const ExperimentConfig &cfg = exp_.config();
    const int W = lanes;
    const int NB = (W + 63) / 64;
    const int n_stabs = prog.numStabs;
    const int n_data = prog.numData;

    ProbeGroup out;
    out.lanes = (uint64_t)W;
    Span group("probe.group", parent_span);
    out.spanId = group.id();

    BatchFrameSimulatorT<NW> sim(prog.numQubits, cfg.em, W, cfg.seed,
                                 first_shot);
    const Lane live = sim.liveMask();
    sim.reserveRecord((size_t)cfg.rounds * (1 + (size_t)NB) * n_stabs +
                      n_data);
    sim.bindProgramStreams(prog);

    std::unique_ptr<LrcPolicy> shared = factory_();
    const BatchPolicySpec spec = shared->batchSpec();
    const bool multi_level = shared->usesMultiLevelReadout();
    if (spec.kind == BatchPolicyKind::PerLane)
        throw std::invalid_argument("the layer probe replays "
                                    "word-parallel policies only");

    std::unique_ptr<BatchEraserController<Lane>> controller;
    std::vector<std::vector<LrcPair>> lrcs(W);
    if (spec.kind == BatchPolicyKind::Eraser) {
        controller = std::make_unique<BatchEraserController<Lane>>(
            exp_.code(), exp_.lookup(), spec);
        const auto first = shared->firstRound();
        for (int l = 0; l < W; ++l)
            lrcs[l] = first;
    } else {
        lrcs[0] = shared->firstRound();
    }

    RoundObservation obs;
    obs.events.assign(n_stabs, 0);
    obs.leakedLabels.assign(n_stabs, 0);
    obs.hadLrc.assign(n_data, 0);
    obs.trueLeakedData.assign(n_data, 0);

    std::vector<Lane> flips(n_stabs), labels(n_stabs),
        prev_flips(n_stabs), events(n_stabs), lrc_on_stab(n_stabs);
    std::vector<Lane> sched_mask(n_data);
    std::vector<IrLrcTail> active[NW];

    for (int r = 0; r < cfg.rounds; ++r) {
        // This round's divergent LRC tails, per 64-lane block in
        // first-insertion order.
        std::fill(sched_mask.begin(), sched_mask.end(), Lane{});
        std::fill(lrc_on_stab.begin(), lrc_on_stab.end(), Lane{});
        for (int b = 0; b < NB; ++b)
            active[b].clear();
        if (!controller) {
            for (const LrcPair &pair : lrcs[0]) {
                sched_mask[pair.data] = live;
                lrc_on_stab[pair.stab] = live;
                for (int b = 0; b < NB; ++b)
                    active[b].push_back(
                        {pair.stab, pair.data, laneWord(live, b)});
            }
            out.lrcsScheduled += (uint64_t)lrcs[0].size() * (uint64_t)W;
        } else {
            for (int l = 0; l < W; ++l) {
                const int b = l >> 6;
                const uint64_t bit = uint64_t{1} << (l & 63);
                for (const LrcPair &pair : lrcs[l]) {
                    setLane(sched_mask[pair.data], l);
                    setLane(lrc_on_stab[pair.stab], l);
                    auto it = std::find_if(
                        active[b].begin(), active[b].end(),
                        [&](const IrLrcTail &t) {
                            return t.stab == pair.stab &&
                                   t.data == pair.data;
                        });
                    if (it == active[b].end())
                        active[b].push_back({pair.stab, pair.data, bit});
                    else
                        it->mask |= bit;
                }
                out.lrcsScheduled += lrcs[l].size();
            }
        }

        const size_t record_mark = sim.record().size();
        ProgramLrcFillT<NW> fill;
        fill.lrcOnStab = lrc_on_stab.data();
        fill.blockTails = active;
        fill.multiLevel = multi_level;
        {
            Span s("sim.round");
            sim.executeProgramRound(prog, r, live, &fill, 1);
        }
        out.simLaneRounds += (uint64_t)W;

        std::fill(flips.begin(), flips.end(), Lane{});
        std::fill(labels.begin(), labels.end(), Lane{});
        // Later records of a stabilizer overwrite earlier ones on the
        // lanes they cover (an LRC'd readout replaces the plain one).
        for (size_t i = record_mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab < 0)
                continue;
            Lane &f = flips[rec.stab];
            f = f ^ ((f ^ rec.flips) & rec.mask);
            if (!rec.lrcData) {
                Lane &l = labels[rec.stab];
                l = l ^ ((l ^ rec.leakedLabels) & rec.mask);
            }
        }
        for (int s = 0; s < n_stabs; ++s)
            events[s] = r == 0 ? (prog.detR0[s] ? flips[s] : Lane{})
                               : flips[s] ^ prev_flips[s];

        if (controller) {
            Span s("core.controller_round");
            controller->nextRound(events, labels, sched_mask, live, lrcs);
        } else if (spec.kind == BatchPolicyKind::Uniform) {
            obs.round = r;
            Span s("core.policy_round");
            lrcs[0] = shared->nextRound(obs);
        }
        std::copy(flips.begin(), flips.end(), prev_flips.begin());
    }

    {
        Span s("sim.final");
        sim.executeProgramFinal(prog, live);
    }
    {
        Span s("decoder.extract_group");
        slot.extractor.extract(prog.detectors, cfg.rounds, sim.record(),
                               W, slot.syndrome);
    }
    uint64_t predictions[kMaxBatchWords];
    {
        Span s("decoder.decode_group");
        slot.pipeline->decodeBatch(slot.syndrome, predictions);
    }
    for (int b = 0; b < NB; ++b)
        out.logicalErrors += (uint64_t)__builtin_popcountll(
            (predictions[b] ^ slot.syndrome.observableWords[b]) &
            laneWord(live, b));
    out.defects = slot.syndrome.offsets[(size_t)W];
    return out;
}

} // namespace perfbench
