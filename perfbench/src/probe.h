/**
 * @file
 * Layer-by-layer replay of one experiment's word-groups, with a span
 * around every call into a layer's public API:
 *
 *   probe.group                      one word-group (parent of all below)
 *     sim.round                      BatchFrameSimulatorT::executeProgramRound
 *     core.controller_round          BatchEraserController::nextRound
 *     core.policy_round              LrcPolicy::nextRound (uniform policies)
 *     sim.final                      BatchFrameSimulatorT::executeProgramFinal
 *     decoder.extract_group          SparseSyndromeExtractor::extract
 *     decoder.decode_group           BatchDecoder::decodeBatch
 *
 * The replay follows the experiment harness's word-group loop
 * (adaptive LRC tails included), so its logical-error and LRC counts
 * for a group must equal ExperimentSession::runPlannedUnit's for the
 * same group — the benchmark checks that, which proves the split
 * measures the same computation. What the probe's glue between calls
 * costs (syndrome gathering, tail collection) is its group span's
 * self time.
 */

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "decoder/batch_decoder.h"
#include "exp/memory_experiment.h"

namespace perfbench
{

/** What one replayed word-group produced. */
struct ProbeGroup
{
    uint64_t lanes = 0;
    uint64_t logicalErrors = 0;
    uint64_t lrcsScheduled = 0;
    uint64_t defects = 0;
    /** Lane-rounds executed by executeProgramRound. */
    uint64_t simLaneRounds = 0;
    /** Id of the group's probe.group span (0 when untraced). */
    uint64_t spanId = 0;
};

class LayerProbe
{
  public:
    /** `exp` must decode and outlive the probe; `graph` is the
     *  component graph handed to each worker's BatchDecoder. */
    LayerProbe(const qec::MemoryExperiment &exp, qec::PolicyKind kind,
               std::shared_ptr<const qec::ComponentGraph> graph,
               unsigned slots);
    ~LayerProbe();

    /** Replay the group of `lanes` shots starting at `first_shot` on
     *  worker slot `slot` (distinct slots may run concurrently). */
    ProbeGroup runGroup(uint64_t first_shot, int lanes, unsigned slot,
                        uint64_t parent_span);

  private:
    struct Slot;
    template <int NW>
    ProbeGroup runGroupT(uint64_t first_shot, int lanes, Slot &slot,
                         uint64_t parent_span);

    const qec::MemoryExperiment &exp_;
    qec::PolicyFactory factory_;
    std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
