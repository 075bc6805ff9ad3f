/**
 * @file
 * Dynamic LRC Insertion (Sections 4.3-4.4).
 *
 * Given the suspect set (LTT) and the parity cooldown set (PUTT),
 * allocate a SWAP partner for as many suspect data qubits as possible
 * for the next round. The paper's hardware walks the SWAP Lookup
 * Table (primary, then backups); an exact maximum-matching allocator
 * is provided as an ablation and for the idealized Optimal policy.
 */

#ifndef QEC_CORE_DLI_H
#define QEC_CORE_DLI_H

#include <vector>

#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "core/swap_lookup.h"
#include "core/tracking_tables.h"

namespace qec
{

/** Allocation strategy for Dynamic LRC Insertion. */
enum class DliAllocator
{
    /** Paper hardware: primary, then backup entries, first fit. */
    LookupTable,
    /** Exact maximum bipartite matching (upper bound ablation). */
    ExactMatching,
};

/**
 * Reusable scratch for the word-parallel engine's per-lane DLI
 * fallback: the "parity qubit taken this round" set is epoch-versioned
 * so consecutive lanes never pay a table wipe. One instance per
 * controller, never shared across threads.
 */
struct DliLaneScratch
{
    std::vector<int> takenEpoch;
    int epoch = 0;
};

class DynamicLrcInsertion
{
  public:
    DynamicLrcInsertion(const RotatedSurfaceCode &code,
                        const SwapLookupTable &lookup,
                        DliAllocator allocator =
                            DliAllocator::LookupTable);

    /**
     * Allocate LRCs for the next round.
     *
     * Marked data qubits that receive an LRC are cleared from the LTT;
     * qubits that could not be scheduled stay marked and retry next
     * round. Parity qubits allocated here must be blocked next round;
     * the caller feeds `usedStabs` into PUTT::advanceRound.
     *
     * @param ltt   Suspect table (updated in place).
     * @param putt  Cooldown table for the current round.
     * @param[out] used_stabs Stabilizers allocated in this round.
     * @return LRC pairs for the next syndrome extraction round.
     */
    std::vector<LrcPair> allocate(LeakageTrackingTable &ltt,
                                  const ParityUsageTable &putt,
                                  std::vector<int> &used_stabs) const;

    /**
     * Allocate LRCs for one lane of a word-parallel tracking-table
     * pair — the per-lane fallback the batch controller runs only on
     * lanes whose speculation-active mask is nonzero. Walks exactly
     * the order `allocate` walks (candidates ascending, primary then
     * backups / exact matching), so lane l's output is bit-identical
     * to a per-lane policy's. Allocated qubits are cleared from lane
     * l of the LTT; the caller feeds the chosen stabs (the pairs'
     * `stab` fields) into BatchParityUsageTable::markPending.
     *
     * @param lane       Lane to allocate for.
     * @param cand_begin Ascending data-qubit ids, a superset of lane
     *                   l's marks (the batch controller hands each
     *                   lane exactly its own marks).
     * @param cand_end   End of the candidate range.
     * @param ltt        Word-parallel suspect table (updated in place).
     * @param putt       Word-parallel cooldown table, current round.
     * @param scratch    Reusable epoch-versioned taken set.
     * @param[out] lrcs  Cleared, then filled with lane l's pairs.
     */
    template <typename Lane>
    void allocateLane(int lane, const int *cand_begin,
                      const int *cand_end,
                      BatchLeakageTrackingTable<Lane> &ltt,
                      const BatchParityUsageTable<Lane> &putt,
                      DliLaneScratch &scratch,
                      std::vector<LrcPair> &lrcs) const;

  private:
    std::vector<LrcPair> allocateLookup(
        LeakageTrackingTable &ltt, const ParityUsageTable &putt,
        std::vector<int> &used_stabs) const;
    std::vector<LrcPair> allocateMatching(
        LeakageTrackingTable &ltt, const ParityUsageTable &putt,
        std::vector<int> &used_stabs) const;

    const RotatedSurfaceCode &code_;
    const SwapLookupTable &lookup_;
    DliAllocator allocator_;
};

} // namespace qec

#endif // QEC_CORE_DLI_H
