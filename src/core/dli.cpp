#include "core/dli.h"

#include "base/logging.h"

namespace qec
{

DynamicLrcInsertion::DynamicLrcInsertion(const RotatedSurfaceCode &code,
                                         const SwapLookupTable &lookup,
                                         DliAllocator allocator)
    : code_(code), lookup_(lookup), allocator_(allocator)
{
}

std::vector<LrcPair>
DynamicLrcInsertion::allocate(LeakageTrackingTable &ltt,
                              const ParityUsageTable &putt,
                              std::vector<int> &used_stabs) const
{
    if (allocator_ == DliAllocator::LookupTable)
        return allocateLookup(ltt, putt, used_stabs);
    return allocateMatching(ltt, putt, used_stabs);
}

std::vector<LrcPair>
DynamicLrcInsertion::allocateLookup(LeakageTrackingTable &ltt,
                                    const ParityUsageTable &putt,
                                    std::vector<int> &used_stabs) const
{
    std::vector<LrcPair> lrcs;
    if (ltt.markedCount() == 0)
        return lrcs;   // quiescent round: nothing to place, no work
    std::vector<uint8_t> taken(code_.numStabilizers(), 0);

    for (int q = 0; q < ltt.size(); ++q) {
        if (!ltt.marked(q))
            continue;
        const SwapEntry &entry = lookup_.entry(q);
        int chosen = -1;
        if (!putt.used(entry.primary) && !taken[entry.primary]) {
            chosen = entry.primary;
        } else {
            for (int backup : entry.backups) {
                if (!putt.used(backup) && !taken[backup]) {
                    chosen = backup;
                    break;
                }
            }
        }
        if (chosen < 0)
            continue;   // Stays marked; retried next round.
        taken[chosen] = 1;
        used_stabs.push_back(chosen);
        lrcs.push_back({q, chosen});
        ltt.clear(q);
    }
    return lrcs;
}

template <typename Lane>
void
DynamicLrcInsertion::allocateLane(int lane, const int *cand_begin,
                                  const int *cand_end,
                                  BatchLeakageTrackingTable<Lane> &ltt,
                                  const BatchParityUsageTable<Lane> &putt,
                                  DliLaneScratch &scratch,
                                  std::vector<LrcPair> &lrcs) const
{
    lrcs.clear();
    if (allocator_ == DliAllocator::LookupTable) {
        if ((int)scratch.takenEpoch.size() < code_.numStabilizers())
            scratch.takenEpoch.assign(code_.numStabilizers(), 0);
        const int epoch = ++scratch.epoch;
        for (const int *it = cand_begin; it != cand_end; ++it) {
            const int q = *it;
            if (!ltt.marked(q, lane))
                continue;
            const SwapEntry &entry = lookup_.entry(q);
            int chosen = -1;
            if (!putt.used(entry.primary, lane) &&
                scratch.takenEpoch[entry.primary] != epoch) {
                chosen = entry.primary;
            } else {
                for (int backup : entry.backups) {
                    if (!putt.used(backup, lane) &&
                        scratch.takenEpoch[backup] != epoch) {
                        chosen = backup;
                        break;
                    }
                }
            }
            if (chosen < 0)
                continue;   // Stays marked; retried next round.
            scratch.takenEpoch[chosen] = epoch;
            lrcs.push_back({q, chosen});
            ltt.clear(q, lane);
        }
        return;
    }

    // Exact matching is an ablation path: like the per-lane reference
    // allocateMatching, it builds its instance vectors per call (the
    // paper-default lookup branch above is the allocation-free one).
    std::vector<int> marked;
    for (const int *it = cand_begin; it != cand_end; ++it) {
        if (ltt.marked(*it, lane))
            marked.push_back(*it);
    }
    std::vector<std::vector<int>> adjacency(marked.size());
    for (size_t i = 0; i < marked.size(); ++i) {
        for (int s : code_.stabilizersOfData(marked[i])) {
            if (!putt.used(s, lane))
                adjacency[i].push_back(s);
        }
    }
    auto match = maxBipartiteMatching((int)marked.size(), adjacency,
                                      code_.numStabilizers());
    for (size_t i = 0; i < marked.size(); ++i) {
        if (match[i] < 0)
            continue;
        lrcs.push_back({marked[i], match[i]});
        ltt.clear(marked[i], lane);
    }
}

template void DynamicLrcInsertion::allocateLane<uint64_t>(
    int, const int *, const int *,
    BatchLeakageTrackingTable<uint64_t> &,
    const BatchParityUsageTable<uint64_t> &, DliLaneScratch &,
    std::vector<LrcPair> &) const;
template void DynamicLrcInsertion::allocateLane<WordVec<4>>(
    int, const int *, const int *,
    BatchLeakageTrackingTable<WordVec<4>> &,
    const BatchParityUsageTable<WordVec<4>> &, DliLaneScratch &,
    std::vector<LrcPair> &) const;
template void DynamicLrcInsertion::allocateLane<WordVec<8>>(
    int, const int *, const int *,
    BatchLeakageTrackingTable<WordVec<8>> &,
    const BatchParityUsageTable<WordVec<8>> &, DliLaneScratch &,
    std::vector<LrcPair> &) const;

std::vector<LrcPair>
DynamicLrcInsertion::allocateMatching(LeakageTrackingTable &ltt,
                                      const ParityUsageTable &putt,
                                      std::vector<int> &used_stabs) const
{
    if (ltt.markedCount() == 0)
        return {};
    const auto marked = ltt.markedList();
    std::vector<std::vector<int>> adjacency(marked.size());
    for (size_t i = 0; i < marked.size(); ++i) {
        for (int s : code_.stabilizersOfData(marked[i])) {
            if (!putt.used(s))
                adjacency[i].push_back(s);
        }
    }
    auto match = maxBipartiteMatching((int)marked.size(), adjacency,
                                      code_.numStabilizers());

    std::vector<LrcPair> lrcs;
    for (size_t i = 0; i < marked.size(); ++i) {
        if (match[i] < 0)
            continue;
        used_stabs.push_back(match[i]);
        lrcs.push_back({marked[i], match[i]});
        ltt.clear(marked[i]);
    }
    return lrcs;
}

} // namespace qec
