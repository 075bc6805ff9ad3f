#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "base/logging.h"
#include "decoder/matching.h"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
/** Weight clamp so scaled integer weights never overflow. */
constexpr double kMaxWeight = 1.0e6;
/** Fixed-point scale for blossom weights. */
constexpr double kWeightScale = 1024.0;

double
edgeWeight(double q)
{
    q = std::min(std::max(q, 1.0e-12), 0.499999);
    return std::log((1.0 - q) / q);
}

int64_t
scaled(double w)
{
    w = std::min(w, kMaxWeight);
    return (int64_t)std::llround(w * kWeightScale);
}

} // namespace

MwpmDecoder::MwpmDecoder(const DetectorModel &dem, double p,
                         DecoderOptions options)
    : numDets_(dem.numDetectors()), options_(options),
      boundaryW_(dem.numDetectors(), kInf),
      boundaryObs_(dem.numDetectors(), 0)
{
    // Pass 1: boundary edges + per-detector degrees.
    std::vector<int> degree(numDets_, 0);
    for (const auto &edge : dem.edges) {
        const double q = edge.probability(p);
        if (q <= 0.0)
            continue;
        if (edge.b == kBoundary) {
            const float w = (float)edgeWeight(q);
            if (w < boundaryW_[edge.a]) {
                boundaryW_[edge.a] = w;
                boundaryObs_[edge.a] = edge.obsFlip ? 1 : 0;
            }
            continue;
        }
        ++degree[edge.a];
        ++degree[edge.b];
        ++numEdges_;
    }

    // Pass 2: flat CSR adjacency (counting sort keeps edge order).
    minEdgeW_ = (double)kInf;
    nbrOffsets_.assign((size_t)numDets_ + 1, 0);
    for (int d = 0; d < numDets_; ++d)
        nbrOffsets_[(size_t)d + 1] = nbrOffsets_[d] + degree[d];
    nbrs_.resize(2 * numEdges_);
    std::vector<int> cursor(nbrOffsets_.begin(), nbrOffsets_.end() - 1);
    for (const auto &edge : dem.edges) {
        const double q = edge.probability(p);
        if (q <= 0.0 || edge.b == kBoundary)
            continue;
        const float w = (float)edgeWeight(q);
        const uint8_t obs = edge.obsFlip ? 1 : 0;
        nbrs_[(size_t)cursor[edge.a]++] = {edge.b, w, obs};
        nbrs_[(size_t)cursor[edge.b]++] = {edge.a, w, obs};
        minEdgeW_ = std::min(minEdgeW_, (double)w);
    }

    // Persistent defect-to-boundary distance cache: one multi-source
    // Dijkstra seeded from every detector's direct boundary edge gives
    // the exact shortest boundary route (and its observable parity)
    // for every detector id. Per-shot decodes then never search for a
    // boundary route again.
    boundaryDist_.assign(numDets_, (double)kInf);
    boundaryPathObs_.assign(numDets_, 0);
    using QItem = std::pair<double, int>;
    std::priority_queue<QItem, std::vector<QItem>, std::greater<>> pq;
    for (int d = 0; d < numDets_; ++d) {
        if (boundaryW_[d] < kInf) {
            boundaryDist_[d] = boundaryW_[d];
            boundaryPathObs_[d] = boundaryObs_[d];
            pq.push({boundaryDist_[d], d});
        }
    }
    while (!pq.empty()) {
        auto [dist, u] = pq.top();
        pq.pop();
        if (dist > boundaryDist_[u])
            continue;
        const int row_end = nbrOffsets_[(size_t)u + 1];
        for (int k = nbrOffsets_[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs_[k];
            const double nd = dist + nbr.w;
            if (nd < boundaryDist_[nbr.to]) {
                boundaryDist_[nbr.to] = nd;
                boundaryPathObs_[nbr.to] =
                    boundaryPathObs_[u] ^ nbr.obs;
                pq.push({nd, nbr.to});
            }
        }
    }
}

int
MwpmDecoder::componentSlackHops(const int *defects, size_t count) const
{
    if (count == 0)
        return 0;
    if (!(minEdgeW_ > 0.0) || minEdgeW_ >= kMaxWeight)
        return 0;   // no detector-detector edges: regions never grow
    double bmax = 0.0;
    for (size_t i = 0; i < count; ++i)
        bmax = std::max(bmax,
                        std::min(boundaryDist_[defects[i]], kMaxWeight));
    return (int)std::ceil(bmax / minEdgeW_);
}

bool
MwpmDecoder::decodeSparse(const int *defects, size_t count,
                          DecodeWorkspace &ws) const
{
    const int n = (int)count;
    ws.lastReachHops = 0;
    if (n == 0)
        return false;

    ws.ensureMwpm((size_t)numDets_);
    const uint64_t call = ++ws.epoch;

    if ((int)ws.mwBDist.size() < n) {
        ws.mwBDist.resize(n);
        ws.mwBObs.resize(n);
        ws.mwLocalIndex.resize(n);
        ws.mwCompParent.resize(n);
        ws.mwCandHead.resize(n);
    }
    ws.mwCands.clear();
    std::fill_n(ws.mwCandHead.begin(), n, -1);

    // Largest boundary distance among this shot's defects: a defect
    // pair whose connecting path is longer than both boundary routes
    // combined is never matched (pairing each with the boundary is at
    // most as expensive). A candidate found while settling a node at
    // distance d is at least 2d long, so growth stops at this radius
    // (see the header for why the result is unchanged).
    double bmax_shot = 0.0;
    for (int i = 0; i < n; ++i) {
        bmax_shot = std::max(
            bmax_shot, std::min(boundaryDist_[defects[i]],
                                kMaxWeight));
    }
    const double radius = bmax_shot * (1.0 + 1.0e-9);

    // Reach certificate: every settle obeys nd <= radius, which the
    // certificate bounds by the looser bdist_i + bmax_shot. It stores
    // ceil(bmax_shot / minEdgeW_) + 1 (the +1 covers the meeting edge
    // a candidate probe crosses past a settled frontier); the bdist_i
    // term — bounded by the enclosing shot's bmax — is supplied
    // separately by componentSlackHops, so the composition guard's
    // cert + slack sum bounds the true radius both when the component
    // is decoded alone and when it would be decoded inside the full
    // shot.
    ws.lastReachHops =
        (minEdgeW_ > 0.0 && minEdgeW_ < kMaxWeight)
            ? (int)std::ceil(bmax_shot / minEdgeW_) + 1
            : 0;

    for (int i = 0; i < n; ++i) {
        ws.mwBDist[i] =
            std::min(boundaryDist_[defects[i]], kMaxWeight);
        ws.mwBObs[i] = boundaryPathObs_[defects[i]];
    }

    // Stage 1: one multi-source Dijkstra grows a shortest-path region
    // around every defect simultaneously; where two regions meet, the
    // meeting edge yields a candidate pair. When the shortest i-j
    // path stays inside the two regions (the overwhelmingly common
    // case) the candidate weight is the exact shortest distance; a
    // pair whose shortest path crosses a third defect's region is
    // instead represented through that defect's candidates (the
    // local-matching approximation production decoders use). Every
    // touched node settles at most once per shot (instead of once per
    // nearby defect), and only adjacent-region pairs become
    // candidates, which keeps the matching components small. Growth
    // past the shot's largest boundary distance is pruned: any pair
    // found there is boundary-dominated. Each defect pair keeps only
    // its lightest (w, obs) meeting edge, found through the per-defect
    // chain of its smaller index.
    ws.mwHeap.clear();
    for (int i = 0; i < n; ++i) {
        const int src = defects[i];
        ws.mwStamp[src] = call;
        ws.mwDist[src] = 0.0;
        ws.mwObs[src] = 0;
        ws.mwSettled[src] = 0;
        ws.mwOwner[src] = i;
        ws.mwHeap.push_back({0.0, src});
    }
    std::make_heap(ws.mwHeap.begin(), ws.mwHeap.end(), std::greater<>{});

    while (!ws.mwHeap.empty()) {
        const auto [d, u] = ws.mwHeap.front();
        std::pop_heap(ws.mwHeap.begin(), ws.mwHeap.end(),
                      std::greater<>{});
        ws.mwHeap.pop_back();
        if (ws.mwSettled[u] || d > ws.mwDist[u])
            continue;
        ws.mwSettled[u] = 1;
        ++ws.statSettledNodes;
        const int oi = ws.mwOwner[u];
        const double bdist_i = ws.mwBDist[oi];

        const int row_end = nbrOffsets_[(size_t)u + 1];
        for (int k = nbrOffsets_[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs_[k];
            if (ws.mwStamp[nbr.to] == call &&
                ws.mwSettled[nbr.to]) {
                const int oj = ws.mwOwner[nbr.to];
                if (oj == oi)
                    continue;
                // Region crossing: candidate at the exact shortest
                // distance between the two owners (for this meeting
                // edge; the pair's entry keeps the lightest).
                // Dropped when matching both owners to the boundary
                // is strictly cheaper.
                const double w = d + nbr.w + ws.mwDist[nbr.to];
                if (w > bdist_i + ws.mwBDist[oj])
                    continue;
                const uint8_t obs = ws.mwObs[u] ^ nbr.obs ^
                                    ws.mwObs[nbr.to];
                const int lo = std::min(oi, oj);
                const int hi = std::max(oi, oj);
                int c = ws.mwCandHead[lo];
                while (c >= 0 && ws.mwCands[c].j != hi)
                    c = ws.mwCands[c].next;
                if (c < 0) {
                    ws.mwCands.push_back(
                        {lo, hi, w, obs, ws.mwCandHead[lo]});
                    ws.mwCandHead[lo] = (int)ws.mwCands.size() - 1;
                } else {
                    DecodeWorkspace::Cand &cand = ws.mwCands[c];
                    if (w < cand.w || (w == cand.w && obs < cand.obs)) {
                        cand.w = w;
                        cand.obs = obs;
                    }
                }
                continue;
            }
            const double nd = d + nbr.w;
            if (nd > radius)
                continue;   // boundary-dominated beyond this radius
            if (ws.mwStamp[nbr.to] != call) {
                ws.mwStamp[nbr.to] = call;
                ws.mwSettled[nbr.to] = 0;
                ws.mwDist[nbr.to] = nd;
                ws.mwObs[nbr.to] = ws.mwObs[u] ^ nbr.obs;
                ws.mwOwner[nbr.to] = oi;
                ws.mwHeap.push_back({nd, nbr.to});
                std::push_heap(ws.mwHeap.begin(), ws.mwHeap.end(),
                               std::greater<>{});
            } else if (nd < ws.mwDist[nbr.to] &&
                       !ws.mwSettled[nbr.to]) {
                ws.mwDist[nbr.to] = nd;
                ws.mwObs[nbr.to] = ws.mwObs[u] ^ nbr.obs;
                ws.mwOwner[nbr.to] = oi;
                ws.mwHeap.push_back({nd, nbr.to});
                std::push_heap(ws.mwHeap.begin(), ws.mwHeap.end(),
                               std::greater<>{});
            }
        }
    }

    // Order the distinct pairs by (i, j). The sorted list doubles as
    // the pair -> observable-parity lookup after matching.
    auto byPair = [](const DecodeWorkspace::Cand &x,
                     const DecodeWorkspace::Cand &y) {
        if (x.i != y.i)
            return x.i < y.i;
        return x.j < y.j;
    };
    std::sort(ws.mwCands.begin(), ws.mwCands.end(), byPair);

    // Enforce the per-defect candidate budget: when a defect exceeds
    // neighborLimit adjacencies, keep its lightest ones. This is not
    // rare: dense defect clusters overflow it in about 40% of d = 11,
    // p = 1e-3 decodes. Dropping edges never breaks feasibility
    // (every defect retains its boundary edge).
    ws.mwLocalIndex.assign(n, 0);   // reused as degree counts here
    bool over_budget = false;
    for (const auto &cand : ws.mwCands) {
        if (++ws.mwLocalIndex[cand.i] > options_.neighborLimit ||
            ++ws.mwLocalIndex[cand.j] > options_.neighborLimit)
            over_budget = true;
    }
    if (over_budget) {
        std::sort(ws.mwCands.begin(), ws.mwCands.end(),
                  [](const DecodeWorkspace::Cand &x,
                     const DecodeWorkspace::Cand &y) {
                      if (x.w != y.w)
                          return x.w < y.w;
                      if (x.i != y.i)
                          return x.i < y.i;
                      return x.j < y.j;
                  });
        ws.mwLocalIndex.assign(n, 0);
        size_t kept = 0;
        for (size_t k = 0; k < ws.mwCands.size(); ++k) {
            const auto &cand = ws.mwCands[k];
            if (ws.mwLocalIndex[cand.i] >= options_.neighborLimit ||
                ws.mwLocalIndex[cand.j] >= options_.neighborLimit)
                continue;
            ++ws.mwLocalIndex[cand.i];
            ++ws.mwLocalIndex[cand.j];
            ws.mwCands[kept++] = cand;
        }
        ws.mwCands.resize(kept);
        // Restore (i, j) order for the post-matching parity lookup.
        std::sort(ws.mwCands.begin(), ws.mwCands.end(), byPair);
    }

    // Split the doubled matching instance into connected components
    // of the candidate graph: every cross-component pairing is
    // boundary-dominated, so blossom runs on many small instances
    // instead of one O(n^3) one (the sparse-blossom trick).
    for (int i = 0; i < n; ++i)
        ws.mwCompParent[i] = i;
    auto findComp = [&](int v) {
        while (ws.mwCompParent[v] != v) {
            ws.mwCompParent[v] =
                ws.mwCompParent[ws.mwCompParent[v]];
            v = ws.mwCompParent[v];
        }
        return v;
    };
    for (const auto &cand : ws.mwCands) {
        const int a = findComp(cand.i);
        const int b = findComp(cand.j);
        if (a != b)
            ws.mwCompParent[b] = a;
    }
    ws.mwCompKeys.clear();
    for (int i = 0; i < n; ++i)
        ws.mwCompKeys.push_back({findComp(i), i});
    std::sort(ws.mwCompKeys.begin(), ws.mwCompKeys.end());
    // Bucket candidates by component root once (index order preserved
    // within a root), so each candidate is visited exactly once below.
    ws.mwCandByComp.clear();
    for (size_t k = 0; k < ws.mwCands.size(); ++k)
        ws.mwCandByComp.push_back(
            {findComp(ws.mwCands[k].i), (int)k});
    std::sort(ws.mwCandByComp.begin(), ws.mwCandByComp.end());

    bool obs = false;
    size_t group = 0;
    size_t cand_cursor = 0;
    while (group < ws.mwCompKeys.size()) {
        const int root = ws.mwCompKeys[group].first;
        size_t group_end = group;
        while (group_end < ws.mwCompKeys.size() &&
               ws.mwCompKeys[group_end].first == root)
            ++group_end;
        const int k = (int)(group_end - group);

        // Trivial component: one defect, matched to its boundary twin.
        if (k == 1) {
            const int gi = ws.mwCompKeys[group].second;
            obs ^= (ws.mwBObs[gi] != 0);
            if (ws.recordCorrections)
                ws.corrections.push_back(
                    {defects[gi], -1, ws.mwBObs[gi]});
            group = group_end;
            continue;
        }

        for (size_t t = group; t < group_end; ++t)
            ws.mwLocalIndex[ws.mwCompKeys[t].second] =
                (int)(t - group);

        // Local doubled instance: real-real candidate edges plus
        // mirrored virtual-virtual edges that free both boundary
        // twins at zero cost, and one real-virtual edge per defect.
        ws.mwEdges.clear();
        while (cand_cursor < ws.mwCandByComp.size() &&
               ws.mwCandByComp[cand_cursor].first < root)
            ++cand_cursor;   // candidates of skipped 1-defect groups
        for (; cand_cursor < ws.mwCandByComp.size() &&
               ws.mwCandByComp[cand_cursor].first == root;
             ++cand_cursor) {
            const auto &cand =
                ws.mwCands[ws.mwCandByComp[cand_cursor].second];
            const int li = ws.mwLocalIndex[cand.i];
            const int lj = ws.mwLocalIndex[cand.j];
            ws.mwEdges.push_back({li, lj, scaled(cand.w)});
            ws.mwEdges.push_back({k + li, k + lj, 0});
        }
        for (size_t t = group; t < group_end; ++t) {
            const int li = (int)(t - group);
            ws.mwEdges.push_back(
                {li, k + li,
                 scaled(ws.mwBDist[ws.mwCompKeys[t].second])});
        }

        ws.statMatchedVerts += 2 * (uint64_t)k;
        ++ws.statComponents;
        minWeightPerfectMatchingInPlace(2 * k, ws.mwEdges,
                                        ws.mwPartner, ws.matcher);

        // Predicted observable: parity over matched structure.
        for (int li = 0; li < k; ++li) {
            const int m = ws.mwPartner[li];
            const int gi = ws.mwCompKeys[group + li].second;
            if (m == k + li) {
                obs ^= (ws.mwBObs[gi] != 0);
                if (ws.recordCorrections)
                    ws.corrections.push_back(
                        {defects[gi], -1, ws.mwBObs[gi]});
            } else if (m > li && m < k) {
                const int gj = ws.mwCompKeys[group + m].second;
                // Binary search the deduped candidate list.
                auto it = std::lower_bound(
                    ws.mwCands.begin(), ws.mwCands.end(),
                    std::make_pair(gi, gj),
                    [](const DecodeWorkspace::Cand &c,
                       const std::pair<int, int> &key) {
                        if (c.i != key.first)
                            return c.i < key.first;
                        return c.j < key.second;
                    });
                uint8_t pair_obs = 0;
                if (it != ws.mwCands.end() && it->i == gi &&
                    it->j == gj)
                    pair_obs = it->obs;
                obs ^= (pair_obs != 0);
                if (ws.recordCorrections)
                    ws.corrections.push_back(
                        {defects[gi], defects[gj], pair_obs});
            }
        }
        group = group_end;
    }
    return obs;
}

} // namespace qec
