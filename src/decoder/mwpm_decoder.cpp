#include "decoder/mwpm_decoder.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

/** Buckets per minimum detector-detector edge weight: the bucket
 *  width is minEdgeW / kBucketsPerEdge, shrunk by a 1e-9 relative
 *  margin. Finer buckets hold fewer entries to sort, coarser ones
 *  leave fewer empty buckets to skip. A d = 11, p = 1e-3 ERASER
 *  decode scans about 680 buckets; about 195 of them are non-empty,
 *  with about 11 entries each (distances repeat, so finer buckets
 *  would not split them). */
constexpr double kBucketsPerEdge = 128.0;
/** Bucket-count cap: bounds the head array where the weights span
 *  many orders of magnitude (the queue stays exact, see push()). */
constexpr size_t kMaxBuckets = size_t(1) << 14;

/**
 * Exact monotone bucket queue for a Dijkstra whose every relaxation
 * adds at least minEdgeW. Bucket k holds distances in [k δ, (k+1) δ);
 * the index floor(dist / δ) is monotone in dist (one rounded multiply
 * and a floor), so buckets pop in distance order, and each bucket is
 * sorted by (dist, id) just before it is settled. With δ < minEdgeW,
 * settling bucket k only pushes into later buckets, so the pop order
 * is exactly the (dist, id) order a binary heap over (dist, id) pairs
 * gives. Where δ had to be coarsened (or an index clamped into the
 * last bucket) a push may land in the bucket being settled; it is
 * then inserted into the sorted remainder, which keeps the same
 * order.
 */
class BucketQueue
{
  public:
    /** Empty queue over `storage`, with bucket width 1 / inv_delta
     *  and indices clamped to num_buckets - 1. */
    BucketQueue(DecodeWorkspace::MwBuckets &storage, double inv_delta,
                size_t num_buckets)
        : s_(storage), invDelta_(inv_delta), last_(num_buckets - 1)
    {
        if (s_.head.size() < num_buckets)
            s_.head.resize(num_buckets, -1);
        s_.pool.clear();
    }

    void
    push(double dist, int node)
    {
        const double x = dist * invDelta_;
        const size_t b = x < (double)last_ ? (size_t)x : last_;
        if ((ptrdiff_t)b > cur_) {
            s_.pool.push_back({dist, node, s_.head[b]});
            s_.head[b] = (int)s_.pool.size() - 1;
            top_ = std::max(top_, b);
            return;
        }
        const std::pair<double, int> item{dist, node};
        s_.drain.insert(std::lower_bound(s_.drain.begin() + pos_ + 1,
                                         s_.drain.end(), item),
                        item);
    }

    /** Pop every entry in (dist, id) order, calling settle(dist, id);
     *  settle may push. Stale entries are the caller's to skip. */
    template <typename Settle>
    void
    drain(Settle &&settle)
    {
        for (size_t k = 0; k <= top_; ++k) {
            int e = s_.head[k];
            if (e < 0)
                continue;
            s_.head[k] = -1;
            cur_ = (ptrdiff_t)k;
            s_.drain.clear();
            for (; e >= 0; e = s_.pool[e].next)
                s_.drain.push_back({s_.pool[e].dist, s_.pool[e].node});
            std::sort(s_.drain.begin(), s_.drain.end());
            for (pos_ = 0; pos_ < s_.drain.size(); ++pos_) {
                const auto [dist, node] = s_.drain[pos_];
                settle(dist, node);
            }
        }
    }

  private:
    DecodeWorkspace::MwBuckets &s_;
    double invDelta_;
    size_t last_;
    size_t top_ = 0;
    ptrdiff_t cur_ = -1;   ///< Bucket being settled (-1 = none yet).
    size_t pos_ = 0;       ///< Settling position inside s_.drain.
};

/** Inverse bucket width for a graph whose lightest detector-detector
 *  edge weighs min_edge_w (0 — one bucket — when it has none). */
double
fineInvDelta(double min_edge_w)
{
    return min_edge_w < kInf
               ? kBucketsPerEdge / (min_edge_w * (1.0 - 1.0e-9))
               : 0.0;
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
    DecodeWorkspace::MwBuckets storage;
    // The largest boundary distance is not known up front: distances
    // past kMaxBuckets buckets share the last one.
    BucketQueue queue(storage, fineInvDelta(minEdgeW_), kMaxBuckets);
    for (int d = 0; d < numDets_; ++d) {
        if (boundaryW_[d] < kInf) {
            boundaryDist_[d] = boundaryW_[d];
            boundaryPathObs_[d] = boundaryObs_[d];
            queue.push(boundaryDist_[d], d);
        }
    }
    queue.drain([&](double dist, int u) {
        if (dist > boundaryDist_[u])
            return;
        const int row_end = nbrOffsets_[(size_t)u + 1];
        for (int k = nbrOffsets_[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs_[k];
            const double nd = dist + nbr.w;
            if (nd < boundaryDist_[nbr.to]) {
                boundaryDist_[nbr.to] = nd;
                boundaryPathObs_[nbr.to] =
                    boundaryPathObs_[u] ^ nbr.obs;
                queue.push(nd, nbr.to);
            }
        }
    });
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
    // chain of its smaller index. Nodes pop from the bucket queue in
    // exact (dist, id) order.
    //
    // Reach and settle marks of this call (see DecodeWorkspace::MwNode).
    const uint64_t reached = 2 * call;
    const uint64_t settled = reached + 1;
    // Bucket width: a fixed fraction of the lightest edge, coarsened
    // only where the radius would need more than kMaxBuckets buckets.
    // Every push satisfies nd <= radius, so no index passes the last
    // bucket.
    const double inv_delta =
        std::min(fineInvDelta(minEdgeW_),
                 (double)(kMaxBuckets - 1) / radius);
    BucketQueue queue(ws.mwQueue, inv_delta,
                      (size_t)(radius * inv_delta) + 1);
    for (int i = 0; i < n; ++i) {
        const int src = defects[i];
        ws.mwNode[src] = {0.0, reached, i, 0};
        queue.push(0.0, src);
    }

    // Array pointers hoisted out of the settle loop: reading through
    // the vectors there cost about 8% of the d = 11 Dijkstra (reloads
    // the compiler cannot prove redundant across the loop's stores).
    DecodeWorkspace::MwNode *const node = ws.mwNode.data();
    const double *const bdist = ws.mwBDist.data();
    const int *const offsets = nbrOffsets_.data();
    const Nbr *const nbrs = nbrs_.data();
    queue.drain([&](double d, int u) {
        DecodeWorkspace::MwNode &nu = node[u];
        if (nu.mark == settled || d > nu.dist)
            return;
        nu.mark = settled;
        ++ws.statSettledNodes;
        const int oi = nu.owner;
        const double bdist_i = bdist[oi];

        const int row_end = offsets[(size_t)u + 1];
        for (int k = offsets[u]; k < row_end; ++k) {
            const Nbr &nbr = nbrs[k];
            DecodeWorkspace::MwNode &nv = node[nbr.to];
            if (nv.mark == settled) {
                const int oj = nv.owner;
                if (oj == oi)
                    continue;
                // Region crossing: candidate at the exact shortest
                // distance between the two owners (for this meeting
                // edge; the pair's entry keeps the lightest).
                // Dropped when matching both owners to the boundary
                // is strictly cheaper.
                const double w = d + nbr.w + nv.dist;
                if (w > bdist_i + bdist[oj])
                    continue;
                const uint8_t obs = nu.obs ^ nbr.obs ^ nv.obs;
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
            if (nv.mark != reached || nd < nv.dist) {
                nv = {nd, reached, oi, (uint8_t)(nu.obs ^ nbr.obs)};
                queue.push(nd, nbr.to);
            }
        }
    });

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
