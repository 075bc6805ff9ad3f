/**
 * @file
 * Minimum-weight perfect matching decoder over a DetectorModel.
 *
 * Decoding pipeline (the paper's "gold standard" MWPM, Section 2.2):
 *  1. One multi-source Dijkstra grows shortest-path regions around
 *     all fired detectors simultaneously over the weighted decoding
 *     graph (weight = log((1-q)/q) per edge), tracking the logical
 *     observable parity along shortest paths. Where two regions meet,
 *     the meeting edge yields a defect-pair candidate — at the exact
 *     shortest inter-defect distance whenever the shortest path stays
 *     inside the two regions; pairs separated by a third defect's
 *     region are represented through that defect's candidates instead
 *     (the local-matching approximation). Every touched node settles
 *     at most once per shot. Candidates are deduplicated as they are
 *     emitted: each defect pair (i, j) keeps only its
 *     lexicographically smallest (w, obs), found through a chain per
 *     smaller index, so only the distinct pairs are sorted.
 *
 *     The queue is an exact bucket queue. Bucket k holds tentative
 *     distances in [k δ, (k+1) δ), where δ = minEdgeW / 128 shrunk by
 *     a 1e-9 relative margin, and each bucket is sorted by (dist, id)
 *     just before it is settled. The index floor(dist / δ) is
 *     monotone in dist, so buckets drain in distance order; every
 *     relaxation adds at least minEdgeW > δ, so settling bucket k
 *     pushes only into later buckets. Nodes therefore settle in
 *     exactly the (dist, id) order a binary heap over (dist, id)
 *     pairs pops them in, with the same owners, parities and
 *     candidates. Indices stop at radius / δ (step 2). Where that
 *     would pass a fixed bucket cap (edge weights orders of magnitude
 *     apart), δ is coarsened; a push that then lands in the bucket
 *     being settled is inserted into its sorted remainder, which
 *     keeps the same order.
 *
 *     The defect-to-boundary route is NOT searched per shot: the
 *     exact shortest boundary distance (and its observable parity) is
 *     precomputed for every detector id at construction with one
 *     multi-source Dijkstra from the boundary, through the same
 *     bucket queue. Its sources start at their boundary-edge weights
 *     rather than 0, but the argument above only needs every
 *     relaxation to add at least minEdgeW; distances past the bucket
 *     cap share the last bucket.
 *  2. Reduce to minimum-weight perfect matching with one virtual
 *     boundary twin per defect (the standard doubling construction).
 *     A candidate (i, j, w) with w > bdist_i + bdist_j is dropped:
 *     pairing both endpoints with the boundary is cheaper. Growth
 *     stops at relaxations with nd > B (1 + 1e-9), where B is the
 *     shot's largest boundary distance. This is exact. No relaxation
 *     with nd <= B is pruned, so every detector at distance <= B
 *     settles in the same (dist, id) order with the same owner and
 *     parity as under any larger radius, and emits the same
 *     candidates. A candidate found while settling a node at distance
 *     d, across an edge to an already settled node, weighs at least
 *     2d: the settled side's distance plus the edge is at least d,
 *     whether it relaxed the node or was pruned past the radius. Past
 *     the radius, 2d > 2B >= bdist_i + bdist_j, so the filter above
 *     rejects it; the 1e-9 relative margin keeps that inequality
 *     strict under double rounding.
 *  3. Exact blossom matching per connected component of the candidate
 *     graph (cross-component pairings are boundary-dominated, so the
 *     O(n^3) solver runs on many small instances — the sparse-blossom
 *     trick); the predicted observable flip is the parity of
 *     matched-path observable crossings.
 *
 * Adjacency is a flat CSR layout and all per-shot scratch lives in the
 * caller's DecodeWorkspace: one epoch-marked record per detector
 * (distance, owner, parity, reached/settled mark; nothing cleared
 * between shots) and the bucket queue's storage. Once those have
 * grown to a shot set's needs, decoding it again allocates nothing.
 */

#ifndef QEC_DECODER_MWPM_DECODER_H
#define QEC_DECODER_MWPM_DECODER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "decoder/decoder_base.h"
#include "decoder/detector_model.h"

namespace qec
{

/** Tuning knobs for the decoder. */
struct DecoderOptions
{
    /** Defect-neighbour candidates kept per defect. */
    int neighborLimit = 12;
};

/**
 * MWPM decoder bound to one DetectorModel and physical error rate.
 * decode() is thread-safe (throwaway workspace); hot loops should use
 * decodeSparse with one DecodeWorkspace per thread.
 */
class MwpmDecoder : public Decoder
{
  public:
    MwpmDecoder(const DetectorModel &dem, double p,
                DecoderOptions options = {});

    bool decodeSparse(const int *defects, size_t count,
                      DecodeWorkspace &workspace) const override;

    /**
     * Shot-level slack for component composition: every settle lies
     * within the shot's largest boundary distance (plus a 1e-9
     * relative margin), which is at most any defect's boundary
     * distance plus that maximum. A component decoded alone certifies
     * only its own maximum (lastReachHops), and composing it inside a
     * larger shot can extend the reach by at most the shot's largest
     * boundary distance, converted to hops via the minimum
     * detector-detector edge weight. The bound is conservative.
     */
    int componentSlackHops(const int *defects,
                           size_t count) const override;

    int numDetectors() const { return numDets_; }

    /** Total decoding-graph edges (diagnostics/tests). */
    size_t
    numGraphEdges() const
    {
        return numEdges_;
    }

    /** Cached exact shortest distance from a detector to the boundary
     *  (+inf when the boundary is unreachable). */
    double
    boundaryDistance(int det) const
    {
        return boundaryDist_[det];
    }

  private:
    struct Nbr
    {
        int to;
        float w;
        uint8_t obs;
    };

    int numDets_ = 0;
    size_t numEdges_ = 0;
    DecoderOptions options_;
    /** Minimum detector-detector edge weight: converts weight radii
     *  into hop bounds for the reach certificates (+inf if the graph
     *  has no detector-detector edges, i.e. regions never grow). */
    double minEdgeW_ = 0.0;
    /** CSR adjacency: neighbours of detector d live at
     *  nbrs_[nbrOffsets_[d] .. nbrOffsets_[d + 1]). */
    std::vector<int> nbrOffsets_;
    std::vector<Nbr> nbrs_;
    /** Best direct boundary edge per detector (+inf if none). */
    std::vector<float> boundaryW_;
    std::vector<uint8_t> boundaryObs_;
    /** Persistent defect-to-boundary cache keyed by detector id:
     *  exact shortest boundary distance and its observable parity. */
    std::vector<double> boundaryDist_;
    std::vector<uint8_t> boundaryPathObs_;
};

} // namespace qec

#endif // QEC_DECODER_MWPM_DECODER_H
