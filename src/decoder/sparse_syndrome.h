/**
 * @file
 * Sparse syndrome extraction from batched measurement records.
 *
 * The batch engine leaves each measurement as one W-lane plane word
 * (W = 64/256/512; see base/simd_word.h); this layer folds those words
 * into detector bit-planes and word-scans them with ctz to emit
 * per-lane fired-detector lists, stored lane-major in one flat arena
 * (no per-lane vectors). At the error rates ERASER targets most
 * detector words are zero, so extraction cost tracks the number of
 * fired detectors, not the lattice volume — the same sparse-shot
 * representation Stim and PyMatching stream between sampler and
 * decoder.
 *
 * Each lane also gets an order-sensitive FNV-style hash of its defect
 * list, which the syndrome dedup cache keys on, plus a nonzero-lane
 * mask that lets the decode stage skip zero-defect shots entirely.
 *
 * Extraction runs in three steps: begin() sizes and zeroes the
 * detector planes, fold() XORs a slice of records into them, and
 * finish() turns the planes into event rows, the lane-major arena,
 * the hashes and the observable. The memory experiment folds each
 * round's records as soon as the round's controller gather has read
 * them and then clears the simulator's record, so a word-group never
 * holds more than one round of records; the planes it keeps are
 * packed bits. extract() is the same three steps over a whole record.
 *
 * BatchSyndrome itself is width-agnostic: lane sets are stored as up
 * to kMaxBatchWords raw 64-bit words, so one decode pipeline consumes
 * groups of any width.
 */

#ifndef QEC_DECODER_SPARSE_SYNDROME_H
#define QEC_DECODER_SPARSE_SYNDROME_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/simd_word.h"
#include "code/circuit_ir.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{

/** All lanes' sparse syndromes for one word-group, flat lane-major. */
struct BatchSyndrome
{
    int numLanes = 0;
    /** Plane words covering numLanes (ceil(numLanes / 64)). */
    int numWords = 0;
    /** Per-lane true logical-observable flip bits, 64 lanes/word. */
    std::array<uint64_t, kMaxBatchWords> observableWords{};
    /** Lanes with at least one fired detector, 64 lanes/word. */
    std::array<uint64_t, kMaxBatchWords> nonzeroWords{};
    /** Lane l's defects live at defects[offsets[l] .. offsets[l+1]),
     *  in the same (stabilizer-major, round-ascending) order the
     *  scalar extractDefects emits. */
    std::vector<uint32_t> offsets;
    std::vector<int> defects;
    /** Per-lane syndromeHash() of the defect list. */
    std::vector<uint64_t> laneHash;

    const int *
    laneBegin(int lane) const
    {
        return defects.data() + offsets[lane];
    }
    size_t
    laneSize(int lane) const
    {
        return offsets[(size_t)lane + 1] - offsets[lane];
    }
    bool
    laneObservable(int lane) const
    {
        return (observableWords[lane >> 6] >> (lane & 63)) & 1;
    }
    bool
    laneNonzero(int lane) const
    {
        return (nonzeroWords[lane >> 6] >> (lane & 63)) & 1;
    }
};

/** Order-sensitive hash of a defect list (dedup cache key). */
uint64_t syndromeHash(const int *defects, size_t count);

/**
 * Reusable extractor: owns the bit-plane scratch so repeated word-group
 * extractions allocate nothing in steady state. One instance per
 * thread; width-generic (one instance serves any record width).
 * A group is extracted as begin(), any number of fold() calls that
 * together cover its records (in any split; XOR order does not
 * matter), then finish().
 */
class SparseSyndromeExtractor
{
  public:
    /**
     * Extract every lane's sparse syndrome from a batched measurement
     * record (including the final transversal data measurement),
     * routed through a compiled program's measure→detector/observable
     * map: record stabilizer ids select detector columns via
     * `map.stabColumn`, the final detector row is reconstructed from
     * the column-support CSR, and the observable is the XOR of
     * `map.observable`'s final readouts. Each lane's defects match
     * the scalar extractDefects on that lane's records. Reuses
     * `out`'s buffers. Equivalent to begin(), fold() of the whole
     * record and finish().
     */
    template <int NW>
    void extract(const IrDetectorMap &map, int rounds,
                 const std::vector<BatchMeasureRecordT<NW>> &record,
                 int num_lanes, BatchSyndrome &out);

    /** Start a word-group of `num_lanes` lanes: size and zero the
     *  detector and final-readout planes. `map` must outlive the
     *  group's fold() and finish() calls. */
    void begin(const IrDetectorMap &map, int rounds, int num_lanes);

    /** XOR `count` records into the planes. The records' width must
     *  cover the group's lanes. */
    template <int NW>
    void fold(const BatchMeasureRecordT<NW> *records, size_t count);

    /** Emit the group's syndrome from the folded planes. */
    void finish(BatchSyndrome &out);

  private:
    /** The group begin() opened. */
    const IrDetectorMap *map_ = nullptr;
    int rounds_ = 0;
    int numLanes_ = 0;
    int nw_ = 0;  ///< Plane words per cell, ceil(numLanes_ / 64).
    /** All scratch planes are [cell][word] with runtime word stride. */
    std::vector<uint64_t> mflip_;     ///< [round*stab][word] planes.
    std::vector<uint64_t> dataFlip_;  ///< [data qubit][word] finals.
    std::vector<uint64_t> events_;    ///< [stab*(rounds+1)][word].
};

extern template void SparseSyndromeExtractor::extract<1>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<1>> &, int, BatchSyndrome &);
extern template void SparseSyndromeExtractor::extract<4>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<4>> &, int, BatchSyndrome &);
extern template void SparseSyndromeExtractor::extract<8>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<8>> &, int, BatchSyndrome &);
extern template void SparseSyndromeExtractor::fold<1>(
    const BatchMeasureRecordT<1> *, size_t);
extern template void SparseSyndromeExtractor::fold<4>(
    const BatchMeasureRecordT<4> *, size_t);
extern template void SparseSyndromeExtractor::fold<8>(
    const BatchMeasureRecordT<8> *, size_t);

} // namespace qec

#endif // QEC_DECODER_SPARSE_SYNDROME_H
