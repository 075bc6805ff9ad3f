#include "decoder/sparse_syndrome.h"

#include "base/logging.h"

namespace qec
{

namespace
{

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t
hashStep(uint64_t h, int det)
{
    return (h ^ (uint64_t)(uint32_t)det) * kFnvPrime;
}

} // namespace

uint64_t
syndromeHash(const int *defects, size_t count)
{
    uint64_t h = kFnvOffset;
    for (size_t k = 0; k < count; ++k)
        h = hashStep(h, defects[k]);
    return h;
}

template <int NW>
void
SparseSyndromeExtractor::extract(
    const IrDetectorMap &map, int rounds,
    const std::vector<BatchMeasureRecordT<NW>> &record, int num_lanes,
    BatchSyndrome &out)
{
    const int n_s = map.cols;
    const int nw = (num_lanes + 63) / 64;

    // Fold the record into detector bit-planes: NW XORs merge a
    // measurement into all lanes at once, and stabilizer ids route
    // through the program's detector-column map. Record flips are
    // zero outside their lane mask, so plain XOR is safe.
    mflip_.assign((size_t)n_s * rounds * nw, 0);
    dataFlip_.assign((size_t)map.numData * nw, 0);
    for (const auto &rec : record) {
        if (rec.finalData) {
            uint64_t *dst = dataFlip_.data() + (size_t)rec.qubit * nw;
            for (int b = 0; b < nw; ++b)
                dst[b] ^= laneWord(rec.flips, b);
            continue;
        }
        if (rec.stab < 0)
            continue;
        const int col = map.stabColumn[rec.stab];
        if (col < 0)
            continue;
        if (rec.round < 0 || rec.round >= rounds)
            panic("measurement round out of range");
        uint64_t *dst =
            mflip_.data() + ((size_t)rec.round * n_s + col) * nw;
        for (int b = 0; b < nw; ++b)
            dst[b] ^= laneWord(rec.flips, b);
    }

    // Pass 1: detection-event words (column-major so per-lane defect
    // lists come out in the scalar extractDefects order), with
    // per-lane counts for the flat arena layout.
    events_.resize((size_t)n_s * (rounds + 1) * nw);
    uint32_t counts[kMaxBatchLanes] = {0};
    uint64_t live[kMaxBatchWords];
    for (int b = 0; b < nw; ++b)
        live[b] = laneMask64(num_lanes - 64 * b);
    uint64_t recon[kMaxBatchWords];
    for (int s = 0; s < n_s; ++s) {
        uint64_t prev[kMaxBatchWords] = {0};
        uint64_t *row = events_.data() + (size_t)s * (rounds + 1) * nw;
        for (int r = 0; r < rounds; ++r) {
            const uint64_t *cur =
                mflip_.data() + ((size_t)r * n_s + s) * nw;
            for (int b = 0; b < nw; ++b) {
                uint64_t ev = (cur[b] ^ prev[b]) & live[b];
                row[(size_t)r * nw + b] = ev;
                prev[b] = cur[b];
                const int base = 64 * b;
                while (ev) {
                    ++counts[base + __builtin_ctzll(ev)];
                    ev &= ev - 1;
                }
            }
        }
        // Final row: reconstruct the column from data measurements
        // through the program's column-support CSR.
        for (int b = 0; b < nw; ++b)
            recon[b] = 0;
        for (int k = map.colSupportOffset[s];
             k < map.colSupportOffset[(size_t)s + 1]; ++k) {
            const uint64_t *src =
                dataFlip_.data() + (size_t)map.colSupportData[k] * nw;
            for (int b = 0; b < nw; ++b)
                recon[b] ^= src[b];
        }
        for (int b = 0; b < nw; ++b) {
            uint64_t ev = (recon[b] ^ prev[b]) & live[b];
            row[(size_t)rounds * nw + b] = ev;
            const int base = 64 * b;
            while (ev) {
                ++counts[base + __builtin_ctzll(ev)];
                ev &= ev - 1;
            }
        }
    }

    // Pass 2: lay the defect ids out lane-major in one flat arena.
    out.numLanes = num_lanes;
    out.numWords = nw;
    out.observableWords.fill(0);
    out.nonzeroWords.fill(0);
    out.offsets.resize((size_t)num_lanes + 1);
    out.laneHash.resize(num_lanes);
    uint32_t total = 0;
    uint32_t cursor[kMaxBatchLanes];
    for (int l = 0; l < num_lanes; ++l) {
        out.offsets[l] = total;
        cursor[l] = total;
        total += counts[l];
        out.laneHash[l] = kFnvOffset;
        if (counts[l])
            out.nonzeroWords[l >> 6] |= uint64_t{1} << (l & 63);
    }
    out.offsets[num_lanes] = total;
    out.defects.resize(total);
    for (int s = 0; s < n_s; ++s) {
        const uint64_t *row =
            events_.data() + (size_t)s * (rounds + 1) * nw;
        for (int r = 0; r <= rounds; ++r) {
            const int det = r * n_s + s;
            for (int b = 0; b < nw; ++b) {
                uint64_t ev = row[(size_t)r * nw + b];
                const int base = 64 * b;
                while (ev) {
                    const int l = base + __builtin_ctzll(ev);
                    ev &= ev - 1;
                    out.defects[cursor[l]++] = det;
                    out.laneHash[l] = hashStep(out.laneHash[l], det);
                }
            }
        }
    }

    for (int q : map.observable) {
        const uint64_t *src = dataFlip_.data() + (size_t)q * nw;
        for (int b = 0; b < nw; ++b)
            out.observableWords[b] ^= src[b];
    }
    for (int b = 0; b < nw; ++b)
        out.observableWords[b] &= live[b];
}

template void SparseSyndromeExtractor::extract<1>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<1>> &, int, BatchSyndrome &);
template void SparseSyndromeExtractor::extract<4>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<4>> &, int, BatchSyndrome &);
template void SparseSyndromeExtractor::extract<8>(
    const IrDetectorMap &, int,
    const std::vector<BatchMeasureRecordT<8>> &, int, BatchSyndrome &);

} // namespace qec
